"""Indexed-tensor expressions with exact coefficients.

An Expression is a collected sum of terms; each term is an exact scalar
times a product of tensor factors, optionally wrapped in the volume
integral INT[...].  A factor is a symbol from the fixed symbol table
(curvature R, torsion A11/Ab1b1, deformation coefficient E11/Eb1b1,
real scalar f, ...) together with an ordered string of covariant
derivative letters over {1, b, 0}, where "b" stands for 1-bar and the
leftmost letter is applied first.

All values are immutable; operations are pure functions.  Operator
templates, rewrite rules and catalog values all put expressions in place of
factors through one primitive, `Expression.substitute`.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .scalar import _ZERO_V, ScalarExact, ZERO

# ---------------------------------------------------------------------------
# Derivative letters
# ---------------------------------------------------------------------------

DERIV_LETTERS = ("1", "b", "0")
_LETTER_ORDER = {"1": 0, "b": 1, "0": 2}
_LETTER_CONJ = {"1": "b", "b": "1", "0": "0"}
_LETTER_WEIGHT = {"1": 1, "b": 1, "0": 2}
_LETTER_ALPHA = {"1": 1, "b": -1, "0": 0}


def conj_letter(letter: str) -> str:
    """Conjugation swaps 1 <-> 1bar and fixes the T-direction 0."""
    return _LETTER_CONJ[letter]


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

class SymbolInfo(NamedTuple):
    name: str
    conj: str          # name of the conjugate partner (itself if real)
    base_alpha: int    # (# of index 1) - (# of index 1bar) over the base indices
    base_weight: int
    real: bool


def _sym(name, conj, alpha, weight, real=False):
    return SymbolInfo(name, conj, alpha, weight, real)


# f: real scalar function; g: complex scalar (the free parameter of the 3.7
# tight family);
# R: Tanaka-Webster scalar curvature; A11: torsion coefficient;
# E11: deformation tensor coefficient; Q11: Cartan tensor coefficient;
# W: a cube root of A11_{,1}, so |A11_{,1}|^{2/3} = W*Wb.  W is not
# differentiable where A11_{,1} = 0, so it never carries a derivative and
# no integration-by-parts query contains it.  LAM, RHO: the free real
# parameters of Lemma 3.1 (record 3.6); constants, so they never carry a
# derivative, and 3.6 strips them before any integration-by-parts query.
SYMBOLS: dict[str, SymbolInfo] = {
    s.name: s
    for s in (
        _sym("f", "f", 0, 0, real=True),
        _sym("g", "gb", 0, 0),
        _sym("gb", "g", 0, 0),
        _sym("R", "R", 0, 2, real=True),
        _sym("A11", "Ab1b1", 2, 2),
        _sym("Ab1b1", "A11", -2, 2),
        _sym("E11", "Eb1b1", 2, 0),
        _sym("Eb1b1", "E11", -2, 0),
        _sym("Q11", "Qb1b1", 2, 4),
        _sym("Qb1b1", "Q11", -2, 4),
        _sym("W", "Wb", 1, 1),
        _sym("Wb", "W", -1, 1),
        _sym("LAM", "LAM", 0, 0, real=True),
        _sym("RHO", "RHO", 0, 0, real=True),
    )
}

# Fixed total symbol order, that of SYMBOLS: used for the canonical factor
# order inside terms.
_SYMBOL_INDEX = {name: k for k, name in enumerate(SYMBOLS)}


# ---------------------------------------------------------------------------
# Factor
# ---------------------------------------------------------------------------

class Factor(NamedTuple):
    symbol: str
    derivs: tuple[str, ...] = ()

    @property
    def info(self) -> SymbolInfo:
        return SYMBOLS[self.symbol]

    def conjugate(self) -> "Factor":
        return Factor(self.info.conj, tuple(conj_letter(l) for l in self.derivs))

    def weight(self) -> int:
        return self.info.base_weight + sum(_LETTER_WEIGHT[l] for l in self.derivs)

    def alpha(self) -> int:
        """Total (#1 - #1bar) over base indices plus all derivative letters."""
        return self.info.base_alpha + sum(_LETTER_ALPHA[l] for l in self.derivs)

    def alpha_prefix(self, position: int) -> int:
        """(#1 - #1bar) over base indices plus derivatives left of `position`.

        This is the alpha entering the commutation rules when a swap is
        performed at `position` inside the derivative string; letters to the
        right have not been applied yet and the T-letter 0 is alpha-neutral.
        """
        return self.info.base_alpha + sum(_LETTER_ALPHA[l] for l in self.derivs[:position])

    def with_deriv(self, letter: str) -> "Factor":
        return Factor(self.symbol, self.derivs + (letter,))

    # sort keys, `is_canonical` and `_sorted_tuple` are memoized for the
    # life of the process: the catalog and its mutants ask for a few hundred
    @cache
    def sort_key(self):
        return (_SYMBOL_INDEX[self.symbol], len(self.derivs),
                tuple(_LETTER_ORDER[l] for l in self.derivs))

    @cache
    def is_canonical(self) -> bool:
        keys = [_LETTER_ORDER[l] for l in self.derivs]
        return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))

    def __str__(self):
        if not self.derivs:
            return self.symbol
        return f"{self.symbol}_{{{''.join(self.derivs)}}}"


# ---------------------------------------------------------------------------
# Term view (used in reports and for the weight operation)
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    coeff: ScalarExact
    factors: tuple[Factor, ...]
    integrated: bool

    def weight(self) -> int:
        return sum(f.weight() for f in self.factors)


TermKey = tuple[bool, tuple[Factor, ...]]


def _sorted_factors(factors: Iterable[Factor]) -> tuple[Factor, ...]:
    return _sorted_tuple(tuple(factors))


@cache
def _sorted_tuple(factors: tuple[Factor, ...]) -> tuple[Factor, ...]:
    return tuple(sorted(factors, key=Factor.sort_key))


# ---------------------------------------------------------------------------
# Expression
# ---------------------------------------------------------------------------

class Expression:
    """Collected sum of terms mapping (integrated, factors) -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, ScalarExact] | None = None):
        object.__setattr__(self, "_terms", {
            key: coeff for key, coeff in (terms or {}).items()
            if coeff._v != _ZERO_V})

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Expression is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Expression":
        return Expression()

    @staticmethod
    def scalar(value: ScalarExact | int) -> "Expression":
        return Expression({(False, ()): ScalarExact.coerce(value)})

    @staticmethod
    def from_factor(factor: Factor, coeff: ScalarExact | int = 1,
                    integrated: bool = False) -> "Expression":
        return Expression({(integrated, (factor,)): ScalarExact.coerce(coeff)})

    @staticmethod
    def from_term(coeff: ScalarExact | int, factors: Iterable[Factor],
                  integrated: bool = False) -> "Expression":
        return Expression({(integrated, _sorted_factors(factors)):
                           ScalarExact.coerce(coeff)})

    @staticmethod
    def sum(parts: Iterable["Expression"]) -> "Expression":
        """parts[0] + parts[1] + ..., term for term and in the same insertion
        order, without copying the partial sum for every part."""
        acc: dict[TermKey, ScalarExact] = {}
        for part in parts:
            for key, coeff in part._terms.items():
                prev = acc.get(key)
                val = coeff if prev is None else prev + coeff
                if val.is_zero():
                    del acc[key]
                else:
                    acc[key] = val
        return Expression(acc)

    # -- iteration ----------------------------------------------------------

    def items(self) -> Iterator[tuple[TermKey, ScalarExact]]:
        return iter(sorted(self._terms.items(), key=lambda kv: _term_sort_key(kv[0])))

    def term_list(self) -> list[Term]:
        return [Term(coeff, key[1], key[0]) for key, coeff in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    @property
    def integrated(self) -> bool:
        """True if every term is integrated (vacuously False when empty)."""
        return bool(self._terms) and all(key[0] for key in self._terms)

    def has_mixed_integration(self) -> bool:
        flags = {key[0] for key in self._terms}
        return len(flags) > 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        if not isinstance(other, Expression):
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = merged.get(key)
            merged[key] = coeff if prev is None else prev + coeff
        return Expression(merged)

    def __neg__(self) -> "Expression":
        return Expression({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Expression") -> "Expression":
        if not isinstance(other, Expression):
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = merged.get(key)
            merged[key] = -coeff if prev is None else prev - coeff
        return Expression(merged)

    def __mul__(self, other) -> "Expression":
        if isinstance(other, (int, ScalarExact)):
            s = ScalarExact.coerce(other)
            return Expression({k: c * s for k, c in self._terms.items()})
        if isinstance(other, Factor):
            other = Expression.from_factor(other)
        if not isinstance(other, Expression):
            return NotImplemented
        out: dict[TermKey, ScalarExact] = {}
        for (int1, f1), c1 in self._terms.items():
            for (int2, f2), c2 in other._terms.items():
                if int1 and int2:
                    raise ValueError("cannot multiply two integrated terms")
                if (int1 and f2) or (int2 and f1):
                    raise ValueError(
                        "cannot multiply an integrated term by a non-scalar")
                key = (int1 or int2, _sorted_factors(f1 + f2))
                val = c1 * c2
                prev = out.get(key)
                out[key] = val if prev is None else prev + val
        return Expression(out)

    def __truediv__(self, other):
        if isinstance(other, (int, ScalarExact)):
            s = ScalarExact.coerce(other)
            return self * s.inverse()
        if isinstance(other, Expression):
            return self * other.scalar_value().inverse()
        return NotImplemented

    def scalar_value(self) -> ScalarExact:
        """The value of a purely scalar expression (no factors, no INT)."""
        if not self._terms:
            return ZERO
        if len(self._terms) == 1:
            (key, coeff), = self._terms.items()
            if key == (False, ()):
                return coeff
        raise ValueError("expression is not a pure scalar")

    # -- structure maps ------------------------------------------------------

    def conjugate(self) -> "Expression":
        out: dict[TermKey, ScalarExact] = {}
        for (integ, factors), coeff in self._terms.items():
            key = (integ, _sorted_factors(f.conjugate() for f in factors))
            val = coeff.conjugate()
            prev = out.get(key)
            out[key] = val if prev is None else prev + val
        return Expression(out)

    def integrate(self) -> "Expression":
        out: dict[TermKey, ScalarExact] = {}
        for (integ, factors), coeff in self._terms.items():
            if integ:
                raise ValueError("term is already integrated")
            key = (True, factors)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
        return Expression(out)

    def filter_terms(self, predicate) -> "Expression":
        return Expression({k: c for k, c in self._terms.items()
                           if predicate(Term(c, k[1], k[0]))})

    def substitute(self, replace: Callable[[Factor], "Expression | None"]
                   ) -> "Expression":
        """Each factor for which `replace` gives a plain expression replaced
        by it (None keeps the factor), and every term multiplied out, in one
        pass; an integrated term stays integrated."""
        acc: dict[TermKey, ScalarExact] = {}
        for (integrated, factors), coeff in self._terms.items():
            products = [((), coeff)]
            for f in factors:
                value = replace(f)
                if value is None:
                    products = [(fs + (f,), c) for fs, c in products]
                else:
                    products = [(fs + vf, c * vc) for fs, c in products
                                for (_, vf), vc in value._terms.items()]
            for fs, c in products:
                key = (integrated, _sorted_factors(fs))
                acc[key] = acc[key] + c if key in acc else c
        return Expression(acc)

    def drop_symbols(self, symbols: set[str]) -> "Expression":
        """Set the listed symbols to zero (drop every term containing one)."""
        return self.filter_terms(
            lambda t: not any(f.symbol in symbols for f in t.factors))

    # -- comparison / printing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        return format_expression(self)

    def __repr__(self):
        return f"<Expression {format_expression(self)}>"


def _term_sort_key(key: TermKey):
    integ, factors = key
    return (integ, tuple(f.sort_key() for f in factors), len(factors))


# ---------------------------------------------------------------------------
# Canonical printing (the inverse of parser.parse on canonical text)
# ---------------------------------------------------------------------------

def _coeff_prefix(coeff: ScalarExact) -> tuple[bool, str]:
    """(negative, prefix) where prefix is "" for +-1, else "q*" / "(..)*"."""
    parts = coeff.parts()
    if len(parts) == 1:
        r, tok = parts[0]
        neg = r < 0
        mag = abs(r)
        rat = ScalarExact._rat_str(mag)
        if tok and mag == 1:
            return neg, tok + "*"
        if tok:
            return neg, f"{rat}*{tok}*"
        if mag == 1:
            return neg, ""
        return neg, rat + "*"
    # composite scalar: print parenthesized, sign kept inside
    return False, f"({coeff})*"


def _term_str(coeff: ScalarExact, factors: tuple[Factor, ...],
              integrated: bool) -> tuple[bool, str]:
    body = "*".join(str(f) for f in factors)
    if not factors:
        s = str(coeff)
        if s.startswith("-") and coeff.parts() and len(coeff.parts()) == 1:
            return True, s[1:]
        text = s if len(coeff.parts()) <= 1 else f"({s})"
        return False, text
    neg, prefix = _coeff_prefix(coeff)
    text = prefix + body
    if integrated:
        text = f"INT[{text}]"
    return neg, text


def format_expression(e: Expression) -> str:
    if e.is_zero():
        return "0"
    pieces = []
    for key, coeff in e.items():
        neg, text = _term_str(coeff, key[1], key[0])
        if not pieces:
            pieces.append(("-" if neg else "") + text)
        else:
            pieces.append((" - " if neg else " + ") + text)
    return "".join(pieces)
