"""Parser for the expression grammar.

Grammar (documented in README):

    expression := ['-'] term (('+' | '-') term)*
    term       := atom (('*' | '/') atom)*
    atom       := NUMBER | 'i' | 's3' | FACTOR | '(' expression ')'
                | 'INT[' expression ']' | '2Re[' expression ']' | '-' atom
    FACTOR     := SYMBOL [ '_{' [1b0]* '}' ]
                | ('A'|'E'|'Q') '_{' ('11'|'b1b1') '}' [ '_{' [1b0]* '}' ]

Symbols: f R A11 Ab1b1 E11 Eb1b1 Q11 Qb1b1 W Wb (W is a cube root of
A11_{,1}; plus g/gb, a complex scalar, the free parameter of the 3.7 tight
family, and LAM, RHO, the free real parameters of Lemma 3.1).  The derivative alphabet is 1, b (= 1-bar), 0; the leftmost
letter is applied first.  '2Re[X]' is expanded to X + conj(X) at parse time;
there is no Re/Im node in the AST.  Division is only defined by
scalar-valued subexpressions.

`Corpus` reads the identity catalog, whose fields are texts in this grammar.
"""

from __future__ import annotations

import re
from functools import cache
from importlib import resources

from .expr import DERIV_LETTERS, Expression, Factor, SYMBOLS, _sorted_factors
from .scalar import I, ONE, SQRT3, ScalarExact

__all__ = ["parse", "ParseError", "Corpus"]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<twore>2Re\[)
  | (?P<int>INT\[)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<suffix>_\{[A-Za-z0-9]*\})
  | (?P<op>[-+*/()\[\]])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # every character starts a match (`bad` takes any other), so the
    # matches tile the text
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    # -- token helpers ------------------------------------------------------

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.advance()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}", tok[2])
        return tok

    # -- grammar ------------------------------------------------------------
    #
    # A product of numbers, i, s3 and factors is kept as one plain term, a
    # (coefficient, factors) pair; a sum collects its terms into one dict of
    # Expression terms (zeros kept until the Expression is made).  Anything
    # else (a parenthesized sum, INT[...], 2Re[...]) is an Expression, and a
    # product with one is formed, and fails, by Expression arithmetic.

    def parse(self) -> Expression:
        terms = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return Expression(terms)

    def expression(self) -> dict:
        terms: dict = {}
        _collect(terms, self.term(), False)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                _collect(terms, self.term(), value == "-")
            else:
                return terms

    def term(self) -> "Expression | tuple":
        out = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.atom()
                try:
                    out = _product(out, rhs) if value == "*" else _quotient(out, rhs)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(str(exc), pos) from None
            else:
                return out

    def atom(self) -> "Expression | tuple":
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            inner = self.atom()
            return (-inner[0], inner[1]) if type(inner) is tuple else -inner
        if kind == "number":
            self.advance()
            return ScalarExact.coerce(int(value)), ()
        if kind == "twore":
            self.advance()
            inner = Expression(self.expression())
            self.expect("op", "]")
            return inner + inner.conjugate()
        if kind == "int":
            self.advance()
            inner = Expression(self.expression())
            self.expect("op", "]")
            try:
                return inner.integrate()
            except ValueError:
                raise ParseError("nested INT[...]", pos) from None
        if kind == "op" and value == "(":
            self.advance()
            terms = self.expression()
            self.expect("op", ")")
            if len(terms) == 1:
                ((integrated, factors), coeff), = terms.items()
                if not integrated:
                    return coeff, factors
            return Expression(terms)
        if kind == "name":
            return self.factor_atom()
        raise ParseError(f"unexpected token {value!r}", pos)

    def factor_atom(self) -> tuple:
        kind, name, pos = self.advance()
        if name == "i":
            return I, ()
        if name == "s3":
            return SQRT3, ()
        if name in SYMBOLS:
            symbol = name
        elif name in ("A", "E", "Q"):
            skind, svalue, spos = self.peek()
            if skind != "suffix":
                raise ParseError(f"symbol {name!r} requires base indices", pos)
            base = svalue[2:-1]
            if base not in ("11", "b1b1"):
                raise ParseError(f"unknown base indices {base!r} for {name}", spos)
            self.advance()
            symbol = name + base
        else:
            raise ParseError(f"unknown symbol {name!r}", pos)
        derivs: tuple[str, ...] = ()
        skind, svalue, spos = self.peek()
        if skind == "suffix":
            letters = svalue[2:-1]
            bad = [l for l in letters if l not in DERIV_LETTERS]
            if bad:
                raise ParseError(f"unknown derivative letter {bad[0]!r}", spos)
            self.advance()
            derivs = tuple(letters)
        return ONE, (Factor(symbol, derivs),)


def _as_expression(value: "Expression | tuple") -> Expression:
    if type(value) is tuple:
        coeff, factors = value
        return Expression({(False, _sorted_factors(factors)): coeff})
    return value


def _collect(terms: dict, value: "Expression | tuple", negate: bool) -> None:
    """terms += value, or -= it when `negate`."""
    pairs = ([((False, _sorted_factors(value[1])), value[0])]
             if type(value) is tuple else value._terms.items())
    for key, coeff in pairs:
        if negate:
            coeff = -coeff
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff


def _product(x: "Expression | tuple", y: "Expression | tuple"):
    if type(x) is tuple and type(y) is tuple:
        # a factor comes with the coefficient ONE itself
        cx, cy = x[0], y[0]
        return (cx if cy is ONE else cy if cx is ONE else cx * cy), x[1] + y[1]
    return _as_expression(x) * _as_expression(y)


def _quotient(x: "Expression | tuple", y: "Expression | tuple"):
    if type(y) is tuple and not y[1]:
        inverse = y[0].inverse()
        return (x[0] * inverse, x[1]) if type(x) is tuple else x * inverse
    return _as_expression(x) / _as_expression(y)


@cache
def parse(text: str) -> Expression:
    """Parse grammar text into an Expression.

    Raises ParseError (with position) on syntax errors or unknown symbols;
    errors are not cached.  Results are cached by text for the life of the
    process, which is safe since an Expression is immutable; the corpus
    holds a few dozen texts.
    """
    return _Parser(text).parse()


class Corpus:
    """Loader for the identity catalog shipped with the package."""

    def __init__(self, text: str):
        self.records: dict[str, dict[str, str]] = {}
        current: dict[str, str] | None = None
        for raw in text.splitlines():
            line = raw.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            m = re.match(r"^\[(?P<id>[^\]]+)\]$", line)
            if m:
                current = {}
                self.records[m.group("id")] = current
                continue
            if current is None:
                raise ValueError(f"corpus line outside a record: {line!r}")
            key, _, value = line.partition(":")
            current[key.strip()] = value.strip()

    @classmethod
    @cache
    def load(cls) -> "Corpus":
        """The shipped catalog, read once per process."""
        data = resources.files("phbochner") / "data" / "identities.corpus"
        return cls(data.read_text())

    def text(self, record: str, fld: str) -> str:
        try:
            return self.records[record][fld]
        except KeyError:
            raise KeyError(f"corpus has no field {fld!r} in record {record!r}")

    def expr(self, record: str, fld: str) -> Expression:
        return parse(self.text(record, fld))
