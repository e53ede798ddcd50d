"""Parser for the expression grammar.

Grammar (documented in README):

    expression := ['-'] term (('+' | '-') term)*
    term       := atom (('*' | '/') atom)*
    atom       := NUMBER | 'i' | 's3' | FACTOR | '(' expression ')'
                | 'INT[' expression ']' | '2Re[' expression ']' | '-' atom
    FACTOR     := SYMBOL [ '_{' [1b0]* '}' ]

Symbols: f R A11 Ab1b1 E11 Eb1b1 Q11 Qb1b1 W Wb (W is a cube root of
A11_{,1}; plus g/gb, a complex scalar, the free parameter of the 3.7 tight
family, and LAM, RHO, the free real parameters of Lemma 3.1).  The derivative alphabet is 1, b (= 1-bar), 0; the leftmost
letter is applied first.  '2Re[X]' is expanded to X + conj(X) at parse time;
there is no Re/Im node in the AST.  Division is only by scalar-valued
subexpressions, and a sum is plain or of integrals INT[...], never both.

`Corpus` reads the identity catalog, whose fields are texts in this grammar,
each of the kind that the schema `FIELDS` declares for it.
"""

from __future__ import annotations

import operator
import re
from functools import cache
from importlib import resources

from .expr import DERIV_LETTERS, Expression, Factor, SYMBOLS
from .scalar import I, SQRT3

__all__ = ["parse", "ParseError", "CatalogError", "Corpus", "FIELDS", "READERS"]


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
    # `bad` takes any other character, so the matches tile the text
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}
_CONSTANTS = {"i": I, "s3": SQRT3}
# opening token -> (its closing bracket, the atom made of what it encloses)
_BRACKETS = {"(": (")", lambda e: e), "INT[": ("]", Expression.integrate),
             "2Re[": ("]", lambda e: e + e.conjugate())}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    # -- grammar ------------------------------------------------------------
    #
    # Every atom is an Expression, and products, quotients and sums are
    # Expression arithmetic; its errors are reported at the operator.

    def parse(self) -> Expression:
        out = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return out

    def expression(self) -> Expression:
        return self.chain(self.term, "+-")

    def term(self) -> Expression:
        return self.chain(self.atom, "*/")

    def chain(self, operand, ops: str) -> Expression:
        """operand (op operand)*, for op in `ops`, left to right."""
        out = operand()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in ops:
                return out
            self.advance()
            rhs = operand()
            try:
                out = _ARITHMETIC[value](out, rhs)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), pos) from None

    def atom(self) -> Expression:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.atom()
        if kind == "number":
            self.advance()
            return Expression.scalar(int(value))
        if value in _BRACKETS:
            close, make = _BRACKETS[value]
            self.advance()
            inner = self.expression()
            _, found, at = self.advance()
            if found != close:
                raise ParseError(f"expected {close}, found {found!r}", at)
            try:
                return make(inner)
            except ValueError:  # only INT[...] refuses what it encloses
                raise ParseError("nested INT[...]", pos) from None
        if kind == "name":
            return self.factor_atom()
        raise ParseError(f"unexpected token {value!r}", pos)

    def factor_atom(self) -> Expression:
        kind, name, pos = self.advance()
        if name in _CONSTANTS:
            return Expression.scalar(_CONSTANTS[name])
        if name not in SYMBOLS:
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
        return Expression.from_factor(Factor(name, derivs))


@cache
def parse(text: str) -> Expression:
    """Parse grammar text into an Expression, or raise ParseError, with
    the position, on a syntax error or an unknown symbol.  Results, never
    errors, are cached by text for the life of the process, which is safe
    since an Expression is immutable; the catalog holds a few dozen texts."""
    return _Parser(text).parse()


def parse_plain(text: str) -> Expression:
    """parse(text), refused with a ValueError if it is an integral."""
    e = parse(text)
    if e.integrated:
        raise ValueError("a plain sum is expected, not an integral")
    return e


def parse_integral(text: str) -> Expression:
    """parse(text), refused with a ValueError unless it is an integral (or
    zero) each of whose terms has balance 0: a scalar, as the equality
    engine decides it."""
    e = parse(text)
    if e._terms and not e.integrated:
        raise ValueError("an integral INT[...] is expected, not a plain sum")
    for factors, coeff in e._terms.items():
        balance = sum(f.alpha() for f in factors)
        if balance:
            raise ValueError(f"{Expression({factors: coeff}, True)} has "
                             f"balance {balance}, not the 0 of a scalar")
    return e


def parse_substitution(text: str) -> dict[Factor, Expression]:
    """A substitution "X = text, ..." as {X: value}, each pair's conjugate
    added; a left side that is not one factor X, coefficient 1, or a value
    that is an integral raises ValueError.  Its `get` is a replacement for
    `Expression.substitute`, so a value for Eb1b1 leaves Eb1b1_{1} as is."""
    out = {}
    for pair in text.split(","):
        name, _, value = pair.partition("=")
        left = parse(name)
        factors = [key[0] for key in left._terms if len(key) == 1]
        if len(factors) != 1 or left != Expression.from_factor(factors[0]):
            raise ValueError(f"the left side {name.strip()!r} is not a "
                             "single factor")
        out[factors[0]] = parse_plain(value)
        out[factors[0].conjugate()] = out[factors[0]].conjugate()
    return out


# The reader of each kind of catalog field; a display reads as its text.
READERS = {"plain": parse_plain, "integral": parse_integral,
           "substitution": parse_substitution, "display": str}

# The catalog's schema: each record's fields and their kinds.  Every record
# also holds its display `latex`.
FIELDS = {record: {"latex": "display", **fields} for record, fields in {
    "2.3": {"target": "plain"},
    "2.7": {"target": "plain"},
    "2.8": {"integrals": "integral"},
    "2.ibp": {"lhs": "integral", "rhs": "integral"},
    "2.11": {"integrals": "integral"},
    "3.1": {"rhs": "plain"},
    "3.2": {"lhs": "plain", "rhs": "plain"},
    "3.3": {"start": "integral", "mid": "integral", "final": "integral"},
    "3.4": {"integrand": "integral"},
    "3.5": {"integrand": "integral", "slice": "plain"},
    "3.6": {"lhs": "integral", "rhs": "integral", "square": "integral"},
    "3.7": {"lhs": "plain", "rhs": "plain", "square": "plain",
            "cube_root": "substitution", "tight": "substitution"},
    "3.8": {"integrand_exact": "integral"},
}.items()}


class CatalogError(ValueError):
    """A catalog line off the schema, or a field missing or refused."""


class Corpus:
    """Loader for the identity catalog shipped with the package.  A header
    or key that repeats, a line with no `:` and a record or field that
    `FIELDS` does not declare raise CatalogError naming the line."""

    def __init__(self, text: str):
        self.records: dict[str, dict[str, str]] = {}
        record = ident = None
        for n, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            header = re.fullmatch(r"\[([^\]]+)\]", line)
            key, colon, value = (part.strip() for part in line.partition(":"))
            if header:
                key = ident = header.group(1)
                into, declared = self.records, FIELDS
                value = record = {}
            else:
                into, declared = record, FIELDS.get(ident, ())
            problem = ("outside a record" if into is None else
                       "no ':'" if not (header or colon) else
                       f"{key!r} repeats" if key in into else
                       f"{key!r} is not declared" if key not in declared
                       else None)
            if problem:
                raise CatalogError(f"catalog line {n}: {problem}: {line!r}")
            into[key] = value

    @classmethod
    @cache
    def load(cls) -> "Corpus":
        """The shipped catalog, read once per process."""
        data = resources.files("phbochner") / "data" / "identities.corpus"
        return cls(data.read_text())

    def expr(self, record: str, fld: str):
        """A field read by the reader of its kind in `FIELDS`.  A missing
        record or field, or a text that the reader refuses with a ValueError
        (a ParseError is one), raises CatalogError naming both."""
        try:
            text = self.records[record][fld]
        except KeyError:
            raise CatalogError(f"catalog [{record}] {fld}: missing") from None
        try:
            return READERS[FIELDS[record][fld]](text)
        except ValueError as exc:
            raise CatalogError(f"catalog [{record}] {fld}: {exc}") from None
