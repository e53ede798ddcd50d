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

`Corpus` reads the identity catalog, whose fields are texts in this grammar.
"""

from __future__ import annotations

import re
from functools import cache
from importlib import resources

from .expr import DERIV_LETTERS, Expression, Factor, SYMBOLS
from .scalar import I, SQRT3

__all__ = ["parse", "ParseError", "CatalogError", "Corpus"]


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
    # Every atom is an Expression, and products, quotients and sums are
    # Expression arithmetic; its errors are reported at the operator.

    def parse(self) -> Expression:
        out = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return out

    def expression(self) -> Expression:
        out = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                try:
                    out = out + rhs if value == "+" else out - rhs
                except ValueError as exc:
                    raise ParseError(str(exc), pos) from None
            else:
                return out

    def term(self) -> Expression:
        out = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.atom()
                try:
                    out = out * rhs if value == "*" else out / rhs
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(str(exc), pos) from None
            else:
                return out

    def atom(self) -> Expression:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.atom()
        if kind == "number":
            self.advance()
            return Expression.scalar(int(value))
        if kind == "twore":
            self.advance()
            inner = self.expression()
            self.expect("op", "]")
            return inner + inner.conjugate()
        if kind == "int":
            self.advance()
            inner = self.expression()
            self.expect("op", "]")
            try:
                return inner.integrate()
            except ValueError:
                raise ParseError("nested INT[...]", pos) from None
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expression()
            self.expect("op", ")")
            return inner
        if kind == "name":
            return self.factor_atom()
        raise ParseError(f"unexpected token {value!r}", pos)

    def factor_atom(self) -> Expression:
        kind, name, pos = self.advance()
        if name == "i":
            return Expression.scalar(I)
        if name == "s3":
            return Expression.scalar(SQRT3)
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
    """Parse grammar text into an Expression.

    Raises ParseError (with position) on syntax errors or unknown symbols;
    errors are not cached.  Results are cached by text for the life of the
    process, which is safe since an Expression is immutable; the corpus
    holds a few dozen texts.
    """
    return _Parser(text).parse()


class CatalogError(ValueError):
    """A catalog record or field that is missing or does not parse."""


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
                raise CatalogError(f"catalog line outside a record: {line!r}")
            key, _, value = line.partition(":")
            current[key.strip()] = value.strip()

    @classmethod
    @cache
    def load(cls) -> "Corpus":
        """The shipped catalog, read once per process."""
        data = resources.files("phbochner") / "data" / "identities.corpus"
        return cls(data.read_text())

    def expr(self, record: str, fld: str, read=parse):
        """read(the text of a field), by default its Expression.  A missing
        record or field, or a text that `read` refuses with a ValueError (a
        ParseError is one), raises CatalogError naming both."""
        try:
            text = self.records[record][fld]
        except KeyError:
            raise CatalogError(f"catalog [{record}] {fld}: missing") from None
        try:
            return read(text)
        except ValueError as exc:
            raise CatalogError(f"catalog [{record}] {fld}: {exc}") from None
