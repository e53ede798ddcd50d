"""Exact arithmetic in the number field Q(i, sqrt(3)).

Every coefficient that occurs in the identity catalog lives in this field:
rationals, i, sqrt(3), and combinations such as (sqrt(3) - i)/2 or 4 + i*sqrt(3).
Elements are stored as (a + b*sqrt3) + i*(c + d*sqrt3) with exact rational
components, so equality tests are exact and no floating point ever enters
the symbolic layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]


def _frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ScalarExact:
    """Element (a + b*sqrt3) + i*(c + d*sqrt3) of Q(i, sqrt3)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, c: RatLike = 0, d: RatLike = 0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ScalarExact is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x: "ScalarExact | RatLike") -> "ScalarExact":
        if isinstance(x, ScalarExact):
            return x
        return ScalarExact(_frac(x))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        o = ScalarExact.coerce(other)
        return ScalarExact(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExact(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-ScalarExact.coerce(other))

    def __rsub__(self, other):
        return (-self) + ScalarExact.coerce(other)

    def __mul__(self, other):
        o = ScalarExact.coerce(other)
        # a rational factor scales the components (almost every product in
        # the IBP engine has one)
        if not (o.b or o.c or o.d):
            r = o.a
            return ScalarExact(self.a * r, self.b * r, self.c * r, self.d * r)
        if not (self.b or self.c or self.d):
            r = self.a
            return ScalarExact(r * o.a, r * o.b, r * o.c, r * o.d)
        # (x1 + i y1)(x2 + i y2) with x, y in Q(sqrt3); on Q(sqrt3):
        # (a + b s)(a' + b' s) = (aa' + 3bb') + (ab' + a'b) s
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        ra = a1 * a2 + 3 * b1 * b2 - (c1 * c2 + 3 * d1 * d2)
        rb = a1 * b2 + a2 * b1 - (c1 * d2 + c2 * d1)
        ia = a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2)
        ib = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return ScalarExact(ra, rb, ia, ib)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarExact":
        if self.is_zero():
            raise ZeroDivisionError("ScalarExact division by zero")
        # 1/z = conj(z) / (z * conj(z)); the denominator lies in Q(sqrt3)
        conj = self.conjugate()
        den = self * conj  # real: (p + q sqrt3) with c = d = 0
        p, q = den.a, den.b
        # 1/(p + q sqrt3) = (p - q sqrt3)/(p^2 - 3 q^2)
        norm = p * p - 3 * q * q
        inv_den = ScalarExact(p / norm, -q / norm)
        return conj * inv_den

    def __truediv__(self, other):
        return self * ScalarExact.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ScalarExact.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- involution and predicates ------------------------------------------

    def conjugate(self) -> "ScalarExact":
        return ScalarExact(self.a, self.b, -self.c, -self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self):
        return not self.is_zero()

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    def to_complex(self) -> complex:
        s3 = 3.0 ** 0.5
        return complex(float(self.a) + float(self.b) * s3,
                       float(self.c) + float(self.d) * s3)

    # -- hashing / comparison ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarExact.coerce(other)
        if not isinstance(other, ScalarExact):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    # -- printing ------------------------------------------------------------

    @staticmethod
    def _rat_str(r: Fraction) -> str:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"

    def parts(self) -> list[tuple[Fraction, str]]:
        """Nonzero basis components as (rational, token) with token in
        {"", "s3", "i", "i*s3"}."""
        out = []
        for r, tok in ((self.a, ""), (self.b, "s3"), (self.c, "i"), (self.d, "i*s3")):
            if r:
                out.append((r, tok))
        return out

    def __str__(self):
        parts = self.parts()
        if not parts:
            return "0"
        pieces = []
        for k, (r, tok) in enumerate(parts):
            sign = "-" if r < 0 else "+"
            mag = abs(r)
            if tok and mag == 1:
                body = tok
            elif tok:
                body = f"{self._rat_str(mag)}*{tok}"
            else:
                body = self._rat_str(mag)
            if k == 0:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"ScalarExact({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


ZERO = ScalarExact(0)
ONE = ScalarExact(1)
I = ScalarExact(0, 0, 1, 0)
SQRT3 = ScalarExact(0, 1, 0, 0)


def rational(p: int, q: int = 1) -> ScalarExact:
    return ScalarExact(Fraction(p, q))
