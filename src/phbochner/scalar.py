"""Exact arithmetic in the number field Q(i, sqrt(3)).

Every coefficient that occurs in the identity catalog lives in this field:
rationals, i, sqrt(3), and combinations such as (sqrt(3) - i)/2 or 4 + i*sqrt(3).
An element (a + b*sqrt3) + i*(c + d*sqrt3) is stored as four integer
numerators over one positive common denominator q, reduced so that
gcd(a, b, c, d, q) = 1.  That form is unique, so equality tests are integer
tuple comparisons, each result costs one gcd, and no floating point ever
enters the symbolic layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RatLike = Union[int, Fraction]


def _frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ScalarExact:
    """Element (a + b*sqrt3) + i*(c + d*sqrt3) of Q(i, sqrt3).

    `_v` is (a, b, c, d, q) with integer numerators, q > 0 and
    gcd(a, b, c, d, q) = 1; the properties a, b, c, d give the components
    as Fractions.
    """

    __slots__ = ("_v",)

    def __new__(cls, a: RatLike = 0, b: RatLike = 0, c: RatLike = 0,
                d: RatLike = 0):
        parts = [_frac(x) for x in (a, b, c, d)]
        q = lcm(*(p.denominator for p in parts))
        # with q the lcm of reduced denominators the form is already reduced
        return _wrap(tuple(p.numerator * (q // p.denominator) for p in parts)
                     + (q,))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ScalarExact is immutable")

    # -- components ----------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._v[0], self._v[4])

    @property
    def b(self) -> Fraction:
        return Fraction(self._v[1], self._v[4])

    @property
    def c(self) -> Fraction:
        return Fraction(self._v[2], self._v[4])

    @property
    def d(self) -> Fraction:
        return Fraction(self._v[3], self._v[4])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x: "ScalarExact | RatLike") -> "ScalarExact":
        if isinstance(x, ScalarExact):
            return x
        if isinstance(x, int):
            return _wrap((x, 0, 0, 0, 1))
        x = _frac(x)
        return _wrap((x.numerator, 0, 0, 0, x.denominator))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = ScalarExact.coerce(other)._v
        if q1 == q2:
            return _make(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _make(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                     c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, q = self._v
        return _wrap((-a, -b, -c, -d, q))

    def __sub__(self, other):
        return self + (-ScalarExact.coerce(other))

    def __rsub__(self, other):
        return (-self) + ScalarExact.coerce(other)

    def __mul__(self, other):
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = ScalarExact.coerce(other)._v
        q = q1 * q2
        # a rational factor scales the numerators (almost every product in
        # the IBP engine has one)
        if not (b2 or c2 or d2):
            return _make(a1 * a2, b1 * a2, c1 * a2, d1 * a2, q)
        if not (b1 or c1 or d1):
            return _make(a1 * a2, a1 * b2, a1 * c2, a1 * d2, q)
        # (x1 + i y1)(x2 + i y2) with x, y in Q(sqrt3); on Q(sqrt3):
        # (a + b s)(a' + b' s) = (aa' + 3bb') + (ab' + a'b) s
        return _make(a1 * a2 + 3 * b1 * b2 - (c1 * c2 + 3 * d1 * d2),
                     a1 * b2 + a2 * b1 - (c1 * d2 + c2 * d1),
                     a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
                     a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2, q)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarExact":
        if self.is_zero():
            raise ZeroDivisionError("ScalarExact division by zero")
        # 1/z = conj(z) / (z * conj(z)); with z = (x + i y)/q and x, y in
        # Z[sqrt3], z * conj(z) = (p + r sqrt3)/q^2 and
        # 1/(p + r sqrt3) = (p - r sqrt3)/(p^2 - 3 r^2); the norm
        # p^2 - 3 r^2 is positive, the product of the two real embeddings of
        # z * conj(z), each a sum of squares
        a, b, c, d, q = self._v
        p = a * a + 3 * b * b + c * c + 3 * d * d
        r = 2 * (a * b + c * d)
        norm = p * p - 3 * r * r
        return _make(q * (a * p - 3 * b * r), q * (b * p - a * r),
                     -q * (c * p - 3 * d * r), -q * (d * p - c * r), norm)

    def __truediv__(self, other):
        return self * ScalarExact.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ScalarExact.coerce(other) * self.inverse()

    # -- involution and predicates ------------------------------------------

    def conjugate(self) -> "ScalarExact":
        a, b, c, d, q = self._v
        return _wrap((a, b, -c, -d, q))

    def is_zero(self) -> bool:
        return self._v == _ZERO_V

    def __bool__(self):
        return self._v != _ZERO_V

    # -- hashing / comparison ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarExact.coerce(other)
        if not isinstance(other, ScalarExact):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals; the
        # normal form is unique, so equal elements hash alike
        a, b, c, d, q = self._v
        return hash(self._v) if b or c or d else hash(Fraction(a, q))

    # -- printing ------------------------------------------------------------

    @staticmethod
    def _rat_str(r: Fraction) -> str:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"

    def parts(self) -> list[tuple[Fraction, str]]:
        """Nonzero basis components as (rational, token) with token in
        {"", "s3", "i", "i*s3"}."""
        q = self._v[4]
        return [(Fraction(n, q), tok)
                for n, tok in zip(self._v, ("", "s3", "i", "i*s3")) if n]

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


_new = object.__new__
_set_v = ScalarExact._v.__set__
_ZERO_V = (0, 0, 0, 0, 1)


def _wrap(v: tuple) -> ScalarExact:
    """A ScalarExact from an (a, b, c, d, q) tuple already in normal form."""
    out = _new(ScalarExact)
    _set_v(out, v)
    return out


def _make(a: int, b: int, c: int, d: int, q: int) -> ScalarExact:
    """(a + b*sqrt3 + i*(c + d*sqrt3))/q for q > 0, reduced by one gcd."""
    g = gcd(a, b, c, d, q)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        q //= g
    return _wrap((a, b, c, d, q))


def sub_mul(x: ScalarExact, f: ScalarExact, y: ScalarExact) -> ScalarExact:
    """x - f*y, reduced by one gcd; `ZERO` itself when it cancels.

    The multiply-subtract of exact elimination, on the (a, b, c, d, q)
    tuples with no intermediate ScalarExact, with the rational fast paths
    of `__mul__`; when all three are rational only one component is formed.
    """
    a1, b1, c1, d1, q1 = x._v
    a2, b2, c2, d2, q2 = f._v
    a3, b3, c3, d3, q3 = y._v
    q = q2 * q3
    if not (b3 or c3 or d3):
        if not (b2 or c2 or d2 or b1 or c1 or d1):
            if q1 == q:
                a = a1 - a2 * a3
            else:
                a = a1 * q - a2 * a3 * q1
                q *= q1
            if not a:
                return ZERO
            g = gcd(a, q)
            return _wrap((a // g, 0, 0, 0, q // g))
        a2, b2, c2, d2 = a2 * a3, b2 * a3, c2 * a3, d2 * a3
    elif not (b2 or c2 or d2):
        a2, b2, c2, d2 = a2 * a3, a2 * b3, a2 * c3, a2 * d3
    else:
        a2, b2, c2, d2 = (a2 * a3 + 3 * b2 * b3 - (c2 * c3 + 3 * d2 * d3),
                          a2 * b3 + a3 * b2 - (c2 * d3 + c3 * d2),
                          a2 * c3 + c2 * a3 + 3 * (b2 * d3 + d2 * b3),
                          a2 * d3 + b2 * c3 + c2 * b3 + d2 * a3)
    if q1 != q:
        a1, b1, c1, d1 = a1 * q, b1 * q, c1 * q, d1 * q
        a2, b2, c2, d2 = a2 * q1, b2 * q1, c2 * q1, d2 * q1
        q *= q1
    a, b, c, d = a1 - a2, b1 - b2, c1 - c2, d1 - d2
    if not (a or b or c or d):
        return ZERO
    return _make(a, b, c, d, q)


ZERO = ScalarExact(0)
ONE = ScalarExact(1)
I = ScalarExact(0, 0, 1, 0)
SQRT3 = ScalarExact(0, 1, 0, 0)


def rational(p: int, q: int = 1) -> ScalarExact:
    return ScalarExact(Fraction(p, q))
