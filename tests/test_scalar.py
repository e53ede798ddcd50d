"""Field axioms and exact arithmetic for the coefficient field Q(i, sqrt3)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from phbochner.scalar import (I, ONE, SQRT3, ZERO, ScalarExact, rational,
                              sub_mul)


def random_scalar(rng, max_den=7):
    def fr():
        return Fraction(rng.randint(-6, 6), rng.randint(1, max_den))
    return ScalarExact(fr(), fr(), fr(), fr())


def test_constants():
    assert I * I == ScalarExact(-1)
    assert SQRT3 * SQRT3 == ScalarExact(3)
    assert ONE + ZERO == ONE


def test_field_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (b / a) * a == b


def test_conjugation():
    rng = random.Random(99)
    assert I.conjugate() == -I
    assert SQRT3.conjugate() == SQRT3
    for _ in range(100):
        a, b = random_scalar(rng), random_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_exact_equality_no_floats():
    third = rational(1, 3)
    assert third + third + third == ONE
    assert hash(rational(2, 4)) == hash(rational(1, 2))


def test_hash_agrees_with_equality_to_rationals():
    # equal objects hash alike, so sets and dict keys merge them
    assert ScalarExact(1) == 1 and hash(ScalarExact(1)) == hash(1)
    assert rational(1, 2) == Fraction(1, 2)
    assert hash(rational(1, 2)) == hash(Fraction(1, 2))
    assert len({ScalarExact(1), 1}) == 1
    assert len({rational(-3, 4), Fraction(-3, 4), ZERO, 0}) == 2


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_predicates_and_parts():
    z = ScalarExact(Fraction(1, 2), 0, 1, 0)
    assert z.conjugate() != z
    assert z.conjugate() + z == ScalarExact(1)


def test_str_forms():
    assert str(rational(29, 48)) == "29/48"
    assert str(-I) == "-i"
    assert str(SQRT3 * rational(-2)) == "-2*s3"
    assert str(rational(4) + I * SQRT3) == "4 + i*s3"


# ---------------------------------------------------------------------------
# integer-numerator representation against the component-wise Fraction
# formulas
# ---------------------------------------------------------------------------

def _ref_mul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + 3 * b1 * b2 - (c1 * c2 + 3 * d1 * d2),
            a1 * b2 + a2 * b1 - (c1 * d2 + c2 * d1),
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def _ref_inverse(x):
    a, b, c, d = x
    conj = (a, b, -c, -d)
    p, q, _, _ = _ref_mul(x, conj)
    norm = p * p - 3 * q * q
    return _ref_mul(conj, (p / norm, -q / norm, Fraction(0), Fraction(0)))


def _parts(z):
    return (z.a, z.b, z.c, z.d)


def _normal(z):
    *nums, q = z._v
    return q > 0 and gcd(*nums, q) == 1


def _given_pairs(check):
    """Run check(x, y) on generated pairs of Fraction 4-tuples."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    comp = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 4)))
    elem = st.tuples(comp, comp, comp, comp)
    hyp.settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)(hyp.given(elem, elem)(check))()


def test_ops_match_fraction_reference():
    def check(x, y):
        zx, zy = ScalarExact(*x), ScalarExact(*y)
        want = {
            "+": tuple(p + q for p, q in zip(x, y)),
            "-": tuple(p - q for p, q in zip(x, y)),
            "*": _ref_mul(x, y),
            "conj": (x[0], x[1], -x[2], -x[3]),
        }
        got = {"+": zx + zy, "-": zx - zy, "*": zx * zy,
               "conj": zx.conjugate()}
        if any(y):
            want["/"] = _ref_mul(x, _ref_inverse(y))
            want["inv"] = _ref_inverse(y)
            got["/"] = zx / zy
            got["inv"] = zy.inverse()
        for op, z in got.items():
            assert _parts(z) == want[op], op
            assert _normal(z), op
            # equal values give equal objects and equal hashes
            rebuilt = ScalarExact(*want[op])
            assert z == rebuilt and hash(z) == hash(rebuilt), op
    _given_pairs(check)


def test_rational_operands_match_reference():
    def check(x, y):
        r = ScalarExact(x[0])
        for z, want in ((r * ScalarExact(*y), _ref_mul((x[0], 0, 0, 0), y)),
                        (ScalarExact(*y) * r, _ref_mul(y, (x[0], 0, 0, 0))),
                        (ScalarExact(*y) * x[0], _ref_mul(y, (x[0], 0, 0, 0))),
                        (x[0] + ScalarExact(*y), (x[0] + y[0],) + y[1:])):
            assert _parts(z) == want and _normal(z)
    _given_pairs(check)


# ---------------------------------------------------------------------------
# the fused multiply-subtract kernel x - f*y
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kinds", [
    ("rational", "rational", "rational"),
    ("irrational", "rational", "rational"),
    ("rational", "rational", "irrational"),
    ("rational", "irrational", "rational"),
    ("irrational", "irrational", "irrational"),
    ("rational", "irrational", "irrational"),
])
def test_sub_mul_matches_reference(kinds):
    """x - f*y exactly and in reduced form, for x, f, y of the given kinds,
    over x's own denominator and over the product's."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    comp = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 4)))
    kind = {"rational": st.tuples(comp, st.just(Fraction(0)),
                                  st.just(Fraction(0)), st.just(Fraction(0))),
            "irrational": st.tuples(comp, comp, comp, comp).filter(
                lambda t: any(t[1:]))}

    def check(x, f, y):
        zx, zf, zy = ScalarExact(*x), ScalarExact(*f), ScalarExact(*y)
        q = zf._v[4] * zy._v[4]
        # x's b, c, d numerators over the product's denominator q; a = 1/q
        # keeps q from reducing
        same = ScalarExact(Fraction(1, q),
                           *(Fraction(n, q) for n in zx._v[1:4]))
        assert same._v[4] == q
        prod = _ref_mul(f, y)
        for base in (zx, same):
            got = sub_mul(base, zf, zy)
            want = tuple(p - r for p, r in zip(_parts(base), prod))
            assert _parts(got) == want and _normal(got)
            assert got == base - zf * zy
            assert (got is ZERO) == (not any(want))
        assert sub_mul(zf * zy, zf, zy) is ZERO
        assert sub_mul(zy, ONE, zy) is ZERO

    hyp.settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)(hyp.given(*(kind[k] for k in kinds))(check))()


def test_sub_mul_cancellation_gives_the_zero_singleton():
    half, third = rational(1, 2), rational(1, 3)
    assert sub_mul(rational(1, 6), half, third) is ZERO
    assert sub_mul(I * SQRT3, I, SQRT3) is ZERO
    assert sub_mul(ZERO, ZERO, I) is ZERO
    assert sub_mul(ZERO, I, I)._v == (1, 0, 0, 0, 1)


def test_zero_and_rationals_have_one_form():
    assert ZERO._v == (0, 0, 0, 0, 1)
    assert (rational(3, 7) - rational(3, 7))._v == ZERO._v
    assert rational(6, 4)._v == (3, 0, 0, 0, 2)
    assert ScalarExact(Fraction(1, 2), Fraction(1, 3))._v == (3, 2, 0, 0, 6)
    assert ScalarExact(Fraction(-2, 4)) == Fraction(-1, 2)
    assert ONE == 1 and ONE * 2 == 2


@pytest.mark.parametrize("value, text, rep", [
    (ZERO, "0",
     "ScalarExact(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"),
    (rational(-29, 48), "-29/48",
     "ScalarExact(Fraction(-29, 48), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"),
    (ScalarExact(0, 1, 0, 0), "s3",
     "ScalarExact(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))"),
    (ScalarExact(4, 0, 0, 1), "4 + i*s3",
     "ScalarExact(Fraction(4, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))"),
    (ScalarExact(Fraction(1, 2), Fraction(-1, 3), Fraction(-2, 3),
                 Fraction(5, 6)),
     "1/2 - 1/3*s3 - 2/3*i + 5/6*i*s3",
     "ScalarExact(Fraction(1, 2), Fraction(-1, 3), Fraction(-2, 3), Fraction(5, 6))"),
    (ScalarExact(0, 0, -1, -2), "-i - 2*i*s3",
     "ScalarExact(Fraction(0, 1), Fraction(0, 1), Fraction(-1, 1), Fraction(-2, 1))"),
])
def test_print_bytes(value, text, rep):
    assert str(value) == text
    assert repr(value) == rep
