"""Structural laws of the expression layer: collection, conjugation, weight."""

import random

import pytest

from phbochner.expr import Expression, Factor, Term
from phbochner.parser import parse
from phbochner.scalar import I, ScalarExact

from test_scalar import random_scalar

SYMS = ["f", "R", "A11", "Ab1b1", "E11", "Eb1b1"]
LETTERS = ["1", "b", "0"]


def random_expression(rng, nterms=5, integrated=False):
    out = Expression.zero()
    for _ in range(nterms):
        nfac = rng.randint(1, 3)
        factors = [
            Factor(rng.choice(SYMS),
                   tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3))))
            for _ in range(nfac)
        ]
        out = out + Expression.from_term(random_scalar(rng), factors, integrated)
    return out


def coefficient(e, factors, integrated=False):
    """The coefficient of one monomial of e, zero if e has none."""
    [(key, _)] = Expression.from_term(1, factors, integrated).items()
    return dict(e.items()).get(key, ScalarExact(0))


def test_collection_confluence():
    rng = random.Random(7)
    for _ in range(50):
        parts = []
        for _ in range(8):
            f = Factor(rng.choice(SYMS),
                       tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 2))))
            parts.append(Expression.from_term(random_scalar(rng), [f]))
        total = Expression.zero()
        for p in parts:
            total = total + p
        shuffled = parts[:]
        rng.shuffle(shuffled)
        total2 = Expression.zero()
        for p in shuffled:
            total2 = total2 + p
        assert total == total2


def test_sum_matches_repeated_addition():
    # a term that cancels and comes back moves to the end, as with +
    f, r = parse("f"), parse("R")
    parts = [f, r, -f, f, parse("A11") - r, r]
    total = Expression.zero()
    for p in parts:
        total = total + p
    summed = Expression.sum(parts)
    assert summed == total
    assert [key[0].symbol for key in summed._terms] == ["f", "A11", "R"]
    rng = random.Random(11)
    for _ in range(50):
        parts = [random_expression(rng, 3) for _ in range(6)]
        parts += [-p for p in parts[:2]] + parts[:1]
        total = Expression.zero()
        for p in parts:
            total = total + p
        summed = Expression.sum(parts)
        assert list(summed._terms.items()) == list(total._terms.items())
    assert Expression.sum([]).is_zero()


def test_zero_coefficients_dropped():
    e = parse("A11*f") - parse("A11*f")
    assert e.is_zero()
    assert len(e) == 0


def test_conjugate_is_involutive_ring_hom():
    rng = random.Random(21)
    for _ in range(30):
        a = random_expression(rng)
        b = random_expression(rng)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_real_symbols_conjugate_to_themselves():
    assert Factor("f", ("1",)).conjugate() == Factor("f", ("b",))
    assert Factor("R", ("1", "0")).conjugate() == Factor("R", ("b", "0"))
    assert Factor("A11", ("b",)).conjugate() == Factor("Ab1b1", ("1",))
    assert Factor("E11").conjugate() == Factor("Eb1b1")
    # conj fixes real scalars up to the index flip
    e = parse("R_{1} + R_{b}")
    assert e.conjugate() == e


def test_spec_weight_examples():
    assert Term(ScalarExact(1), (Factor("f", ("1", "1", "b", "b")),), False).weight() == 4
    assert Term(ScalarExact(1), (Factor("f", ("0", "0")),), False).weight() == 4
    assert Term(ScalarExact(1), (Factor("A11"), Factor("Eb1b1")), False).weight() == 2


def test_expression_is_real():
    e = parse("2Re[ i*A11*f ]")
    assert e == e.conjugate()
    e = parse("i*A11*f")
    assert e != e.conjugate()


def test_integration_flag_rules():
    e = parse("A11*f")
    ie = e.integrate()
    assert ie.integrated
    with pytest.raises(ValueError):
        ie.integrate()
    with pytest.raises(ValueError):
        ie * ie
    with pytest.raises(ValueError):
        ie * e
    # scalars can multiply integrated expressions
    assert (ie * 2) == (e * 2).integrate()
    assert (ie * I).conjugate() == (e.conjugate() * (-I)).integrate()


def test_plain_and_integrated_sums_do_not_add():
    e = parse("A11*f")
    ie = e.integrate()
    for make in (lambda: e + ie, lambda: ie - e,
                 lambda: Expression.sum([e, ie]),
                 lambda: Expression.sum([ie, -ie, e, ie])):
        with pytest.raises(ValueError):
            make()
    # zero of either kind is the empty, plain sum
    assert (ie - ie) == (e - e) == Expression.zero()
    assert not (ie - ie).integrated
    assert Expression.zero() + ie == ie == Expression.sum([e, -e, ie])


def test_coefficient_lookup():
    e = parse("(29/48)*E11_{b1}*Eb1b1_{1b}").integrate()
    got = coefficient(e, (Factor("E11", ("b", "1")),
                          Factor("Eb1b1", ("1", "b"))), integrated=True)
    assert got == ScalarExact.coerce(29) / 48


def test_scalar_value():
    assert parse("(1/2)*i + (1/2)*i").scalar_value() == I
    with pytest.raises(ValueError):
        parse("A11").scalar_value()


def test_substitute_matches_whole_factors():
    # a value for Eb1b1 leaves its derivative Eb1b1_{1} as it is
    e = parse("Eb1b1*Eb1b1_{1} + 2*Eb1b1")
    values = {Factor("Eb1b1"): parse("Wb*g")}
    assert e.substitute(values.get) == parse("Wb*g*Eb1b1_{1} + 2*Wb*g")


def test_substitute_keeps_integrated_terms_integrated():
    e = parse("INT[R*f*f] + INT[E11*Eb1b1]")
    got = e.substitute({Factor("f"): parse("1 + R")}.get)
    assert got == parse("INT[R + 2*R*R + R*R*R] + INT[E11*Eb1b1]")
    assert got.integrated
    # a value is plain: an integral in place of a factor is refused
    with pytest.raises(ValueError):
        parse("f*R").substitute({Factor("f"): parse("INT[g]")}.get)
