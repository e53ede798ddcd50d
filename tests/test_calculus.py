"""Rewriting engine: commutation, canonicalization, integration by parts."""

import random

import pytest

import phbochner.calculus as calc
from phbochner.calculus import (CalculusError, canonicalize, check_certificate,
                                commute_swap, differentiate, equal_mod_ibp,
                                ibp_residual)
from phbochner.expr import Expression, Factor, Term
from phbochner.parser import ParseError, parse
from phbochner.scalar import I, ONE, ZERO, ScalarExact, sub_mul

from test_expr import random_expression


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_leibniz():
    assert differentiate(parse("A11*Eb1b1"), "1") \
        == parse("A11_{1}*Eb1b1 + A11*Eb1b1_{1}")


def test_derivative_of_constant():
    assert differentiate(parse("1"), "1").is_zero()
    assert differentiate(parse("i + s3"), "0").is_zero()


def test_differentiate_integrated_errors():
    with pytest.raises(CalculusError):
        differentiate(parse("INT[ f ]"), "1")


def test_second_derivative_group():
    # (i/3)(A11 Eb1b1)_{,11} expands to the three-monomial sum with a 2
    got = differentiate(parse("A11*Eb1b1"), ("1", "1")) * (I / 3)
    want = parse("(1/3)*i*( A11_{11}*Eb1b1 + 2*A11_{1}*Eb1b1_{1} + A11*Eb1b1_{11} )")
    assert got == want


# ---------------------------------------------------------------------------
# commutation
# ---------------------------------------------------------------------------

def test_swap_examples():
    assert commute_swap(Factor("f", ("1", "b")), 0) == parse("f_{b1} + i*f_{0}")
    assert commute_swap(Factor("f", ("0", "1")), 0) == parse("f_{10} + f_{b}*A11")
    # alpha = 2 at the swap site for the torsion coefficient
    assert commute_swap(Factor("A11", ("1", "b")), 0) \
        == parse("A11_{b1} + i*A11_{0} + 2*A11*R")


def test_swap_same_letter_is_identity():
    f = Factor("f", ("1", "1"))
    assert commute_swap(f, 0) == Expression.from_factor(f)


def test_swap_position_range():
    with pytest.raises(CalculusError):
        commute_swap(Factor("f", ("1",)), 0)


def test_swap_with_tail_differentiates_corrections():
    # E11_{b1 b} = E11_{1b b} - i E11_{0 b} - 2 (E11 R)_{,b}
    got = commute_swap(Factor("E11", ("b", "1", "b")), 0)
    want = parse("E11_{1bb} - i*E11_{0b} - 2*( E11_{b}*R + E11*R_{b} )")
    assert got == want


def test_canonicalize_spec_examples():
    assert canonicalize(parse("f_{b1}")) == parse("f_{1b} - i*f_{0}")
    e = parse("f_{11bb} + i*R*f_{0}")
    assert canonicalize(e) == e  # fixpoint on canonical input


def test_canonicalize_frozen_fourth_order():
    # torsion-free part of the canonical expansion of E11_{,1bar 1 1bar 1}
    got = canonicalize(parse("E11_{b1b1}")).drop_symbols({"A11", "Ab1b1"})
    want = parse(
        "E11_{11bb} - 3*i*E11_{1b0} - E11_{00} - 7*R*E11_{1b}"
        " - 5*R_{b}*E11_{1} - 2*R_{1}*E11_{b} + 4*i*R*E11_{0}"
        " + 4*i*R_{0}*E11 - 2*R_{1b}*E11 + 4*R*R*E11")
    assert got == want


def test_canonicalize_frozen_fourth_order_bb11():
    got = canonicalize(parse("E11_{bb11}")).drop_symbols({"A11", "Ab1b1"})
    want = parse(
        "E11_{11bb} - 4*i*E11_{1b0} - 2*E11_{00} - 8*R*E11_{1b}"
        " - 5*R_{b}*E11_{1} - 3*R_{1}*E11_{b} + 7*i*R*E11_{0}"
        " + 6*i*R_{0}*E11 - 2*R_{1b}*E11 + 6*R*R*E11")
    assert got == want


def _random_schedule_canonicalize(e, rng):
    """Sort derivative strings by randomly chosen adjacent swaps."""
    current = e
    for _ in range(4000):
        candidates = []
        for factors, coeff in current.items():
            for fi, f in enumerate(factors):
                for p in range(len(f.derivs) - 1):
                    a, b = f.derivs[p], f.derivs[p + 1]
                    if (a, b) in (("b", "1"), ("0", "1"), ("0", "b")):
                        candidates.append((factors, coeff, fi, p))
        if not candidates:
            return current
        factors, coeff, fi, p = rng.choice(candidates)
        integ = current.integrated
        swapped = commute_swap(factors[fi], p)
        prod = Expression.scalar(coeff) * swapped
        for k, f in enumerate(factors):
            if k != fi:
                prod = prod * Expression.from_factor(f)
        if integ:
            prod = prod.integrate()
        current = (current - Expression.from_term(coeff, factors, integ)) + prod
    raise AssertionError("random schedule did not terminate")


def test_canonicalize_confluence_random_schedules():
    rng = random.Random(11)
    for _ in range(10):
        e = random_expression(rng, nterms=2)
        assert _random_schedule_canonicalize(e, rng) == canonicalize(e)


def test_canonicalize_commutes_with_integration():
    # one expansion per factor tuple serves a term plain and integrated
    rng = random.Random(13)
    for _ in range(30):
        e = random_expression(rng, nterms=3)
        assert canonicalize(e.integrate()) == canonicalize(e).integrate()


def test_commute_swap_preserves_weight():
    rng = random.Random(5)
    syms = ["f", "R", "A11", "E11", "Eb1b1"]
    for _ in range(100):
        derivs = tuple(rng.choice(["1", "b", "0"]) for _ in range(rng.randint(2, 5)))
        f = Factor(rng.choice(syms), derivs)
        pos = rng.randint(0, len(derivs) - 2)
        w = f.weight()
        for t in commute_swap(f, pos).term_list():
            assert t.weight() == w


# ---------------------------------------------------------------------------
# integration by parts
# ---------------------------------------------------------------------------

def _moved(a: str, b: str) -> None:
    """b is a with one derivative moved by hand: equal modulo IBP, with a
    certificate."""
    a, b = parse(a), parse(b)
    ok, trace = equal_mod_ibp(a, b)
    assert ok and check_certificate(a, b, trace)


def test_ibp_worked_example():
    # the repeated factor doubles the moved term, and its sign matters
    _moved("INT[ Ab1b1_{11}*f*f ]", "INT[ -2*Ab1b1_{1}*f_{1}*f ]")
    assert not equal_mod_ibp(parse("INT[ Ab1b1_{11}*f*f ]"),
                             parse("INT[ 2*Ab1b1_{1}*f_{1}*f ]"))[0]


def test_ibp_single_factor_divergence():
    _moved("INT[ R_{1b} ]", "0")


def test_ibp_involution():
    # two factors: the derivative moves across, and back
    _moved("INT[ E11_{b}*Eb1b1_{1} ]", "INT[ -E11*Eb1b1_{1b} ]")
    _moved("INT[ -E11*Eb1b1_{1b} ]", "INT[ E11_{b}*Eb1b1_{1} ]")
    # three factors: it moves onto each of the others
    _moved("INT[ R*E11_{b}*Eb1b1_{1} ]",
           "INT[ -R_{b}*E11*Eb1b1_{1} - R*E11*Eb1b1_{1b} ]")


@pytest.mark.parametrize("a, b", [
    ("INT[ R_{1} ]", "0"),
    ("INT[ E11_{1}*Eb1b1 ]", "INT[ -E11*Eb1b1_{1} ]"),
    # one class of balance 0 and one of balance -1
    ("INT[ R*f - R_{b} ]", "INT[ 2*R*f ]"),
])
def test_ibp_refuses_nonzero_balance(a, b):
    # an integral of balance != 0 changes under a rotation of the frame, so
    # it is no scalar and the engine decides nothing about it
    with pytest.raises(CalculusError, match="balance"):
        ibp_residual(parse(a), parse(b))


# ---------------------------------------------------------------------------
# equality modulo IBP
# ---------------------------------------------------------------------------

def test_equal_mod_ibp_syntactic():
    a = parse("INT[ R*f_{1}*f_{b} ]")
    ok, _ = equal_mod_ibp(a, a)
    assert ok


def test_equal_mod_ibp_worked_example():
    ok, trace = equal_mod_ibp(parse("INT[ Ab1b1_{1}*f_{1}*f ]"),
                              parse("INT[ (-1/2)*Ab1b1_{11}*f*f ]"))
    assert ok
    assert check_certificate(parse("INT[ Ab1b1_{1}*f_{1}*f ]"),
                             parse("INT[ (-1/2)*Ab1b1_{11}*f*f ]"), trace)


def test_equal_mod_ibp_t_direction():
    # the T-direction divergence rule INT[X_{,0}] = 0 needs no row of its
    # own: at balance 0 it follows from the 1 and b rows
    ok, _ = equal_mod_ibp(parse("INT[ E11_{0}*Eb1b1_{0} ]"),
                          parse("INT[ -E11_{00}*Eb1b1 ]"))
    assert ok
    _moved("INT[ R_{0}*f ]", "INT[ -R*f_{0} ]")


def test_equal_mod_ibp_same_symbol_pair():
    # the squared-factor trick on a repeated-factor family:
    # INT[A11_{1} E E] = (1/2) INT[A11_{1} (EE)_{1}] = -(1/2) INT[A11_{11} E E]
    a = parse("INT[ A11_{1}*Eb1b1_{1}*Eb1b1 ]")
    b = parse("INT[ -(1/2)*A11_{11}*Eb1b1*Eb1b1 ]")
    ok, _ = equal_mod_ibp(a, b)
    assert ok
    # while INT[A E_{11} E] and INT[A E_{1} E_{1}] are genuinely different:
    x = parse("INT[ A11*Eb1b1_{11}*Eb1b1 ]")
    y = parse("INT[ A11*Eb1b1_{1}*Eb1b1_{1} ]")
    assert not equal_mod_ibp(x, y)[0]
    # ... but their sum is a pure divergence against b's parent
    ok2, _ = equal_mod_ibp(x + y, -a)
    assert ok2


def test_equal_mod_ibp_detects_inequality():
    a = parse("INT[ R*f_{1}*f_{b} ]")
    b = parse("INT[ 2*R*f_{1}*f_{b} ]")
    ok, trace = equal_mod_ibp(a, b)
    assert not ok
    assert trace.residual is not None
    assert check_certificate(a, b, trace)


def test_equal_mod_ibp_plain_fallback():
    ok, _ = equal_mod_ibp(parse("f_{b1}"), parse("f_{1b} - i*f_{0}"))
    assert ok


def test_equal_mod_ibp_mixed_error():
    # a plain sum and an integral do not add, so the mixed difference is
    # refused where it is built
    with pytest.raises(ParseError):
        parse("INT[ R*f*f ] + f")
    with pytest.raises(ValueError):
        ibp_residual(parse("INT[ R*f*f ]"), parse("f"))


def test_equivalence_relation_on_samples():
    a = parse("INT[ R*E11_{1b}*Eb1b1 ]")
    # b: one manual integration by parts of a
    b = parse("INT[ -R_{b}*E11_{1}*Eb1b1 - R*E11_{1}*Eb1b1_{b} ]")
    # c: a commutation-rewritten variant of a
    c = parse("INT[ R*E11_{b1}*Eb1b1 + i*R*E11_{0}*Eb1b1 + 2*R*R*E11*Eb1b1 ]")
    for x in (a, b, c):
        assert equal_mod_ibp(x, x)[0]
    assert equal_mod_ibp(a, b)[0] and equal_mod_ibp(b, a)[0]
    assert equal_mod_ibp(b, c)[0] and equal_mod_ibp(a, c)[0]


def test_relation_cap_guard(monkeypatch):
    # the cap is checked when a sector's system is built, before any row
    a, b = parse("INT[ R*E11_{1b}*Eb1b1 ]"), parse("INT[ 2*R*E11_{1b}*Eb1b1 ]")
    monkeypatch.setattr(calc, "_system_cache", {})
    monkeypatch.setattr(calc, "MAX_RELATIONS", 3)
    rows = []
    monkeypatch.setattr(calc, "_relation_row",
                        lambda *rid: rows.append(rid))
    with pytest.raises(CalculusError):
        equal_mod_ibp(a, b)
    assert rows == [] and calc._system_cache == {}


def test_same_sector_reuses_the_system(monkeypatch):
    x = parse("INT[ A11*Eb1b1_{11}*Eb1b1 ]")
    y = parse("INT[ A11*Eb1b1_{1}*Eb1b1_{1} ]")
    other = parse("INT[ Eb1b1_{11}*Eb1b1_{11} + 2*A11*Eb1b1_{1}*Eb1b1_{1} ]")
    for cache in ("_canon_cache", "_term_cache", "_system_cache"):
        monkeypatch.setattr(calc, cache, {})
    cold, _ = ibp_residual(other, parse("0"))
    calc._system_cache.clear()
    ibp_residual(x + y, parse("0"))
    builds = []
    build = calc._build_relations
    monkeypatch.setattr(calc, "_build_relations",
                        lambda *sector: builds.append(sector) or build(*sector))
    residual, trace = ibp_residual(other, parse("0"))
    assert builds == []
    assert not residual.is_zero() and residual == cold
    assert check_certificate(other, parse("0"), trace)


def test_sector_relations_stay_in_their_sector(monkeypatch):
    # every row of a sector's system lies in that sector, among the
    # monomials the sector enumerator lists
    import phbochner.identities as ids

    sectors = []
    build = calc._build_relations
    monkeypatch.setattr(calc, "_build_relations",
                        lambda *sector: sectors.append(sector) or build(*sector))
    monkeypatch.setattr(calc, "_system_cache", {})
    for ident in ids.catalog_ids():
        ids.run_script(ident)
    assert len(sectors) == len(set(sectors)) >= 4
    for sector in sectors:
        listed = set(calc._sector_monomials(*sector))
        rids = build(*sector)
        assert rids
        for rid in rids:
            row = calc._relation_row(*rid)
            assert all(calc._sector(m) == sector for m in row), rid
            assert set(row) <= listed, rid


def test_pass_replays_certificate_from_fresh_rows(monkeypatch):
    a = parse("INT[ Ab1b1_{1}*f_{1}*f ]")
    b = parse("INT[ (-1/2)*Ab1b1_{11}*f*f ]")
    ok, _ = equal_mod_ibp(a, b)
    assert ok
    # doubling every pivot's recorded combination keeps the pivot rows, so
    # the query still reduces to zero, but with a certificate that the rows
    # rebuilt from their ids do not satisfy
    assert calc._system_cache
    for system in calc._system_cache.values():
        monkeypatch.setattr(system, "pivots", {
            lead: (vec, {rid: c * 2 for rid, c in combo.items()})
            for lead, (vec, combo) in system.pivots.items()})
    with pytest.raises(CalculusError):
        equal_mod_ibp(a, b)


@pytest.mark.parametrize("sector", [
    (4, 0, ()), (6, 0, ("f",)), (4, 0, ("f", "f")), (4, 0, ("E11", "Eb1b1")),
    (6, 0, ("E11", "E11")), (6, 0, ("E11", "Eb1b1"))])
def test_direction_0_rows_add_nothing_to_the_span(sector):
    # a balance-0 sector lists no 0 rows: each INT[(P)_{,0}] = 0 it could
    # hold reduces to zero against the 1 and b rows
    weight, balance, symbols = sector
    system = calc._LinearSystem()
    for rid in calc._build_relations(*sector):
        system.add_row(rid, calc._relation_row(*rid))
    system.reduce_basis()
    parents = calc._sector_monomials(weight - 2, balance, symbols)
    assert parents
    for parent in parents:
        reduced, _ = system.reduce_vector(calc._relation_row(parent, "0"))
        assert not reduced, parent


def test_sector_bases_are_fully_reduced(monkeypatch, capsys):
    # after every query of `verify all --mutate`, each cached system lies
    # in its sector, is in reduced echelon form, and each pivot is the
    # combination it records
    from phbochner.cli import main

    monkeypatch.setattr(calc, "_system_cache", {})
    assert main(["verify", "all", "--mutate"]) == 0
    capsys.readouterr()
    # the sectors the catalog touches, with their (rows, pivots); the rows
    # that reduce to zero come from the [0,b] and [0,1] commutation rules
    # at balance +-1: Z_{,0b} - Z_{,b0} = (Z*Ab1b1)_{,1}
    assert {sector[2]: (len(calc._build_relations(*sector)),
                        len(system.pivots))
            for sector, system in calc._system_cache.items()} == {
        ("f", "f"): (18, 17), ("E11", "Eb1b1"): (32, 30),
        ("E11", "E11"): (4, 4), ("Eb1b1", "Eb1b1"): (4, 4)}
    for sector, system in calc._system_cache.items():
        assert sector[1] == 0
        assert all(d != "0" for _, d in calc._build_relations(*sector))
        pivots = system.pivots
        for lead, (vec, combo) in pivots.items():
            assert vec[lead] == ONE
            assert all(calc._sector(m) == sector for m in vec), lead
            assert not [m for m in vec if m != lead and m in pivots], lead
            rebuilt = {}
            for rid, coeff in combo.items():
                for m, c in calc._relation_row(*rid).items():
                    rebuilt[m] = sub_mul(rebuilt.get(m, ZERO), -coeff, c)
            assert {m: c for m, c in rebuilt.items() if c} == vec, lead


def test_trace_export_formats():
    ok, trace = equal_mod_ibp(parse("INT[ Ab1b1_{1}*f_{1}*f ]"),
                              parse("INT[ (-1/2)*Ab1b1_{11}*f*f ]"))
    text = trace.to_text()
    payload = trace.to_dict()
    assert "relation" in text
    assert payload["entries"] and "residual" not in payload
