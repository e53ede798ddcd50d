"""The identity suite: every catalog derivation must replay and close."""

import json
from fractions import Fraction

import pytest

import phbochner.calculus as calc
from phbochner import identities as ids
from phbochner.calculus import check_certificate
from phbochner.expr import Expression, Factor
from phbochner.kernel import form_entries
from phbochner.parser import parse
from phbochner.scalar import ScalarExact


SYMBOLIC_IDS = ["2.3", "2.7", "2.8", "2.ibp", "2.11", "3.2", "3.3", "3.4",
                "3.5", "3.6", "3.7", "3.8"]


@pytest.mark.parametrize("ident", SYMBOLIC_IDS)
def test_script_passes(ident):
    result = ids.run_script(ident)
    assert result.status == "PASS", (result.status, str(result.residual))


@pytest.mark.parametrize("fld", ["lhs", "rhs", "square"])
def test_3_7_coefficient_bumps_fail(fld, monkeypatch):
    """Bumping any one coefficient of a 3.7 field by +1 fails 3.7."""
    record = ids.Corpus.load().records["3.7"]
    text = record[fld]
    terms = parse(text).term_list()
    assert terms
    for term in terms:
        bump = Expression.from_term(1, term.factors, term.integrated)
        monkeypatch.setitem(record, fld, f"{text} + {bump}")
        assert ids.verify_3_7().status == "FAIL", (fld, str(bump))


def test_3_7_tight_family_is_checked(monkeypatch):
    # u -> -u on the tight family flips the left side only
    monkeypatch.setitem(ids.Corpus.load().records["3.7"], "tight",
                        "Eb1b1 = Wb*g, Eb1b1_{1} = i*Wb*Wb*gb")
    result = ids.verify_3_7()
    assert result.status == "FAIL"
    assert ("lhs - rhs - square", "0") in result.steps


def test_cube_root_never_in_an_ibp_query(monkeypatch):
    """W is not differentiable where A11_{,1} = 0, so no IBP query of the
    catalog scripts may contain it; 3.8 matches its terms exactly."""
    queries = []
    query = calc.ibp_residual

    def recording(a, b, modulo=()):
        queries.append([a, b, *modulo])
        return query(a, b, modulo)

    monkeypatch.setattr(calc, "ibp_residual", recording)
    monkeypatch.setattr(ids, "ibp_residual", recording)
    for ident in ids.catalog_ids():
        assert ids.run_script(ident).passed, ident
    assert len(queries) > 10
    assert not any(f.symbol in ("W", "Wb") for q in queries for e in q
                   for t in e.term_list() for f in t.factors)
    form, _ = ids._numeric_form(form_entries, ids._thm_b_minors,
                                ids._constant)
    assert any(f.symbol == "W" for t in form.term_list() for f in t.factors)


def test_2_7_wrong_alpha_leaves_T_residual():
    result = ids.verify_2_7(alpha=ScalarExact(1))
    assert result.status == "FAIL"
    assert result.details["residual_has_T_derivative"]
    want = parse(
        "-2*i*f_{1b0} + (-s3 - i)*( Ab1b1*f_{11} + Ab1b1_{1}*f_{1}"
        " + A11*f_{bb} + A11_{b}*f_{b} )")
    assert result.residual == want


def test_2_7_right_alpha_kills_T_terms():
    result = ids.verify_2_7()
    assert result.passed
    assert result.details["residual_has_T_derivative"] is False


def test_3_5_uses_slice_relation():
    result = ids.verify_3_5()
    assert result.passed
    assert result.details["used_slice_relation"] is True
    assert "bracket_doubled" not in result.details


def test_3_5_does_not_close_without_slice_relation():
    """Modulo integration by parts alone, catalog 3.5 leaves a residual, so
    `verify_3_5` queries modulo the slice relation DJ* E = 0 only."""
    paired = ids._pairing_with_E(ids._dqj_after_3_2())
    target = ids.Corpus.load().expr("3.5", "integrand")
    residual, _ = calc.ibp_residual(paired, target)
    assert not residual.is_zero()


def test_bianchi_annihilates_final_f2_integrand():
    result = ids.verify_2_11()
    assert result.passed
    assert result.details["bianchi_torsion_free_f2"].is_zero()


def test_lemma_3_1_grid_cases():
    res = ids.verify_lemma_3_1(Fraction(1, 4), Fraction(1, 4))
    assert res.passed
    # degenerate case lam = 0: the inequality collapses to 0 <= rho^2 INT R^2|E|^2
    res0 = ids.verify_lemma_3_1(Fraction(0), Fraction(1))
    assert res0.passed


def test_3_4_quadratic_form_variables():
    """All integrand monomials pair a derivative of E11 with a conjugate."""
    corpus = ids.Corpus.load()
    target = corpus.expr("3.4", "integrand")
    for term in target.term_list():
        e_syms = sorted(f.symbol for f in term.factors
                        if f.symbol in ("E11", "Eb1b1"))
        assert e_syms == ["E11", "Eb1b1"]


def test_3_4_integrand_real():
    corpus = ids.Corpus.load()
    for record, fld in (("3.4", "integrand"), ("3.5", "integrand"),
                        ("3.8", "integrand_exact")):
        e = corpus.expr(record, fld)
        assert e == e.conjugate()


def test_2_11_integrand_real():
    e = ids.Corpus.load().expr("2.11", "integrals")
    assert e == e.conjugate()


def test_torsion_free_specializations():
    corpus = ids.Corpus.load()
    # torsion-free limit of the norm identity keeps only the gradient term
    s28 = corpus.expr("2.8", "integrals").drop_symbols({"A11", "Ab1b1"})
    assert s28 == parse("INT[ -2*R*f_{1}*f_{b} ]")
    # while the final identity keeps the gradient and the R_{,0} term
    s211 = corpus.expr("2.11", "integrals").drop_symbols({"A11", "Ab1b1"})
    assert s211 == parse("INT[ -4*R*f_{1}*f_{b} ] + INT[ s3*R_{0}*f*f ]")
    # constant curvature drops every R-derivative from the deformation identity
    s34 = corpus.expr("3.4", "integrand").filter_terms(
        lambda t: not any(f.symbol == "R" and f.derivs for f in t.factors))
    assert all(not f.derivs for t in s34.term_list()
               for f in t.factors if f.symbol == "R")


def test_certificates_replay():
    result = ids.verify_2_8()
    assert result.trace is not None and result.trace.certificate
    corpus = ids.Corpus.load()
    diff = corpus.expr("2.3", "target") - corpus.expr("2.7", "target")
    paired = (diff * Factor("f")).integrate()
    assert check_certificate(paired, corpus.expr("2.8", "integrals"),
                             result.trace)


def test_3_8_judges_the_numeric_form(monkeypatch):
    """A numeric form entry that differs from the catalog's 3.8 fails it."""
    def perturbed(x, K):
        entries = form_entries(x, K)
        entries[4, 4] = entries[4, 4] + K(1, 48) * x.lapR
        return entries

    monkeypatch.setattr(ids, "form_entries", perturbed)
    result = ids.verify_3_5_to_3_8()
    assert result.status == "FAIL"
    assert ("numeric form against 3.8 + INT[3.7 rhs]", "PASS") \
        not in result.steps


@pytest.mark.parametrize("entry", [(3, 3), (4, 4)])
def test_3_8_judges_the_cube_root_terms(entry, monkeypatch):
    """The t constant K(-2, 3) of form entries (3,3) and (4,4), bumped by +1,
    fails 3.8: the form is matched against 3.8 plus INT[3.7 rhs]."""
    def bumped(x, K):
        entries = form_entries(x, K)
        entries[entry] = entries[entry] + K(1) * (
            x.t if entry == (3, 3) else x.t * x.t)
        return entries

    assert (ids._numeric_form(bumped, ids._thm_b_minors, ids._constant)[0]
            != ids._numeric_form(form_entries, ids._thm_b_minors,
                                 ids._constant)[0])
    monkeypatch.setattr(ids, "form_entries", bumped)
    result = ids.verify_3_5_to_3_8()
    assert result.status == "FAIL"
    assert ("match modulo IBP", "PASS") in result.steps


@pytest.mark.parametrize("ident, key", [("2.11", "thm_a_proven"),
                                        ("3.4", "corollary_c_proven"),
                                        ("3.8", "thm_b_proven")])
def test_rigidity_proofs_reported(ident, key):
    assert ids.run_script(ident).details[key] is True


# the kernel formulas that 2.11, 3.4 and 3.8 evaluate, as `identities`
# names them
_KERNEL = ("form_entries", "torsion_free_entries", "_thm_a", "_cond_3_11",
           "_cond_3_12", "_corollary_c")
# the bump test replaces ids._constant; _BumpK wraps the original
_CONSTANT = ids._constant


class _BumpK:
    """The kernel's exact constant constructor, except that its k-th call
    returns the constant + 1."""

    def __init__(self, k: int):
        self.k, self.calls = k, 0

    def __call__(self, n, d=1, s3=False):
        self.calls += 1
        value = _CONSTANT(n, d, s3)
        return value + Expression.scalar(1) if self.calls == self.k else value


def test_kernel_constant_bumps_fail_a_proof(monkeypatch):
    """Each constant of the kernel, bumped by +1 one at a time, fails 2.11,
    3.4 or 3.8.  A bump may pass only if no kernel formula those scripts
    evaluate changes its value: the entries that _cond_3_12 builds through
    form_entries and never reads."""
    values = []

    def recording(fn):
        def wrapper(*args):
            values.append(fn(*args))
            return values[-1]
        return wrapper

    for name in _KERNEL:
        monkeypatch.setattr(ids, name, recording(getattr(ids, name)))

    def run(K):
        monkeypatch.setattr(ids, "_constant", K)
        values.clear()
        passed = all(ids.run_script(i).passed for i in ("2.11", "3.4", "3.8"))
        return passed, list(values)

    counting = _BumpK(0)
    passed, unbumped = run(counting)
    assert passed and len(unbumped) == len(_KERNEL)
    assert counting.calls > 60
    for k in range(1, counting.calls + 1):
        passed, bumped = run(_BumpK(k))
        if passed:
            assert bumped == unbumped, f"constant call {k} survives"


@pytest.mark.parametrize("ident", ["2.ibp", "3.2", "2.11"])
def test_mutation_kill(ident):
    report = ids.mutation_test(ident)
    assert report["kill_rate"] == 1.0, report["survivors"]


def test_mutation_test_formats_no_expression(monkeypatch):
    # a step is formatted when it is read, and nothing reads a mutant's
    # steps; only a survivor is formatted, and there is none
    formatted = []
    text = Expression.__str__

    def counting(self):
        formatted.append(self)
        return text(self)

    monkeypatch.setattr(Expression, "__str__", counting)
    for ident in ids.MUTABLE_IDS:
        assert ids.mutation_test(ident)["survivors"] == []
    assert formatted == []


def test_zero_target_override_fails():
    # a zero override is a target like any other, not "no override"
    passed = [ident for ident in ids.MUTABLE_IDS
              if ids._run_mutated(ident, Expression.zero()).passed]
    assert passed == []


def test_unknown_identity():
    with pytest.raises(KeyError):
        ids.run_script("9.9")
    with pytest.raises(KeyError):
        ids.mutation_test("3.7")


def test_catalog_listing():
    listed = ids.catalog_ids()
    assert set(SYMBOLIC_IDS) <= set(listed)
    assert "3.7" in listed


def test_result_serialization():
    result = ids.verify_3_2()
    d = result.to_dict()
    assert d["status"] == "PASS"
    assert d["residual"] is None
    assert all(isinstance(s["value"], str) for s in d["steps"])


# ---------------------------------------------------------------------------
# relation caches: a residual depends on its query alone
# ---------------------------------------------------------------------------

def _mutants() -> list[tuple[str, str, Expression]]:
    """(name "id#k", identity, target with term k bumped) in catalog order."""
    out = []
    for ident in ids.MUTABLE_IDS:
        base = ids._target(ident)
        for k, term in enumerate(base.term_list()):
            bump = Expression.from_term(1, term.factors, term.integrated)
            out.append((f"{ident}#{k}", ident, base + bump))
    return out


def _residual(ident: str, mutated: Expression) -> Expression:
    return ids._run_mutated(ident, mutated).residual


def _clear_ibp_caches():
    calc._canon_cache.clear()
    calc._term_cache.clear()
    calc._system_cache.clear()


def test_residual_independent_of_cache_state():
    # a cache shared per (weight, balance) class changed both residuals
    targets = ("3.6#1", "3.8#4")
    mutants = _mutants()
    others = [m for m in mutants if m[0] not in targets]
    cold = {}
    for name, ident, mutated in mutants:
        if name in targets:
            _clear_ibp_caches()
            cold[name] = _residual(ident, mutated)
    for warm_up in (others, others[::-1]):
        _clear_ibp_caches()
        for _, ident, mutated in warm_up:
            _residual(ident, mutated)
        for name, ident, mutated in mutants:
            if name in targets:
                assert _residual(ident, mutated) == cold[name], name


def test_cache_eviction_keeps_residuals(monkeypatch):
    mutants = [m for m in _mutants() if m[1] == "3.4"]
    default = [_residual(ident, mutated) for _, ident, mutated in mutants]
    monkeypatch.setattr(calc, "MAX_CACHED_FACTORS", 1)
    monkeypatch.setattr(calc, "MAX_CACHED_SYSTEMS", 1)
    _clear_ibp_caches()
    assert [_residual(ident, mutated)
            for _, ident, mutated in mutants] == default
    assert len(calc._canon_cache) == len(calc._system_cache) == 1


def test_mutant_residuals_are_normal_forms():
    # a mutant differs from its passing target by its bump, so its residual
    # is the normal form of the bump, up to the sign of the difference
    zero = parse("0")
    mutants = [m for m in _mutants() if m[1] in ("3.4", "3.8")]
    assert len(mutants) == 36
    for name, ident, mutated in mutants:
        base = ids._target(ident)
        normal, _ = calc.ibp_residual(mutated - base, zero)
        residual = _residual(ident, mutated)
        assert not normal.is_zero(), name
        assert residual in (normal, -normal), name


def _trace_payloads() -> list[str]:
    """Result and trace JSON of every catalog script, as `trace` reports."""
    out = []
    for ident in ids.catalog_ids():
        result = ids.run_script(ident)
        payload = result.to_dict()
        payload["trace"] = result.trace.to_json() if result.trace else None
        out.append(json.dumps(payload, sort_keys=True))
    return out


def test_certificates_independent_of_query_order():
    _clear_ibp_caches()
    cold = _trace_payloads()
    _clear_ibp_caches()
    for ident in reversed(ids.MUTABLE_IDS):
        ids.mutation_test(ident)
    assert _trace_payloads() == cold


def _mutant_queries(monkeypatch, settle: bool) -> list[tuple]:
    """Run every mutant of 3.4, 3.5 and 3.8 from cold caches and return
    [a, b, modulo, trace, trace JSON, certificate] per IBP query; with
    `settle` the trace is read as soon as its query returns, else after the
    run."""
    _clear_ibp_caches()
    queries = []
    query = calc.ibp_residual

    def recording(a, b, modulo=()):
        residual, trace = query(a, b, modulo)
        queries.append([a, b, tuple(modulo), trace])
        if settle:
            queries[-1] += [trace.to_json(), list(trace.certificate)]
        return residual, trace

    monkeypatch.setattr(calc, "ibp_residual", recording)
    monkeypatch.setattr(ids, "ibp_residual", recording)
    for _, ident, mutated in _mutants():
        if ident in ("3.4", "3.5", "3.8"):
            ids._run_mutated(ident, mutated)
    monkeypatch.undo()
    if not settle:
        for q in queries:
            q += [q[3].to_json(), list(q[3].certificate)]
    return queries


def test_deferred_certificates_match_eager(monkeypatch):
    eager = _mutant_queries(monkeypatch, settle=True)
    deferred = _mutant_queries(monkeypatch, settle=False)
    assert len(deferred) == len(eager) > 36
    assert any(q[3].residual is not None for q in deferred)
    for (a, b, modulo, trace, blob, cert), want in zip(deferred, eager):
        assert (a, b, modulo) == tuple(want[:3])
        assert blob == want[4] and cert == want[5]
        assert trace.to_text() == want[3].to_text()
        assert check_certificate(a, b, trace, modulo)
