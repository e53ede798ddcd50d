"""The identity suite: every catalog derivation must replay and close."""

import json

import pytest

import phbochner.calculus as calc
from phbochner import identities as ids
from phbochner import kernel
from phbochner import operators as ops
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
        assert ids.run_script("3.7").status == "FAIL", (fld, str(bump))


def test_3_7_tight_family_is_checked(monkeypatch):
    # u -> -u on the tight family flips the left side only
    monkeypatch.setitem(ids.Corpus.load().records["3.7"], "tight",
                        "Eb1b1 = Wb*g, Eb1b1_{1} = i*Wb*Wb*gb")
    result = ids.run_script("3.7")
    assert result.status == "FAIL"
    assert ("lhs - rhs - square", "0") in result.steps


def test_cube_root_never_in_an_ibp_query(monkeypatch):
    """W is not differentiable where A11_{,1} = 0, so no IBP query of the
    catalog scripts may contain it; 3.8 matches its terms exactly.  3.6
    strips its parameters LAM and RHO before it queries."""
    queries = []
    query = calc.ibp_residual

    def recording(a, b, modulo=()):
        queries.append([a, b, *modulo])
        return query(a, b, modulo)

    monkeypatch.setattr(calc, "ibp_residual", recording)
    monkeypatch.setattr(ids, "ibp_residual", recording)
    for ident in ids.catalog_ids():
        assert ids.run_script(ident).passed, ident
    assert len(queries) == 8
    assert not any(f.symbol in ("W", "Wb", "LAM", "RHO")
                   for q in queries for e in q
                   for t in e.term_list() for f in t.factors)
    form, _ = ids._numeric_form(form_entries(ids._inputs(), ids._constant), [])
    assert any(f.symbol == "W" for t in form.term_list() for f in t.factors)


def test_2_7_wrong_alpha_leaves_T_residual():
    result = ids.script_2_7(ScalarExact(1))(ids._target("2.7"))
    assert result.status == "FAIL"
    assert result.details["residual_has_T_derivative"]
    want = parse(
        "-2*i*f_{1b0} + (-s3 - i)*( Ab1b1*f_{11} + Ab1b1_{1}*f_{1}"
        " + A11*f_{bb} + A11_{b}*f_{b} )")
    assert result.residual == want


def test_2_7_right_alpha_kills_T_terms():
    result = ids.run_script("2.7")
    assert result.passed
    assert result.details["residual_has_T_derivative"] is False


def test_3_5_uses_slice_relation():
    result = ids.run_script("3.5")
    assert result.passed and result.details == {}
    # the closure step names the slice witness it subtracted
    label, value = result.steps[-1]
    assert label == "closure" and "INT[DJ* E * slice]" in value


def test_3_5_does_not_close_without_slice_relation():
    """Modulo integration by parts alone, catalog 3.5 leaves a residual, so
    `script_3_5` first subtracts the catalog's slice witness
    INT[DJ* E * slice], which vanishes where DJ* E = 0."""
    paired = ids._pairing_with_E(ids._dqj_after_3_2())
    target = ids.Corpus.load().expr("3.5", "integrand")
    residual, _ = calc.ibp_residual(paired, target)
    assert not residual.is_zero()


def test_3_5_closes_by_its_slice_witness_only(monkeypatch):
    """A wrong slice witness fails 3.5, and the engine takes no relation
    but the divergence relations.  Each run reads the catalog as it is
    then: a field changed after a script ran is the next run's."""
    record = ids.Corpus.load().records["3.5"]
    text = record["slice"]
    assert text == "(4/3)*i*( Ab1b1*E11 - A11*Eb1b1 )"
    wrong = [f"{text} + Ab1b1*E11", f"{text} + A11*Eb1b1",
             "(4/3)*i*Ab1b1*E11", "-(4/3)*i*A11*Eb1b1", "0"]
    for slice_text in [text, *wrong, text]:
        monkeypatch.setitem(record, "slice", slice_text)
        want = "PASS" if slice_text == text else "FAIL"
        assert ids.run_script("3.5").status == want, slice_text
    a, b = parse("INT[ R*E11*Eb1b1 ]"), parse("0")
    slice_relation = (ops.build_DJstar().expr,)
    with pytest.raises(calc.CalculusError):
        calc.ibp_residual(a, b, slice_relation)
    _, trace = calc.ibp_residual(a, b)
    with pytest.raises(calc.CalculusError):
        check_certificate(a, b, trace, slice_relation)


def test_bianchi_value_is_the_rule_2_11_uses():
    """`check`'s bianchi value R_{,0} - 2 Re(A11_{,bb}), on the catalog
    inputs with Re(A11_{,bb}) = (1/2)(A11_{bb} + Ab1b1_{11}), is R_{,0} less
    the replacement of the Bianchi rule that 2.11 rewrites by."""
    x = ids._inputs()._replace(rebb=parse("(1/2)*(A11_{bb} + Ab1b1_{11})"))
    value = kernel._bianchi(x, ids._constant)
    assert value == parse("R_{0}") - ops.bianchi_rule().replacement
    assert not value.is_zero()


def test_bianchi_annihilates_final_f2_integrand():
    result = ids.run_script("2.11")
    assert result.passed
    assert result.details["bianchi_torsion_free_f2"].is_zero()


def test_lemma_3_1_for_all_lam_rho():
    """3.6 splits rhs - lhs - square by its LAM/RHO monomials: the LAM^2
    and RHO^2 terms cancel with the square's, and the LAM*RHO coefficient
    closes modulo IBP with a certificate."""
    result = ids.run_script("3.6")
    assert result.passed
    assert result.details["classes"] == ["LAM*RHO"]
    assert ("coefficient of LAM*RHO modulo IBP", "PASS") in result.steps
    assert result.trace.certificate


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
    result = ids.run_script("2.8")
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
    result = ids.run_script("3.8")
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

    x, K = ids._inputs(), ids._constant
    assert (ids._numeric_form(bumped(x, K), [])[0]
            != ids._numeric_form(form_entries(x, K), [])[0])
    monkeypatch.setattr(ids, "form_entries", bumped)
    result = ids.run_script("3.8")
    assert result.status == "FAIL"
    assert ("match modulo IBP", "PASS") in result.steps


@pytest.mark.parametrize("ident, key", [("2.11", "thm_a_proven"),
                                        ("3.4", "corollary_c_proven"),
                                        ("3.8", "thm_b_proven")])
def test_rigidity_proofs_reported(ident, key):
    assert ids.run_script(ident).details[key] is True


# the kernel formulas that 2.11, 3.4 and 3.8 evaluate, as `identities`
# names them
_KERNEL = ("form_entries", "torsion_free_entries", "_thm_a",
           "corollary_c_minors", "thm_b_minors")
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


def test_zero_target_fails():
    passed = [ident for ident in ids.MUTABLE_IDS
              if _decide(ident)(Expression.zero()).passed]
    assert passed == []


def test_mutation_test_decides_the_unchanged_target_first(monkeypatch,
                                                          capsys):
    """A catalog target that fails is reported with a note and no mutant
    decided: its mutants would be killed whatever the script checks.  The
    3.5 integrand with its first coefficient 2/3 bumped to 5/3 fails 3.5,
    and 3.8, which builds on it."""
    from phbochner.cli import main

    record = ids.Corpus.load().records["3.5"]
    assert record["integrand"].startswith("INT[ (2/3)*")
    monkeypatch.setitem(record, "integrand",
                        record["integrand"].replace("(2/3)*", "(5/3)*", 1))
    decisions, run = [], ids._run_mutated
    monkeypatch.setattr(ids, "_run_mutated",
                        lambda *args: decisions.append(args) or run(*args))
    for ident in ("3.5", "3.8"):
        assert ids.mutation_test(ident) == {
            "identity": ident,
            "note": "the catalog target fails, so no mutant is decided"}
    assert decisions == []
    assert main(["--format", "json", "verify", "3.5", "--mutate"]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == [
        {"id": "3.5", "status": "FAIL",
         "note": "the catalog target fails, so no mutant is decided"}]


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
    result = ids.run_script("3.2")
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


def _decide(ident: str) -> ids.Decide:
    """The script of `ident`, built now."""
    return ids.SCRIPTS[ident][0]()


def _residual(ident: str, mutated: Expression) -> Expression:
    """A mutant's residual, by a script built for it, so that after
    `_clear_ibp_caches` the build runs from cold caches too."""
    return ids._run_mutated(_decide(ident), mutated).residual


def _clear_ibp_caches():
    """Empty the engine's caches; a script built after this runs cold."""
    calc._canon_cache.clear()
    calc._term_cache.clear()
    calc._system_cache.clear()


def test_cold_and_warm_caches_agree():
    """Each mutation report, and the residual of each mutant of 3.4, 3.5
    and 3.8, is the same from cold caches as after every other run."""
    cold_reports = {}
    for ident in ids.MUTABLE_IDS:
        _clear_ibp_caches()
        cold_reports[ident] = ids.mutation_test(ident)
    mutants = [m for m in _mutants() if m[1] in ("3.4", "3.5", "3.8")]
    assert len(mutants) == 59
    cold_residuals = {}
    for name, ident, mutated in mutants:
        _clear_ibp_caches()
        cold_residuals[name] = _residual(ident, mutated)
    for ident in ids.MUTABLE_IDS:
        assert ids.mutation_test(ident) == cold_reports[ident], ident
    for name, ident, mutated in mutants:
        assert _residual(ident, mutated) == cold_residuals[name], name


def test_2_7_mutants_format_no_scalar(monkeypatch):
    """alpha is formatted when 2.7's script is built, for the operator name
    and for the label and detail, and never by a decision: one build
    serves the catalog target and every mutant."""
    formatted = []
    text = ScalarExact.__str__

    def counting(self):
        formatted.append(self)
        return text(self)

    monkeypatch.setattr(ScalarExact, "__str__", counting)
    assert ids.mutation_test("2.7")["survivors"] == []
    assert formatted == [ops.ALPHA_SECTION2] * 2
    formatted.clear()
    result = ids.run_script("2.7")
    assert formatted == [ops.ALPHA_SECTION2] * 2
    monkeypatch.undo()
    assert result.details["alpha"] == "i*s3"
    assert result.steps[0][0] == "expand (1/2) L* L f with alpha = i*s3"


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
        payload["trace"] = result.trace.to_dict() if result.trace else None
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
    [a, b, modulo, trace, trace dict, certificate] per IBP query; with
    `settle` the trace is read as soon as its query returns, else after the
    run."""
    _clear_ibp_caches()
    queries = []
    query = calc.ibp_residual

    def recording(a, b, modulo=()):
        residual, trace = query(a, b, modulo)
        queries.append([a, b, tuple(modulo), trace])
        if settle:
            queries[-1] += [trace.to_dict(), list(trace.certificate)]
        return residual, trace

    monkeypatch.setattr(calc, "ibp_residual", recording)
    monkeypatch.setattr(ids, "ibp_residual", recording)
    for _, ident, mutated in _mutants():
        if ident in ("3.4", "3.5", "3.8"):
            _residual(ident, mutated)
    monkeypatch.undo()
    if not settle:
        for q in queries:
            q += [q[3].to_dict(), list(q[3].certificate)]
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
