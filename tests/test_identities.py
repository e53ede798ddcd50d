"""The identity suite: every catalog derivation must replay and close."""

from fractions import Fraction

import pytest

from phbochner import identities as ids
from phbochner.calculus import check_certificate
from phbochner.expr import Expression, Factor
from phbochner.parser import parse
from phbochner.rigidity import form_entries
from phbochner.scalar import ScalarExact


SYMBOLIC_IDS = ["2.3", "2.7", "2.8", "2.ibp", "2.11", "3.2", "3.3", "3.4",
                "3.5", "3.6", "3.8"]


@pytest.mark.parametrize("ident", SYMBOLIC_IDS)
def test_script_passes(ident):
    result = ids.run_script(ident)
    assert result.status == "PASS", (result.status, str(result.residual))


def test_3_7_numeric():
    result = ids.verify_3_7_pointwise(samples=20_000, seed=3)
    assert result.passed
    assert result.details["violations"] == 0
    assert result.details["tight_max_rel"] < 1e-12


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


def test_bianchi_annihilates_final_f2_integrand():
    assert ids.bianchi_annihilates_2_11().is_zero()


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
    assert corpus.expr("3.4", "integrand").is_real()
    assert corpus.expr("3.5", "integrand").is_real()
    assert corpus.expr("3.8", "integrand_exact").is_real()


def test_2_11_integrand_real():
    corpus = ids.Corpus.load()
    assert corpus.expr("2.11", "integrals").is_real()


def test_torsion_free_specializations():
    corpus = ids.Corpus.load()
    # torsion-free limit of the norm identity keeps only the gradient term
    s28 = corpus.expr("2.8", "integrals").drop_symbols({"A11", "Ab1b1"})
    assert s28 == parse("INT[ -2*R*f_{1}*f_{b} ]")
    # while the final identity keeps the gradient and the R_{,0} term
    s211 = corpus.expr("2.11", "integrals").drop_symbols({"A11", "Ab1b1"})
    assert s211 == parse("INT[ -4*R*f_{1}*f_{b} ] + INT[ s3*R_{0}*f*f ]")
    # constant curvature drops every R-derivative from the deformation identity
    s34 = corpus.expr("3.4", "integrand").drop_derivatives_of("R")
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
    assert ("numeric form entries against the catalog", "PASS") \
        not in result.steps


@pytest.mark.parametrize("ident", ["2.ibp", "3.2", "2.11"])
def test_mutation_kill(ident):
    report = ids.mutation_test(ident)
    assert report["kill_rate"] == 1.0, report["survivors"]


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
