"""Numeric rigidity conditions, Hermitian forms, and scaling laws."""

from fractions import Fraction

import numpy as np
import pytest

from phbochner import rigidity as rg
from phbochner.rigidity import (HermitianForm, PointData, build_form_4,
                                build_form_5, cond_3_11, cond_3_12,
                                cond_3_11_exact, cond_3_12_exact, corollary_C,
                                exact_det, form4_exact, form5_exact,
                                is_positive_definite, scale, thmA_condition)
from phbochner.scalar import ScalarExact


def test_package_reexports_numeric_names():
    import phbochner
    assert phbochner.PointData is PointData
    assert phbochner.HermitianForm is HermitianForm
    names = {}
    exec("from phbochner import *", names)
    assert names["PointData"] is PointData
    with pytest.raises(AttributeError):
        phbochner.no_such_name


def test_thmA_examples():
    value, va, vb = thmA_condition(PointData(R=-1.0, R0=1.0))
    assert abs(value - 3 ** 0.5) < 1e-15 and va and not vb
    # torsion-free Bianchi-consistent data sits exactly on the borderline
    value, va, vb = thmA_condition(PointData(R=-1.0, R0=0.0))
    assert value == 0.0 and not va and vb
    # positive curvature gates both verdicts off
    _, va, vb = thmA_condition(PointData(R=1.0, R0=5.0))
    assert not va and not vb


def test_cond_3_11_examples():
    assert cond_3_11(PointData(R=1.0)) == pytest.approx(0.375, abs=0)
    assert cond_3_11(PointData(R=2.0, A11=0.1 + 0j)) == pytest.approx(1.25)


def test_cond_3_12_torsion_free_example():
    p = PointData(R=1.0)
    assert cond_3_12(p) == pytest.approx((3.0 / 8.0) * (83.0 / 3456.0))


def test_corollary_C_examples():
    value, verdict = corollary_C(PointData(R=1.0))
    assert value == pytest.approx(20.0) and verdict
    value, verdict = corollary_C(PointData(R=1.0, R1=complex(10 ** 0.5, 0)))
    assert value < 0 and not verdict
    with pytest.raises(ValueError):
        corollary_C(PointData(R=1.0, A11=0.5 + 0j))


def test_bianchi_flag_synthetic():
    rng = np.random.default_rng(8)
    for _ in range(50):
        bb = complex(rng.standard_normal(), rng.standard_normal())
        p = PointData(R=1.0, R0=2.0 * bb.real, A11_bb=bb)
        assert rg.bianchi_consistent(p)
    assert not rg.bianchi_consistent(PointData(R=1.0, R0=1.0))


def test_form4_structure():
    p = PointData(R=3.0)
    f4 = build_form_4(p)
    top = f4.matrix[:2, :2]
    assert np.allclose(top, [[29 / 48, -1], [-1, 2]])
    assert np.linalg.det(top).real == pytest.approx(5 / 24)
    block = f4.matrix[2:, 2:]
    assert np.allclose(block, [[1.0, 0.0], [0.0, 3 / 8]])
    pd, minors = is_positive_definite(f4)
    assert pd and len(minors) == 4


def test_form5_contains_form4():
    p = PointData(R=2.0, A11=0.1 + 0.2j, A11_1=0.3 - 0.1j, A11_b=0.05 + 0j,
                  A11_bb=0.02 - 0.01j, R1=0.4 + 0.1j, lapR=0.3, R0=1.0)
    f4, f5 = build_form_4(p), build_form_5(p)
    assert np.array_equal(f5.matrix[:4, :4], f4.matrix)
    assert np.array_equal(f5.matrix, f5.matrix.conj().T)
    assert f5.matrix[3, 4] == 0


def test_hermitian_form_validation():
    with pytest.raises(ValueError):
        HermitianForm(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianForm(np.zeros((2, 3)))


def test_sylvester_examples():
    pd, minors = is_positive_definite(HermitianForm(np.eye(3, dtype=complex)))
    assert pd and minors == [1.0, 1.0, 1.0]
    pd, minors = is_positive_definite(
        HermitianForm(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)))
    assert not pd
    assert minors[0] == pytest.approx(1.0)
    assert minors[1] == pytest.approx(-3.0)


def test_sylvester_vs_eigen_battery():
    report = rg.sylvester_battery(3000, seed=5)
    assert report["ok"] and report["disagreements"] == 0


def test_exact_block_determinant_identity():
    Rs = [Fraction(-2), Fraction(1, 3), Fraction(5)]
    As = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-1, 3)),
          (Fraction(2), Fraction(1))]
    ts = [Fraction(0), Fraction(1, 7), Fraction(2)]
    for R in Rs:
        for a in As:
            for t in ts:
                m = form4_exact(R, a, t)
                block = [row[2:] for row in m[2:]]
                assert exact_det(block) == ScalarExact(
                    cond_3_11_exact(R, a, t) / 9)


def test_exact_det5_identity():
    grid = [
        (Fraction(1), (Fraction(0), Fraction(0)), Fraction(0),
         Fraction(0), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)),
         Fraction(0)),
        (Fraction(-3), (Fraction(1, 2), Fraction(1)), Fraction(1, 3),
         Fraction(2, 5), (Fraction(1), Fraction(-1, 2)),
         (Fraction(-1, 3), Fraction(1, 4)), Fraction(2, 7)),
        (Fraction(4), (Fraction(-1), Fraction(1, 5)), Fraction(3, 2),
         Fraction(-1), (Fraction(1, 7), Fraction(2)),
         (Fraction(1), Fraction(1)), Fraction(-1, 2)),
    ]
    for R, a, t, lapR, r1, ab, imbb in grid:
        m5 = form5_exact(R, a, t, lapR, r1, ab, imbb)
        want = ScalarExact(cond_3_12_exact(R, a, t, lapR, r1, ab, imbb) / 9)
        assert exact_det(m5) == want


def test_equivalence_battery():
    report = rg.equivalence_battery(20_000, seed=11)
    assert report["ok"]
    assert report["kappa_rel_spread"] < 1e-9
    assert abs(report["kappa_mean"] - 1.0 / 9.0) < 1e-12


def test_scale_identity_and_powers():
    p = PointData(R=1.3, R0=-0.4, R1=0.2 + 0.5j, lapR=0.7, A11=0.1 - 0.2j,
                  A11_1=0.3 + 0.1j, A11_b=-0.2 + 0.4j, A11_bb=0.05 + 0.02j)
    assert scale(p, 1.0) == p
    for k in (1 / 7, 1 / 2, 3.0, 100.0):
        q = scale(p, k)
        assert cond_3_11(q) == pytest.approx(cond_3_11(p) * k ** -2, rel=1e-12)
        assert cond_3_12(q) == pytest.approx(cond_3_12(p) * k ** -4, rel=1e-12)
        assert thmA_condition(q)[0] == pytest.approx(
            thmA_condition(p)[0] * k ** -2, rel=1e-12)
    tf = PointData(R=2.0, R1=0.3 + 0.1j, lapR=-0.2)
    for k in (1 / 7, 1 / 2, 3.0, 100.0):
        assert corollary_C(scale(tf, k))[0] == pytest.approx(
            corollary_C(tf)[0] * k ** -3, rel=1e-12)
    with pytest.raises(ValueError):
        scale(p, -1.0)


def test_scaling_report_verdict_invariance():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = rg.random_point(rng)
        rep = rg.scaling_report(p, [1 / 7, 1 / 2, 3.0, 100.0])
        assert rep["ok"], rep


# seed-1 point p3252 of the benchmark's point file: 3.12 at k = 1/7 has a
# relative homogeneity error of 1.2e-12 from cancellation, which a fixed
# 1e-12 relative bound rejected although the value is homogeneous
P3252 = {"id": "p3252", "R": -1.00372685082875,
         "R1": [-0.3877501054832191, 1.3447999052271975],
         "lapR": 1.7363175252857392,
         "A11": [0.46345352157151126, -0.03255711123084321],
         "A11_1": [-0.11425940357887912, 0.010367600883362584],
         "A11_b": [0.4289763492856538, 0.24326643417648974],
         "R0": 0.8538720548722388,
         "A11_bb": [0.12231660394158715, 0.19833252582798833]}


def test_scaling_bound_accounts_for_cancellation(monkeypatch):
    p = PointData.from_mapping(P3252)
    ks = [1 / 7, 1 / 2, 3.0, 100.0]
    rep = rg.scaling_report(p, ks)
    assert rep["ok"], rep
    assert rep["rows"][0]["errors"]["3.12"] > 1e-12
    # a value whose stated power is off by k^0.5 must still fail
    wrong = rg.Condition({"3.12 wrong": (rg._cond_3_12, -4.5)}, (),
                         lambda s, v, eps: ())
    monkeypatch.setitem(rg.CONDITIONS, "wrong", wrong)
    rep = rg.scaling_report(p, ks)
    assert not rep["ok"]
    assert rep["rows"][1]["errors"]["3.12 wrong"] > 0.1


def test_scaling_report_exact_zero_value():
    # torsion-free and Bianchi-consistent: thm-a is 0 with every summand 0
    rep = rg.scaling_report(PointData(R=-1.0), [1 / 7, 3.0])
    assert rep["ok"] and rep["rows"][0]["errors"]["thm_a"] == 0.0


def test_torsion_free_consistency():
    # with A = 0: positive definiteness of the 4x4 form <=> R > 0
    for R in (-2.0, -0.1, 0.5, 3.0):
        p = PointData(R=R)
        pd, _ = is_positive_definite(build_form_4(p))
        assert pd == (R > 0)
        assert (cond_3_11(p) > 0) == (R != 0)  # equals (3/8) R^2 when A = 0


def test_torsion_free_quadratic_form_det_identity():
    """det of the torsion-free 4-variable form equals the rigidity value / 648."""
    rng = np.random.default_rng(6)
    for _ in range(100):
        R = float(rng.standard_normal() * 2)
        lapR = float(rng.standard_normal())
        r1 = complex(rng.standard_normal(), rng.standard_normal())
        m = np.array([
            [2 / 3, -1, 0, -R / 6],
            [-1, 2, 0, 2 * R / 3],
            [0, 0, R / 3, np.conj(r1) / 6],
            [-R / 6, 2 * R / 3, r1 / 6, (2 / 3) * R ** 2 + lapR / 6],
        ], dtype=complex)
        det = np.linalg.det(m).real
        cor = 4 * R * (5 * R ** 2 + 3 * lapR) - 6 * abs(r1) ** 2
        assert det == pytest.approx(cor / 648.0, rel=1e-9, abs=1e-12)


def test_torsion_free_form_pd_blocks():
    # constant positive curvature: the reduced 3x3 block is positive definite
    h = HermitianForm(np.array([[2 / 3, -1, -1 / 6],
                                [-1, 2, 2 / 3],
                                [-1 / 6, 2 / 3, 2 / 3]], dtype=complex))
    pd, minors = is_positive_definite(h)
    assert pd
    assert minors[2] == pytest.approx(5 / 54)


def test_pointdata_io():
    rec = {"id": "x", "R": 1.5, "R1": [0.2, -0.3], "A11": [0.1, 0.4]}
    p = PointData.from_mapping(rec)
    assert p.R1 == complex(0.2, -0.3)
    assert p.A11_bb == 0
    back = p.to_dict()
    assert back["id"] == "x" and back["A11"] == [0.1, 0.4]
    with pytest.raises(ValueError):
        PointData.from_mapping({"id": "bad"})


def test_grad_b_R_sq_derived():
    p = PointData(R=1.0, R1=3 + 4j)
    assert p.grad_b_R_sq() == pytest.approx(50.0)


def test_evaluate_conditions_report():
    p = PointData(R=1.0, id="pt")
    rep = rg.evaluate_conditions(p, ["thm-b", "corollaryC", "bianchi"])
    assert rep.verdicts["thm_b"] and rep.verdicts["corollaryC"]
    assert rep.verdicts["bianchi"] and not rep.errors
    rep2 = rg.evaluate_conditions(PointData(R=1.0, A11=1 + 0j), ["corollaryC"])
    assert rep2.errors
