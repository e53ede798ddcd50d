"""Numeric rigidity conditions, Hermitian forms, and scaling laws."""

import importlib
import pkgutil

import numpy as np
import pytest

from phbochner import identities as ids
from phbochner import kernel
from phbochner import rigidity as rg
from phbochner.expr import Expression
from phbochner.kernel import (det, form_entries, thm_b_minors,
                              torsion_free_entries)
from phbochner.parser import parse
from phbochner.rigidity import (HermitianForm, PointData, build_form_4,
                                build_form_5)


def test_package_reexports_numeric_names():
    import phbochner
    assert phbochner.PointData is PointData
    assert phbochner.HermitianForm is HermitianForm
    names = {}
    exec("from phbochner import *", names)
    assert names["PointData"] is PointData
    with pytest.raises(AttributeError):
        phbochner.no_such_name


def test_export_lists_resolve():
    import phbochner
    for name in ["phbochner"] + [f"phbochner.{m.name}" for m in
                                 pkgutil.iter_modules(phbochner.__path__)]:
        module = importlib.import_module(name)
        names = {}
        exec(f"from {name} import *", names)  # raises on a missing name
        assert set(getattr(module, "__all__", ())) <= set(names), name


def test_thmA_examples():
    strict, border, positive = rg.evaluate_conditions(rg._stack(
        [PointData(R=-1.0, R0=1.0), PointData(R=-1.0, R0=0.0),
         PointData(R=1.0, R0=5.0)]), ["thm-a"])
    assert abs(strict["values"]["thm_a"] - 3 ** 0.5) < 1e-15
    assert strict["verdicts"]["thm_a"]
    assert not strict["verdicts"]["thm_a_borderline"]
    # torsion-free Bianchi-consistent data sits exactly on the borderline
    assert border["values"]["thm_a"] == 0.0
    assert not border["verdicts"]["thm_a"]
    assert border["verdicts"]["thm_a_borderline"]
    # positive curvature gates both verdicts off
    assert not positive["verdicts"]["thm_a"]
    assert not positive["verdicts"]["thm_a_borderline"]


def test_thmA_band_is_eps_times_M():
    # value 1.5e-12 against M = sqrt3 |R0| + 2 |Im A11_bb| ~ 2: inside the
    # band 1e-12 * M = 2e-12 although it exceeds 1e-12 times either summand
    (point,) = rg.evaluate_conditions(rg._stack(
        [PointData.from_mapping({"R": -1.0, "R0": 1 / 3 ** 0.5,
                                 "A11_bb": [0.0, (1 - 1.5e-12) / 2]})]),
        ["thm-a"])
    assert point["values"]["thm_a"] == pytest.approx(1.5e-12, rel=1e-4)
    assert not point["verdicts"]["thm_a"]
    assert point["verdicts"]["thm_a_borderline"]


def test_cond_3_11_examples():
    flat, twisted = rg.evaluate_conditions(rg._stack(
        [PointData(R=1.0), PointData(R=2.0, A11=0.1 + 0j)]), ["3.11"])
    assert flat["values"]["3.11"] == pytest.approx(0.375, abs=0)
    assert twisted["values"]["3.11"] == pytest.approx(1.25)


def test_cond_3_12_torsion_free_example():
    [rep] = rg.evaluate_conditions(rg._stack([PointData(R=1.0)]), ["3.12"])
    assert rep["values"]["3.12"] == pytest.approx(
        (3.0 / 8.0) * (83.0 / 3456.0))


def test_corollary_C_examples():
    good, bad, torsion = rg.evaluate_conditions(rg._stack(
        [PointData(R=1.0), PointData(R=1.0, R1=complex(10 ** 0.5, 0)),
         PointData(R=1.0, A11=0.5 + 0j)]), ["corollaryC"])
    assert good["values"]["corollaryC"] == pytest.approx(20.0)
    assert good["verdicts"]["corollaryC"]
    assert bad["values"]["corollaryC"] < 0
    assert not bad["verdicts"]["corollaryC"]
    assert torsion["errors"] and not torsion["passed"]["corollaryC"]


def test_bianchi_flag_synthetic():
    rng = np.random.default_rng(8)
    points = []
    for _ in range(50):
        bb = complex(rng.standard_normal(), rng.standard_normal())
        points.append(PointData(R=1.0, R0=2.0 * bb.real, A11_bb=bb))
    *consistent, off = rg.evaluate_conditions(rg._stack(
        points + [PointData(R=1.0, R0=1.0)]), ["bianchi"])
    assert all(rep["verdicts"]["bianchi"] for rep in consistent)
    assert not off["verdicts"]["bianchi"]


def test_form4_structure():
    p = PointData(R=3.0)
    f4 = build_form_4(p)
    top = f4.matrix[:2, :2]
    assert np.allclose(top, [[29 / 48, -1], [-1, 2]])
    assert np.linalg.det(top).real == pytest.approx(5 / 24)
    block = f4.matrix[2:, 2:]
    assert np.allclose(block, [[1.0, 0.0], [0.0, 3 / 8]])
    minors = f4.leading_minors()
    assert all(m > 0 for m in minors) and len(minors) == 4


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
    minors = HermitianForm(np.eye(3, dtype=complex)).leading_minors()
    assert minors == [1.0, 1.0, 1.0]
    minors = HermitianForm(np.array([[1.0, 2.0], [2.0, 1.0]],
                                    dtype=complex)).leading_minors()
    assert not all(m > 0 for m in minors)
    assert minors[0] == pytest.approx(1.0)
    assert minors[1] == pytest.approx(-3.0)


def test_sylvester_vs_eigen_battery():
    report = rg.sylvester_battery(3000, seed=5)
    assert report["ok"] and report["disagreements"] == 0


def test_det_on_integers():
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    # zero entries of the first row are skipped without losing the signs
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert det([[0, 0], [1, 2]]) == 0


# The identities below hold in the catalog symbols of the kernel's inputs
# (t = W*Wb), so they hold for all point data, not only on a grid.

def _exact_form(entries, rows):
    """The Hermitian matrix of `entries` on the kernel's catalog inputs,
    restricted to the basis indices `rows`."""
    e = entries(ids._inputs(), ids._constant)
    zero = Expression.zero()
    return [[e.get((i, j), zero) if i <= j else e.get((j, i), zero).conjugate()
             for j in rows] for i in rows]


def test_exact_block_determinant_identity():
    """9 det of the (E11_{,1}, E11_{,b}) block of the 5x5 form is 3.11."""
    x, K = ids._inputs(), ids._constant
    block = _exact_form(form_entries, (2, 3))
    assert det(block) == K(1, 9) * kernel._cond_3_11(x, K)


def test_exact_det5_identity():
    """9 det of the 5x5 form is 3.12."""
    x, K = ids._inputs(), ids._constant
    m5 = _exact_form(form_entries, range(5))
    assert det(m5) == K(1, 9) * kernel._cond_3_12(
        x, K, lambda z: z * z.conjugate())


def test_equivalence_battery():
    report = rg.equivalence_battery(20_000, seed=11)
    assert report["ok"]
    assert report["kappa_rel_spread"] < 1e-9
    assert abs(report["kappa_mean"] - 1.0 / 9.0) < 1e-12


def test_form4_minors_are_leading_form5_minors():
    # `equiv` takes form 4's minors from form 5's
    x = rg._float_inputs(rg._sample_fields(np.random.default_rng(3), 20_000))
    m4, m5 = rg._stacked_forms(x)
    minors4, minors5 = rg._stacked_minors(m4), rg._stacked_minors(m5)
    assert np.array_equal(minors4, minors5[:, :4])
    assert np.array_equal(minors4.view(np.int64),
                          minors5[:, :4].view(np.int64))


# |LU minor - closed form| <= C u M, with M the closed form's sum of the
# magnitudes of its summands: the LU path rounds through other intermediates,
# and the largest ratio |LU - closed| / (u M) is 65 on the `test_output_pins`
# file (44 on the seed-1 benchmark file)
_LU_MINORS_C = 256


def test_lu_minors_agree_with_proven_minors():
    # `equiv` judges the closed forms that 3.8 proves by the LU minors of the
    # stacked forms; on the pinned point file the two agree within rounding
    from test_output_pins import _records

    x = rg._float_inputs(rg.point_columns(_records()[0]))
    lu = rg._stacked_minors(rg._stacked_forms(x)[1])
    closed = thm_b_minors(x, rg._float)
    magnitude = thm_b_minors(rg._magnitudes(x), rg._magnitude)
    for k in range(5):
        assert np.all(np.abs(lu[:, k] - closed[k])
                      <= _LU_MINORS_C * 2.0 ** -53 * magnitude[k]), k


def test_scale_identity_and_powers():
    p = PointData(R=1.3, R0=-0.4, R1=0.2 + 0.5j, lapR=0.7, A11=0.1 - 0.2j,
                  A11_1=0.3 + 0.1j, A11_b=-0.2 + 0.4j, A11_bb=0.05 + 0.02j)
    assert PointData(**rg._scaled(p._asdict(), 1.0)) == p
    ks = (1 / 7, 1 / 2, 3.0, 100.0)
    base, *scaled = rg.evaluate_conditions(rg._stack(
        [p] + [PointData(**rg._scaled(p._asdict(), k)) for k in ks]),
        ["3.11", "3.12", "thm-a"])
    for k, rep in zip(ks, scaled):
        for key, power in (("3.11", -2), ("3.12", -4), ("thm_a", -2)):
            assert rep["values"][key] == pytest.approx(
                base["values"][key] * k ** power, rel=1e-12)
    tf = PointData(R=2.0, R1=0.3 + 0.1j, lapR=-0.2)
    base, *scaled = rg.evaluate_conditions(rg._stack(
        [tf] + [PointData(**rg._scaled(tf._asdict(), k)) for k in ks]),
        ["corollaryC"])
    for k, rep in zip(ks, scaled):
        assert rep["values"]["corollaryC"] == pytest.approx(
            base["values"]["corollaryC"] * k ** -3, rel=1e-12)


def test_scaling_report_verdict_invariance():
    rng = np.random.default_rng(4)
    points = [PointData(**{name: v.item() for name, v in
                           rg._sample_fields(rng, 1).items()})
              for _ in range(25)]
    for rep in rg.scaling_report(rg._stack(points),
                                 [1 / 7, 1 / 2, 3.0, 100.0]):
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
    [rep] = rg.scaling_report(rg._stack([p]), ks)
    assert rep["ok"], rep
    assert rep["rows"][0]["errors"]["3.12"] > 1e-12
    # a value whose stated power is off by k^0.5 must still fail
    wrong = rg.Condition({"3.12 wrong": (kernel._cond_3_12, -4.5)}, (),
                         lambda s, v, b: ())
    monkeypatch.setitem(rg.CONDITIONS, "wrong", wrong)
    [rep] = rg.scaling_report(rg._stack([p]), ks)
    assert not rep["ok"]
    assert rep["rows"][1]["errors"]["3.12 wrong"] > 0.1


# Records whose band verdicts flipped under theta -> k theta while their bands
# had an absolute floor of 1e-12: p9064 of the benchmark's seed-1406 point
# file, where the corollaryC value is 2.9e-7 at k = 1 and 2.9e-13 at k = 100
# (2.3e-5 of its magnitude at both), and a thm-a value of 5e-13 on data of
# size 1e-3, which the floor called borderline at k = 1/7 and 1/2 only
P9064 = {"id": "p9064", "R": 0.014833972694646397,
         "R1": [0.028175877914651027, -0.016203170608666526],
         "lapR": 0.03524311776950177,
         "A11": [-0.0017286234778510063, -0.029285408319925103],
         "A11_1": [-0.01278205630867463, 0.017766013616438977],
         "A11_b": [0.015999709022361763, -0.0011792723947140356],
         "R0": 0.06248477519590994,
         "A11_bb": [-0.003411514425842085, 0.09378404111707908]}
SMALL_THM_A = {"id": "a", "R": -1e-3, "R0": 1e-3,
               "A11_bb": [0.0, (3 ** 0.5 * 1e-3 - 5e-13) / 2]}


@pytest.mark.parametrize("record", [P9064, SMALL_THM_A],
                         ids=["corollaryC", "thm-a"])
def test_eps_verdicts_scale_invariant(record):
    p = PointData.from_mapping(record)
    [rep] = rg.scaling_report(rg._stack([p]), [1 / 7, 1 / 2, 3.0, 100.0])
    assert [row["verdicts_invariant"] for row in rep["rows"]] == [True] * 4
    assert rep["ok"]


def _corollary_c_ratio(p: PointData) -> float:
    """corollaryC's v/M at p: as the row's band, it puts the verdict on its
    band edge."""
    x = rg._float_inputs(rg._stack([p]))
    return float(kernel._corollary_c(x, rg._float)[0]
                 / kernel._corollary_c(rg._magnitudes(x), rg._magnitude)[0])


def test_scaletest_judges_torsion_free_verdicts_at_torsion_free_points(
        monkeypatch):
    # on its band edge the corollaryC verdict flips under theta -> k theta;
    # corollaryC is defined only where A = 0, so the flip counts only there
    p = PointData(R=0.9034701816518086, lapR=0.09401229776087457,
                  R1=-0.7434992493538084 - 0.9217253762584194j,
                  A11=0.3 + 0.1j)
    twin = p._replace(A11=0j)
    band = _corollary_c_ratio(p)
    assert band == _corollary_c_ratio(twin)
    monkeypatch.setitem(rg.CONDITIONS, "corollaryC",
                        rg.CONDITIONS["corollaryC"]._replace(band=band))
    ks = [1 / 7, 1 / 2, 3.0, 100.0]
    [rep] = rg.scaling_report(rg._stack([p]), ks)
    assert rep["ok"], rep
    [rep] = rg.scaling_report(rg._stack([twin]), ks)
    assert not all(row["verdicts_invariant"] for row in rep["rows"])
    assert not rep["ok"]


def test_condition_bands():
    # the verdict bands are fixed facts of the table, relative to M
    assert {name: row.band for name, row in rg.CONDITIONS.items()} == {
        "thm-a": 1e-12, "thm-b": 0.0, "corollaryC": 1e-12, "3.11": 0.0,
        "3.12": 0.0, "bianchi": 1e-9}
    assert rg._BOUNDARY_BAND == 1e-9


def test_bianchi_band_scales_with_the_data():
    # a residual of 5e-10 on data of size 1e-3 is inconsistent at theta and
    # at theta / 100, where the residual is 5e-6 on data of size 10
    p = PointData(R=1e-3, R0=1e-3 + 5e-10, A11_bb=5e-4 + 0j)
    scaled = PointData(**rg._scaled(p._asdict(), 1 / 100))
    for rep in rg.evaluate_conditions(rg._stack([p, scaled]), ["bianchi"]):
        assert rep["values"]["bianchi_residual"] != 0.0
        assert rep["verdicts"] == {"bianchi": False}


def test_thm_a_band_scales_with_the_data():
    # 5e-13 is 1.4e-10 of the data's size, far outside the 1e-12 band
    [rep] = rg.evaluate_conditions(rg._stack(
        [PointData.from_mapping(SMALL_THM_A)]), ["thm-a"])
    assert rep["verdicts"] == {"thm_a": True, "thm_a_borderline": False}


def test_scaling_report_exact_zero_value():
    # torsion-free and Bianchi-consistent: thm-a is 0 with every summand 0
    [rep] = rg.scaling_report(rg._stack([PointData(R=-1.0)]), [1 / 7, 3.0])
    assert rep["ok"] and rep["rows"][0]["errors"]["thm_a"] == 0.0


def test_scaling_report_refuses_an_underflow():
    # at k = 1e100 the 3.12 value of R = 1 underflows to 0.0, which would
    # flip its verdict; a k that loses a value's digits is refused, as one
    # that overflows them is
    columns = rg._stack([PointData(R=1.0)])
    with pytest.raises(ValueError, match="underflow double precision at "
                                         r"k = 1e\+100"):
        rg.scaling_report(columns, [1e100])
    [rep] = rg.scaling_report(columns, [100.0])
    assert rep["ok"]


def test_values_that_underflow_are_refused_by_check_and_scaletest():
    # at R = 1e-200 the 3.11, 3.12 and corollaryC values and their M
    # underflow to 0.0, which would report thm-b and corollaryC as failing
    # (R = 1 passes both) and pass every scaling error vacuously
    columns = rg._stack([PointData(R=1e-200, id="u")])
    for conditions in (["thm-b"], ["corollaryC"]):
        with pytest.raises(ValueError, match="'u': values underflow double "
                                             "precision$"):
            rg.evaluate_conditions(columns, conditions)
    with pytest.raises(ValueError, match="'u': values underflow double "
                                         "precision$"):
        rg.scaling_report(columns, [3.0])
    # a value whose summands are all exactly 0 has lost no digits
    [rep] = rg.evaluate_conditions(columns, ["thm-a", "bianchi"])
    assert rep["values"] == {"thm_a": 0.0, "bianchi_residual": 0.0}
    [rep] = rg.evaluate_conditions(rg._stack([PointData(R=1.0)]),
                                   ["thm-b", "corollaryC"])
    assert rep["passed"] == {"thm-b": True, "corollaryC": True}


def test_evaluate_conditions_refuses_an_overflowing_band():
    # thm-a's value is finite, but its M = sqrt3*1e308 + 1e308 is not, so
    # the band 1e-12*M would be inf and the borderline vacuous
    columns = rg._stack([PointData(R=-1.0, R0=1e308, A11_bb=0.5e308j,
                                   id="t")])
    with np.errstate(over="ignore"):
        values, _ = rg._evaluate(columns, rg._float_inputs(columns),
                                 [rg.CONDITIONS["thm-a"]])
    assert np.isfinite(values["thm_a"][0]) and np.isinf(values["thm_a"][1])
    with pytest.raises(ValueError, match="'t': values overflow double "
                                         "precision"):
        rg.evaluate_conditions(columns, ["thm-a"])


def test_torsion_free_consistency():
    # with A = 0: positive definiteness of the 4x4 form <=> R > 0
    Rs = (-2.0, -0.1, 0.5, 3.0)
    points = [PointData(R=R) for R in Rs]
    reps = rg.evaluate_conditions(rg._stack(points), ["3.11"])
    for R, p, rep in zip(Rs, points, reps):
        assert all(m > 0 for m in build_form_4(p).leading_minors()) == (R > 0)
        # equals (3/8) R^2 when A = 0
        assert (rep["values"]["3.11"] > 0) == (R != 0)


def test_torsion_free_quadratic_form_det_identity():
    """det of the torsion-free 4-variable form equals the rigidity value / 648."""
    x, K = ids._inputs(), ids._constant
    m = _exact_form(torsion_free_entries, (0, 1, 2, 4))
    assert det(m) == K(1, 648) * kernel._corollary_c(x, K)


def test_torsion_free_form_pd_blocks():
    # constant positive curvature: the reduced 3x3 block is positive definite
    h = HermitianForm(np.array([[2 / 3, -1, -1 / 6],
                                [-1, 2, 2 / 3],
                                [-1 / 6, 2 / 3, 2 / 3]], dtype=complex))
    minors = h.leading_minors()
    assert all(m > 0 for m in minors)
    assert minors[2] == pytest.approx(5 / 54)


# each point field's counterpart in the catalog grammar (lapR = -(R_{1b} +
# R_{b1}) has the weight of R_{1b})
_CATALOG_FIELDS = {"R": "R", "R0": "R_{0}", "R1": "R_{1}", "lapR": "R_{1b}",
                   "A11": "A11", "A11_1": "A11_{1}", "A11_b": "A11_{b}",
                   "A11_bb": "A11_{bb}"}


def _weights(e: Expression) -> set:
    return {sum(f.weight() for f in factors) for factors, _ in e.items()}


def test_field_table_matches_the_catalog():
    assert tuple(rg._FIELDS) == PointData._fields[:-1]
    assert PointData._fields[-1] == "id"
    for name, field in rg._FIELDS.items():
        [w] = _weights(parse(_CATALOG_FIELDS[name]))
        assert field.weight == w / 2, name
        assert field.torsion == name.startswith("A11"), name
        assert field.complex == (name in ("R1", "A11", "A11_1", "A11_b",
                                          "A11_bb")), name
        assert isinstance(getattr(PointData(R=0.0), name),
                          complex if field.complex else float), name


def test_condition_powers_match_the_catalog_weights():
    x, K = ids._inputs(), ids._constant
    for row in rg.CONDITIONS.values():
        for key, (fn, power) in row.values.items():
            if power is None:
                continue
            extra = ({"abs2": lambda z: z * z.conjugate()}
                     if fn is kernel._cond_3_12 else {})
            [w] = _weights(fn(x, K, **extra))
            assert power == -w / 2, key


def test_pointdata_io():
    rec = {"id": "x", "R": 1.5, "R1": [0.2, -0.3], "A11": [0.1, 0.4]}
    p = PointData.from_mapping(rec)
    assert p.R1 == complex(0.2, -0.3)
    assert p.A11_bb == 0
    assert p.id == "x" and p.A11 == complex(0.1, 0.4)
    with pytest.raises(ValueError):
        PointData.from_mapping({"id": "bad"})


def test_evaluate_conditions_report():
    p = PointData(R=1.0, id="pt")
    [rep] = rg.evaluate_conditions(rg._stack([p]),
                                   ["thm-b", "corollaryC", "bianchi"])
    assert rep["verdicts"]["thm_b"] and rep["verdicts"]["corollaryC"]
    assert rep["verdicts"]["bianchi"] and not rep["errors"]
    [rep2] = rg.evaluate_conditions(
        rg._stack([PointData(R=1.0, A11=1 + 0j)]), ["corollaryC"])
    assert rep2["errors"]


def test_evaluate_computes_a_shared_key_once():
    # two rows that report the same key share one (v, M) computation
    calls = []

    def counted(x, num):
        calls.append(num)
        return rg._cond_3_11(x, num)

    value = {"3.11": (counted, -2.0)}
    rows = [rg.Condition(value, ("a",), lambda s, v, b: (v[0] > 0,)),
            rg.Condition(value, ("b",), lambda s, v, b: (v[0] <= 0,))]
    s = rg._stack([PointData(R=1.0, id="pt")])
    values, verdicts = rg._evaluate(s, rg._float_inputs(s), rows)
    assert calls == [rg._float, rg._magnitude]
    assert list(values) == ["3.11"]
    assert verdicts["a"].tolist() == [True] and verdicts["b"].tolist() == [False]
