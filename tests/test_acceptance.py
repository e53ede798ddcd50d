"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single [criterion N] PASS/FAIL line; the whole module is
the exit gate for the build.
"""

import time

import numpy as np
import pytest

from phbochner import identities as ids
from phbochner import kernel
from phbochner import rigidity as rg
from phbochner.kernel import det, form_entries
from phbochner.rigidity import PointData
from phbochner.scalar import ScalarExact


def _report(number: int, label: str, ok: bool):
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_section2_chain():
    """Symbolic closure of the first derivation chain, exact and fast."""
    t0 = time.time()
    results = [ids.run_script(i) for i in ("2.3", "2.7", "2.8", "2.11")]
    elapsed = time.time() - t0
    ok = all(r.passed and r.residual is None for r in results)
    ok &= elapsed < 10.0
    # the distinguished parameter kills T-derivative terms; alpha = 1 does not
    good = ids.run_script("2.7")
    bad = ids.script_2_7(ScalarExact(1))(ids._target("2.7"))
    ok &= good.passed and not good.details["residual_has_T_derivative"]
    ok &= (not bad.passed) and bad.details["residual_has_T_derivative"]
    _report(1, f"section-2 chain exact in {elapsed:.2f}s, "
               "T-terms vanish iff alpha = i*sqrt3", ok)


def test_criterion_2_bianchi_consistency():
    """The Bianchi rule with A = 0 annihilates the final f^2 integrand."""
    result = ids.run_script("2.11")
    ok = result.passed and result.details["bianchi_torsion_free_f2"].is_zero()
    _report(2, "Bianchi + torsion-free annihilates the f^2 integrand", ok)


def test_criterion_3_section3_chain():
    """Symbolic closure of the deformation chain, with exact coefficients."""
    ok = True
    for ident in ("3.2", "3.3", "3.4"):
        ok &= ids.run_script(ident).passed
    # the completed square for all real lam, rho, one coefficient at a time
    ok &= ids.run_script("3.6").passed
    # coefficient bookkeeping into the estimated form
    ok &= ids.run_script("3.8").passed
    # the torsion identity closes exactly, less its slice witness
    r35 = ids.run_script("3.5")
    ok &= r35.passed and r35.residual is None
    _report(3, "section-3 chain exact; torsion identity closes exactly "
               "modulo IBP less its slice witness", ok)


def test_criterion_4_pointwise_inequality():
    """The cube-root estimate is a completed square, tight on a family."""
    result = ids.run_script("3.7")
    steps = dict(result.steps)
    ok = (result.passed and steps["lhs - rhs - square"] == "0"
          and steps["lhs - rhs on the tight family"] == "0")
    _report(4, "lhs - rhs = (2/3)|W^2 v + i conj(W u)|^2 exactly, "
               "equality on the tight family", ok)


def test_criterion_5_determinant_equivalences():
    """Exact block-determinant identity and sampled form equivalences."""
    # an identity in the catalog symbols of the kernel's inputs (t = W*Wb)
    x, K = ids._inputs(), ids._constant
    e = form_entries(x, K)
    block = [[e[2, 2], e[2, 3]], [e[2, 3].conjugate(), e[3, 3]]]
    ok = det(block) == K(1, 9) * kernel._cond_3_11(x, K)
    battery = rg.equivalence_battery(100_000, seed=20240814)
    ok &= battery["mismatches_form4"] == 0 and battery["mismatches_form5"] == 0
    _report(5, "block det = (1/9) scalar condition identically; "
               f"10^5 samples, {battery['mismatches_form4']}+"
               f"{battery['mismatches_form5']} mismatches "
               f"({battery['boundary_skips']} boundary skips)", ok)


def test_criterion_6_scaling_laws():
    """Condition values scale by the exact stated powers; verdicts invariant."""
    p = PointData(R=1.3, R0=-0.4, R1=0.2 + 0.5j, lapR=0.7, A11=0.1 - 0.2j,
                  A11_1=0.3 + 0.1j, A11_b=-0.2 + 0.4j, A11_bb=0.05 + 0.02j)
    tf = PointData(R=2.0, R1=0.3 + 0.1j, lapR=-0.2)
    ks = (1 / 7, 1 / 2, 3.0, 100.0)
    p0, *ps = rg.evaluate_conditions(rg._stack(
        [p] + [PointData(**rg._scaled(p._asdict(), k)) for k in ks]),
        ["3.11", "3.12", "thm-a"])
    tf0, *tfs = rg.evaluate_conditions(rg._stack(
        [tf] + [PointData(**rg._scaled(tf._asdict(), k)) for k in ks]),
        ["corollaryC"])
    ok = True
    worst = 0.0
    for k, q, tq in zip(ks, ps, tfs):
        checks = [
            (q["values"]["3.11"], p0["values"]["3.11"] * k ** -2),
            (q["values"]["3.12"], p0["values"]["3.12"] * k ** -4),
            (q["values"]["thm_a"], p0["values"]["thm_a"] * k ** -2),
            (tq["values"]["corollaryC"],
             tf0["values"]["corollaryC"] * k ** -3),
        ]
        for got, want in checks:
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
            ok &= rel < 1e-12
    rng = np.random.default_rng(20240814)
    points = [PointData(**{name: v.item() for name, v in
                           rg._sample_fields(rng, 1).items()})
              for _ in range(50)]
    ok &= all(rep["ok"]
              for rep in rg.scaling_report(rg._stack(points), list(ks)))
    _report(6, f"scaling powers k^-2/k^-3/k^-4 exact (worst rel {worst:.2e}), "
               "verdicts invariant", ok)


def test_criterion_7_sylvester_oracle():
    """Sylvester verdict agrees with the eigenvalue oracle on 10^4 matrices."""
    battery = rg.sylvester_battery(10_000, seed=20240814)
    ok = battery["disagreements"] == 0
    _report(7, f"10^4 Hermitian matrices sizes 2-6, "
               f"{battery['disagreements']} disagreements "
               f"({battery['boundary_skips']} boundary skips)", ok)


def test_criterion_8_mutation_sensitivity():
    """Perturbing any single catalog coefficient by +1 flips PASS to FAIL."""
    total = killed = 0
    survivors = []
    for ident in ids.MUTABLE_IDS:
        report = ids.mutation_test(ident)
        total += report["mutants"]
        killed += report["killed"]
        survivors += [f"{ident}: {s}" for s in report["survivors"]]
    ok = total > 0 and killed == total
    _report(8, f"mutation kill rate {killed}/{total}"
               + (f", survivors: {survivors}" if survivors else ""), ok)
