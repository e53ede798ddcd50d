"""Seeded point files with planted answers, and the checks that use them.

The generator follows the magnitude mix of the program's own random points
(a log-uniform scale between 10^-1.5 and 10, complex entries with Gaussian
parts, torsion at 0.3 of the scale) and plants answers that a correct program
must reproduce:

* Bianchi: half the points satisfy R0 = 2 Re(A11_bb) exactly (a float times
  two is exact); the other half miss it by at least half the scale.
* thm-a: the value sqrt3 R0 - 2 Im(A11_bb) is set to a chosen sign at no less
  than half the scale, so the verdict is known without evaluating the program.
  Torsion-free Bianchi-consistent points have value exactly 0, the borderline
  case.
* corollaryC: a tenth of the points are torsion-free; lap R is solved for so
  that 4R(5R^2 + 3 lap R) - 6|R1|^2 has a chosen sign with a margin of at
  least a fiftieth of its terms, checked in exact rational arithmetic.
* thm-b is not planted: its verdict must agree with the Sylvester sign pattern
  of the form-5 minors the program reports, outside a relative boundary band
  (the determinant equivalence of the paper).
* scaletest: every point passes mathematically.  Points that fail only by the
  1e-12 homogeneity bound, with every verdict invariant, are the known
  cancellation defect: they count as failed operations, not as wrong answers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

TORSION_FREE_SHARE = 0.1
SQRT3 = 3.0 ** 0.5
# thm-b equivalence band, the same relative band the equivalence battery uses
THMB_BAND = 1e-9
# a scaletest failure with every verdict invariant and every homogeneity
# error below this is the known cancellation defect; anything else is wrong
SCALETEST_DEFECT_MAX_ERROR = 1e-6


@dataclass(frozen=True)
class Planted:
    id: str
    torsion_free: bool
    bianchi: bool
    thm_a: bool
    thm_a_borderline: bool
    corollary_c: bool | None   # only for torsion-free points


def _sign(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _cplx(rng: random.Random, scale: float) -> list[float]:
    return [scale * rng.gauss(0.0, 1.0), scale * rng.gauss(0.0, 1.0)]


def generate(seed: int, n: int) -> tuple[list[dict], list[Planted]]:
    """n point records and their planted answers, a function of the seed."""
    rng = random.Random(seed)
    records, planted = [], []
    for k in range(n):
        mag = 10.0 ** rng.uniform(-1.5, 1.0)
        torsion_free = rng.random() < TORSION_FREE_SHARE
        consistent = rng.random() < 0.5
        rec = {"id": f"p{k}", "R": mag * rng.gauss(0.0, 1.0),
               "R1": _cplx(rng, mag), "lapR": mag * rng.gauss(0.0, 1.0)}
        miss = 0.0 if consistent else _sign(rng) * mag * rng.uniform(0.5, 2.0)
        corollary = None
        if torsion_free:
            R = _sign(rng) * mag * rng.uniform(0.2, 2.0)
            r1_sq = rec["R1"][0] ** 2 + rec["R1"][1] ** 2
            target = (_sign(rng) * rng.uniform(0.1, 1.0)
                      * (20.0 * abs(R) ** 3 + 6.0 * r1_sq))
            rec["R"] = R
            rec["lapR"] = (target - 20.0 * R ** 3 + 6.0 * r1_sq) / (12.0 * R)
            rec["R0"] = miss
            for name in ("A11", "A11_1", "A11_b", "A11_bb"):
                rec[name] = [0.0, 0.0]
            value = rec["R0"] * SQRT3
            corollary = _corollary_sign(rec) > 0 and R > 0
        else:
            for name in ("A11", "A11_1", "A11_b"):
                rec[name] = _cplx(rng, 0.3 * mag)
            re_bb = 0.3 * mag * rng.gauss(0.0, 1.0)
            rec["R0"] = 2.0 * re_bb + miss
            value = _sign(rng) * mag * rng.uniform(0.5, 2.0)
            rec["A11_bb"] = [re_bb, (SQRT3 * rec["R0"] - value) / 2.0]
        records.append(rec)
        planted.append(Planted(
            id=rec["id"], torsion_free=torsion_free, bianchi=consistent,
            thm_a=rec["R"] < 0 and value > 0,
            thm_a_borderline=rec["R"] < 0 and value == 0.0,
            corollary_c=corollary))
    return records, planted


def _corollary_sign(rec: dict) -> int:
    """Sign of 4R(5R^2 + 3 lap R) - 6|R1|^2, exactly, with a margin check."""
    R, lap = Fraction(rec["R"]), Fraction(rec["lapR"])
    r1_sq = Fraction(rec["R1"][0]) ** 2 + Fraction(rec["R1"][1]) ** 2
    terms = (20 * R ** 3, 12 * R * lap, -6 * r1_sq)
    value = sum(terms)
    if abs(value) < Fraction(1, 50) * sum(abs(t) for t in terms):
        raise AssertionError(f"planted corollaryC margin lost at {rec['id']}")
    return 1 if value > 0 else -1


def write(path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump(records, fh)


# ---------------------------------------------------------------------------
# Known-answer checks.  Each returns (attempted, failed, problems): problems
# are failures that the known defect does not explain.
# ---------------------------------------------------------------------------

def _near_zero(x: float) -> bool:
    return abs(x) <= THMB_BAND * max(1.0, abs(x))


def thm_b_in_band(rep: dict, R: float) -> bool:
    minors = rep["minors"]["form_5"]
    big = max(1.0, max(abs(m) for m in minors))
    return (min(abs(m) for m in minors) <= THMB_BAND * big
            or _near_zero(rep["values"]["3.11"])
            or _near_zero(rep["values"]["3.12"]) or _near_zero(R))


def check_points(report: dict, records: list[dict],
                 planted: list[Planted]) -> tuple[int, int, list[str], int]:
    """`check --cond thm-a --cond thm-b --cond bianchi` on the full file.

    Returns (attempted, failed, problems, thm-b band skips).
    """
    reps = report["points"]
    if len(reps) != len(planted) or report["n_points"] != len(planted):
        return len(planted), len(planted), ["check: point count differs"], 0
    failed, problems, skips = 0, [], 0
    for rep, rec, want in zip(reps, records, planted):
        bad = []
        if rep["id"] != want.id or rep["errors"]:
            bad.append(f"id/errors {rep['id']} {rep['errors']}")
        else:
            v = rep["verdicts"]
            if v["bianchi"] != want.bianchi:
                bad.append("bianchi")
            if (v["thm_a"], v["thm_a_borderline"]) != (want.thm_a,
                                                        want.thm_a_borderline):
                bad.append("thm-a")
            if thm_b_in_band(rep, rec["R"]):
                skips += 1
            elif v["thm_b"] != all(m > 0 for m in rep["minors"]["form_5"]):
                bad.append("thm-b vs form-5 minors")
            passes = {"thm-a": want.thm_a or want.thm_a_borderline,
                      "bianchi": want.bianchi, "thm-b": v["thm_b"]}
            if rep["passed"] != passes:
                bad.append("passed map")
        if bad:
            failed += 1
            problems.append(f"{want.id}: {', '.join(bad)}")
    if report["ok"] != all(all(r["passed"].values()) and not r["errors"]
                           for r in reps):
        problems.append("check: ok flag disagrees with the points")
    return len(planted), failed, problems, skips


def check_corollary(report: dict, planted: list[Planted]
                    ) -> tuple[int, int, list[str]]:
    """`check --cond corollaryC` on the torsion-free subset."""
    want_tf = [p for p in planted if p.torsion_free]
    reps = report["points"]
    if len(reps) != len(want_tf):
        return len(want_tf), len(want_tf), ["corollaryC: point count differs"]
    failed, problems = 0, []
    for rep, want in zip(reps, want_tf):
        if (rep["id"] != want.id or rep["errors"]
                or rep["verdicts"].get("corollaryC") != want.corollary_c
                or rep["passed"] != {"corollaryC": want.corollary_c}):
            failed += 1
            problems.append(f"{want.id}: corollaryC")
    return len(want_tf), failed, problems


def check_scaletest(report: dict, planted: list[Planted]
                    ) -> tuple[int, int, list[str]]:
    """`scaletest` on the full file: every point must pass."""
    rows = report["points"]
    if len(rows) != len(planted):
        return len(planted), len(planted), ["scaletest: point count differs"]
    failed, problems = 0, []
    for row, want in zip(rows, planted):
        if row["id"] != want.id:
            failed += 1
            problems.append(f"{want.id}: scaletest id {row['id']}")
        elif not row["ok"]:
            failed += 1
            errors = [e for r in row["rows"] for e in r["errors"].values()]
            known = (all(r["verdicts_invariant"] for r in row["rows"])
                     and all(math.isfinite(e) for e in errors)
                     and max(errors) < SCALETEST_DEFECT_MAX_ERROR)
            if not known:
                problems.append(f"{want.id}: scaletest verdicts or errors")
    if report["ok"] != (failed == 0):
        problems.append("scaletest: ok flag disagrees with the points")
    return len(planted), failed, problems
