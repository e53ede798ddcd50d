"""Pointwise rigidity conditions: Hermitian forms, Sylvester checks, scaling.

All conditions are algebraic in the curvature/torsion data at a point, which
the caller supplies directly (computing R, A from a contact form is out of
scope).  Fractional powers |z|^{2/3}, |z|^{4/3} are evaluated as (|z|^2)^{1/3}
and its square, via the real cube root, so no complex branch is involved.

The form entries and condition formulas come from `kernel`, which
`identities` also runs, exactly, on catalog expressions; this module runs
them on numpy arrays holding a whole batch of points, with the float
constant constructor `_float`.

Boundary behaviour: the band verdicts (thm-a, its borderline and corollaryC
at eps, bianchi at 1e-9) compare a value with the band times a magnitude
that scales as the value does, with no absolute floor, so rescaling the
contact form leaves them unchanged; "= 0" cases (the borderline automorphism
condition) are reported as "within epsilon of zero", never asserted exactly
from floats.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple

import numpy as np

from .kernel import (FormInputs, _bianchi, _cond_3_11, _cond_3_12,
                     _corollary_c, _thm_a, form_entries)

__all__ = [
    "PointData", "HermitianForm", "Condition", "CONDITIONS",
    "build_form_4", "build_form_5", "equivalence_battery", "sylvester_battery",
    "evaluate_conditions", "scaling_report",
]

DEFAULT_EPS = 1e-12
_SQRT3 = 3.0 ** 0.5


class _Field(NamedTuple):
    complex: bool
    torsion: bool
    weight: float    # the field scales by k^-weight under theta -> k theta


# every point field, in `PointData` order
_FIELDS = {
    "R": _Field(False, False, 1.0),
    "R0": _Field(False, False, 2.0),
    "R1": _Field(True, False, 1.5),
    "lapR": _Field(False, False, 2.0),
    "A11": _Field(True, True, 1.0),
    "A11_1": _Field(True, True, 1.5),
    "A11_b": _Field(True, True, 1.5),
    "A11_bb": _Field(True, True, 2.0),
}
# (name, complex) in the order records are read: real fields first
_READ_ORDER = sorted(((name, f.complex) for name, f in _FIELDS.items()),
                     key=lambda item: item[1])


class PointData(NamedTuple):
    """Curvature/torsion data at one point, in the units of a fixed contact form.

    Complex entries follow the convention A11_1 = A11 differentiated in the 1
    direction, A11_b in the 1-bar direction, A11_bb twice in the 1-bar
    direction; R1 is the 1-derivative of R (the 1-bar derivative is its
    conjugate and never stored), and |grad_b R|^2 = 2|R1|^2 is always derived.
    """

    R: float
    R0: float = 0.0
    R1: complex = 0j
    lapR: float = 0.0
    A11: complex = 0j
    A11_1: complex = 0j
    A11_b: complex = 0j
    A11_bb: complex = 0j
    id: str = ""

    @classmethod
    def from_mapping(cls, data: dict) -> "PointData":
        """A point record: finite numbers, complex ones as [re, im] pairs."""
        if not isinstance(data, dict) or "R" not in data:
            raise ValueError(f"point record is not an object with the "
                             f"field 'R': {data!r}")
        pid = str(data.get("id", ""))
        kwargs = {"id": pid}
        for name, is_complex in _READ_ORDER:
            if name not in data:
                continue
            value = data[name]
            pair = is_complex and isinstance(value, (list, tuple))
            parts = value if pair and len(value) == 2 else [value]
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max for v in parts):
                raise ValueError(f"point {pid!r}: field {name!r} is not a "
                                 f"finite number: {value!r}")
            kwargs[name] = complex(*parts) if is_complex else float(value)
        return cls(**kwargs)


def _stack(points: list[PointData]) -> dict[str, np.ndarray]:
    """Point data as one array per field."""
    return {name: np.array([getattr(p, name) for p in points],
                           dtype=complex if f.complex else float)
            for name, f in _FIELDS.items()}


def _torsion_free(s: dict) -> np.ndarray:
    return np.logical_and.reduce(
        [np.abs(s[name]) <= DEFAULT_EPS
         for name, f in _FIELDS.items() if f.torsion])


# ---------------------------------------------------------------------------
# Kernel inputs and constants on float batches
# ---------------------------------------------------------------------------

def _float(n, d=1, s3=False):
    """Constant constructor of the float path: n/d, times sqrt3 if s3; n is
    an integer or an imaginary integer such as 5j."""
    return n / d * _SQRT3 if s3 else n / d


def _magnitude(n, d=1, s3=False):
    """Constant constructor that evaluates a formula's M (see `kernel`)."""
    return abs(_float(n, d, s3))


def _magnitudes(x: FormInputs) -> FormInputs:
    """|inputs|: a formula run on them with `_magnitude` gives its M."""
    return FormInputs(*(np.abs(v) for v in x))


def _float_inputs(s: dict) -> FormInputs:
    return FormInputs(
        R=s["R"], t=(np.abs(s["A11_1"]) ** 2) ** (1.0 / 3.0),
        a2=np.abs(s["A11"]) ** 2, lapR=s["lapR"], imbb=s["A11_bb"].imag,
        Rb=np.conj(s["R1"]), Ab=np.conj(s["A11"]), Ab1=np.conj(s["A11_b"]),
        R0=s["R0"], rebb=s["A11_bb"].real, grad2=2.0 * np.abs(s["R1"]) ** 2)


# ---------------------------------------------------------------------------
# The condition table
# ---------------------------------------------------------------------------

class Condition(NamedTuple):
    """One row of the condition table (its key is the CLI name).

    `values` maps each reported value's JSON key to (formula, scaling power
    under theta -> k theta); a power of None leaves the row out of
    `scaling_report`.  `verdict(fields, inputs, values, eps)` returns one
    array per key of `verdicts`, and the condition passes where any of them
    holds.
    """

    values: dict[str, tuple[Callable, float | None]]
    verdicts: tuple[str, ...]
    verdict: Callable
    torsion_free: bool = False   # defined only where A = 0
    minors: bool = False         # also reports the leading minors of both forms


def _thm_a_verdicts(s, x, v, eps):
    band = eps * np.maximum(np.abs(_SQRT3 * s["R0"]),
                            2.0 * np.abs(s["A11_bb"].imag))
    negative = s["R"] < 0
    return negative & (v[0] > band), negative & (np.abs(v[0]) <= band)


def _corollary_c_verdict(s, x, v, eps):
    band = eps * _corollary_c(_magnitudes(x), _magnitude)
    return ((s["R"] > 0) & (v[0] > band),)


def _bianchi_verdict(s, x, v, eps):
    band = 1e-9 * _bianchi(_magnitudes(x), _magnitude)
    return (np.abs(v[0]) <= band,)


_V_3_11 = {"3.11": (_cond_3_11, -2.0)}
_V_3_12 = {"3.12": (_cond_3_12, -4.0)}

CONDITIONS: dict[str, Condition] = {
    "thm-a": Condition({"thm_a": (_thm_a, -2.0)},
                       ("thm_a", "thm_a_borderline"), _thm_a_verdicts),
    "thm-b": Condition({**_V_3_11, **_V_3_12}, ("thm_b",),
                       lambda s, x, v, eps: ((s["R"] > 0) & (v[0] > 0)
                                             & (v[1] > 0),),
                       minors=True),
    "corollaryC": Condition({"corollaryC": (_corollary_c, -3.0)},
                            ("corollaryC",), _corollary_c_verdict,
                            torsion_free=True),
    "3.11": Condition(_V_3_11, ("3.11",), lambda s, x, v, eps: (v[0] > 0,)),
    "3.12": Condition(_V_3_12, ("3.12",), lambda s, x, v, eps: (v[0] > 0,)),
    "bianchi": Condition({"bianchi_residual": (_bianchi, None)}, ("bianchi",),
                         _bianchi_verdict),
}


# ---------------------------------------------------------------------------
# Hermitian forms
# ---------------------------------------------------------------------------

class HermitianForm:
    """Square complex matrix, Hermitian by construction."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("HermitianForm requires a square matrix")
        if not np.array_equal(m, m.conj().T):
            raise ValueError("matrix is not exactly Hermitian")
        self.matrix = m

    def leading_minors(self) -> list[float]:
        return _stacked_minors(self.matrix[None])[0].tolist()


def _stacked_forms(x: FormInputs) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 and 5x5 forms of a batch, shapes (n, 4, 4) and (n, 5, 5)."""
    m5 = np.zeros((len(x.R), 5, 5), dtype=complex)
    for (i, j), entry in form_entries(x, _float).items():
        m5[:, i, j] = entry
        if i != j:
            m5[:, j, i] = np.conj(entry)
    return m5[:, :4, :4], m5


def _stacked_minors(m: np.ndarray) -> np.ndarray:
    n = m.shape[1]
    return np.stack([np.linalg.det(m[:, :k, :k]).real
                     for k in range(1, n + 1)], axis=1)


def build_form_4(p: PointData) -> HermitianForm:
    """4x4 form in (E11_{,b1}, iE11_{,0}, E11_{,1}, E11_{,b})."""
    return HermitianForm(_stacked_forms(_float_inputs(_stack([p])))[0][0])


def build_form_5(p: PointData) -> HermitianForm:
    """5x5 form in (E11_{,b1}, iE11_{,0}, E11_{,1}, E11_{,b}, E11)."""
    return HermitianForm(_stacked_forms(_float_inputs(_stack([p])))[1][0])


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------

def _require_finite(ids: list[str], arrays, where: str = "") -> None:
    """Raise ValueError naming the first point with a non-finite value."""
    finite = np.logical_and.reduce(
        [np.isfinite(a).reshape(len(ids), -1).all(axis=1) for a in arrays])
    if not finite.all():
        raise ValueError(f"point {ids[int(np.argmin(finite))]!r}: values "
                         f"overflow double precision{where}")


def evaluate_conditions(points: list[PointData], conditions: list[str],
                        eps: float = DEFAULT_EPS) -> list[dict]:
    """One report per point, each condition evaluated on the batch.

    A report holds the point's `id`, its condition `values`, `verdicts` and
    form `minors`, whether it `passed` each requested condition, and its
    input `errors`.  Raises ValueError when a value overflows double
    precision.
    """
    with np.errstate(all="ignore"):
        s = _stack(points)
        x = _float_inputs(s)
        torsion_free = _torsion_free(s).tolist()
        ids = [p.id for p in points]
        reports = [{"id": pid, "values": {}, "verdicts": {}, "minors": {},
                    "passed": {}, "errors": []} for pid in ids]
        for name in conditions:
            row = CONDITIONS[name]
            values = [fn(x, _float) for fn, _ in row.values.values()]
            minors = ([_stacked_minors(m) for m in _stacked_forms(x)]
                      if row.minors else [])
            _require_finite(ids, values + minors)
            verdicts = row.verdict(s, x, values, eps)
            passed = np.logical_or.reduce(verdicts).tolist()
            values = [v.tolist() for v in values]
            verdicts = [v.tolist() for v in verdicts]
            minors = [m.tolist() for m in minors]
            for i, rep in enumerate(reports):
                rep["passed"][name] = False
                if row.torsion_free and not torsion_free[i]:
                    rep["errors"].append("the torsion-free condition "
                                         "requires A = 0 input")
                    continue
                rep["values"].update(zip(row.values, (v[i] for v in values)))
                rep["verdicts"].update(zip(row.verdicts,
                                           (v[i] for v in verdicts)))
                if minors:
                    rep["minors"]["form_4"] = minors[0][i]
                    rep["minors"]["form_5"] = minors[1][i]
                rep["passed"][name] = passed[i]
        return reports


# ---------------------------------------------------------------------------
# Contact-form scaling
# ---------------------------------------------------------------------------

# Homogeneity bound constant C in |v_k - k^p v_0| <= C u (M_k + |k^p| M_0).
# Counting roundings as Higham does (ch. 3, |theta_n| <= gamma_n ~ n u), the
# deepest value, 3.12 on scaled data, carries at most 44 along one path: a
# scaled field carries 3 (pow, product), |z|^2 of one 11 (hypot, square), t
# 10 (4 through the cube root, 2 for pow, 4 for the rounded exponent 1/3,
# which moves t_k / t_0 by about |ln k| u / 2: within 4u while |ln k| <= 8),
# and the products and sums of 3.12 the rest.  k^p v_0 adds 3 (pow, product).
_HOMOGENEITY_C = 48
_UNIT_ROUNDOFF = 2.0 ** -53


def _scaled(fields, k: float) -> dict:
    return {name: fields[name] * k ** -f.weight for name, f in _FIELDS.items()}


def _scaling_pass(s: dict, eps: float) -> tuple[dict, dict]:
    """The scale-invariant rows on one batch: {key: (v, M, power)} for their
    values and {key: verdict} for their verdicts."""
    rows = [row for row in CONDITIONS.values()
            if all(power is not None for _, power in row.values.values())]
    x = _float_inputs(s)
    magnitudes = _magnitudes(x)
    values = {key: (fn(x, _float), fn(magnitudes, _magnitude), power)
              for row in rows for key, (fn, power) in row.values.items()}
    verdicts = {}
    for row in rows:
        verdicts.update(zip(row.verdicts, row.verdict(
            s, x, [values[key][0] for key in row.values], eps)))
    return values, verdicts


def scaling_report(points: list[PointData], ks: list[float],
                   eps: float = DEFAULT_EPS) -> list[dict]:
    """Value homogeneity and verdict invariance, one batched pass per k.

    A value v of power p passes at k when |v_k - k^p v_0| <= C u (M_k +
    |k^p| M_0), with M the sum of the magnitudes of v's summands, u the unit
    roundoff and C = _HOMOGENEITY_C; `errors` reports |v_k - k^p v_0|
    relative to the larger of |v_k| and |k^p v_0|.  Verdicts use the band
    eps, as in `evaluate_conditions`.  Raises ValueError when a value or its
    M overflows double precision.
    """
    with np.errstate(all="ignore"):
        s = _stack(points)
        ids = [p.id for p in points]
        values0, verdicts0 = _scaling_pass(s, eps)
        _require_finite(ids, [a for v, m, _ in values0.values()
                              for a in (v, m)])
        # torsion-free rows are judged, and their values reported, at
        # torsion-free points only
        torsion_free = _torsion_free(s)
        partial = {key for row in CONDITIONS.values() if row.torsion_free
                   for key in (*row.values, *row.verdicts)}
        ok = np.ones(len(points), dtype=bool)
        reports = [{"id": pid, "ok": True, "rows": []} for pid in ids]
        for k in ks:
            values, verdicts = _scaling_pass(_scaled(s, np.float64(k)), eps)
            _require_finite(ids, [a for v, m, _ in values.values()
                                  for a in (v, m)], f" at k = {k}")
            invariant = np.logical_and.reduce(
                [(verdicts[key] == v0) | (key in partial and ~torsion_free)
                 for key, v0 in verdicts0.items()])
            errors = {}
            for key, (v0, m0, power) in values0.items():
                vk, mk, _ = values[key]
                kp = np.float64(k) ** power
                diff = np.abs(vk - v0 * kp)
                ok &= diff <= (_HOMOGENEITY_C * _UNIT_ROUNDOFF
                               * (mk + abs(kp) * m0))
                errors[key] = (diff / np.maximum(np.maximum(np.abs(v0 * kp),
                                                            np.abs(vk)), 1e-300)
                               ).tolist()
            ok &= invariant
            for i, (rep, inv, tf) in enumerate(zip(
                    reports, invariant.tolist(), torsion_free.tolist())):
                rep["rows"].append({
                    "k": k,
                    "errors": {key: rel[i] for key, rel in errors.items()
                               if tf or key not in partial},
                    "verdicts_invariant": inv})
        for rep, good in zip(reports, ok.tolist()):
            rep["ok"] = good
        return reports


# ---------------------------------------------------------------------------
# Sampling batteries
# ---------------------------------------------------------------------------

def _sample_fields(rng: np.random.Generator, n: int) -> dict:
    """n random points, one array per field: a log-uniform scale, Gaussian
    parts, torsion at 0.3 of the scale; drawn in `_FIELDS` order."""
    mag = 10.0 ** rng.uniform(-1.5, 1.0, n)

    def draw(f):
        if not f.complex:
            return mag * rng.standard_normal(n)
        scale = 0.3 if f.torsion else 1.0
        return scale * mag * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    return {name: draw(f) for name, f in _FIELDS.items()}


def _in_band(a: np.ndarray, eps: float) -> np.ndarray:
    """Rows of a whose smallest magnitude is within eps of zero, relative to
    max(1, the largest); a 1-D a is taken as one-entry rows."""
    a = np.abs(a if a.ndim == 2 else a[:, None])
    return np.min(a, axis=1) <= eps * np.maximum(1.0, np.max(a, axis=1))


def equivalence_battery(samples: int, seed: int, eps: float = 1e-9) -> dict:
    """Sampled verification of both determinant equivalences (vectorized)."""
    rng = np.random.default_rng(seed)
    x = _float_inputs(_sample_fields(rng, samples))
    v311 = _cond_3_11(x, _float)
    v312 = _cond_3_12(x, _float)

    m4, m5 = _stacked_forms(x)
    minors4 = _stacked_minors(m4)
    minors5 = _stacked_minors(m5)
    pd4 = np.all(minors4 > 0, axis=1)
    pd5 = np.all(minors5 > 0, axis=1)

    boundary = np.logical_or.reduce(
        [_in_band(a, eps) for a in (minors4, minors5, v311, v312, x.R)])
    live = ~boundary
    rhs4 = (x.R > 0) & (v311 > 0)
    rhs5 = pd4 & (v312 > 0)
    mism4 = int(np.sum(live & (pd4 != rhs4)))
    mism5 = int(np.sum(live & (pd5 != rhs5)))

    det5 = minors5[:, 4]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(v312 != 0, det5 / v312, np.nan)
    kappa = kappa[live & np.isfinite(kappa)]
    spread = float(np.max(np.abs(kappa - 1.0 / 9.0)) * 9.0) if len(kappa) else 0.0
    return {
        "samples": samples,
        "seed": seed,
        "mismatches_form4": mism4,
        "mismatches_form5": mism5,
        "boundary_skips": int(np.sum(boundary)),
        "kappa_mean": float(np.mean(kappa)) if len(kappa) else None,
        "kappa_rel_spread": spread,
        "ok": mism4 == 0 and mism5 == 0,
    }


def sylvester_battery(samples: int, seed: int, eps: float = 1e-9) -> dict:
    """Sylvester verdict against the eigenvalue-sign oracle on random input.

    Random Hermitian matrices of sizes 2..6; a positive fraction are shifted
    to be positive definite so both verdicts are exercised.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 7, samples)
    make_pd = rng.random(samples) < 0.4
    disagreements = 0
    boundary_skips = 0
    for n in range(2, 7):
        idx = sizes == n
        count = int(np.sum(idx))
        if not count:
            continue
        raw = rng.standard_normal((count, n, n)) \
            + 1j * rng.standard_normal((count, n, n))
        mats = (raw + np.conj(np.transpose(raw, (0, 2, 1)))) / 2.0
        shift = make_pd[idx]
        eig_raw = np.linalg.eigvalsh(mats)
        offs = np.where(shift, -np.min(eig_raw, axis=1) + 1.0, 0.0)
        mats = mats + offs[:, None, None] * np.eye(n)[None, :, :]
        minors = _stacked_minors(mats)
        eig = np.linalg.eigvalsh(mats)
        pd_minor = np.all(minors > 0, axis=1)
        pd_eig = np.all(eig > 0, axis=1)
        boundary = _in_band(minors, eps) | _in_band(eig, eps)
        boundary_skips += int(np.sum(boundary))
        disagreements += int(np.sum(~boundary & (pd_minor != pd_eig)))
    return {"samples": samples, "seed": seed,
            "disagreements": disagreements,
            "boundary_skips": boundary_skips,
            "ok": disagreements == 0}
