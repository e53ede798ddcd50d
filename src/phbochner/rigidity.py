"""Pointwise rigidity conditions: Hermitian forms, Sylvester checks, scaling.

All conditions are algebraic in the curvature/torsion data at a point, which
the caller supplies directly (computing R, A from a contact form is out of
scope).  Fractional powers |z|^{2/3}, |z|^{4/3} are evaluated as (|z|^2)^{1/3}
and its square, via the real cube root, so no complex branch is involved.

The form entries and condition formulas come from `kernel`, which
`identities` also runs, exactly, on catalog expressions; this module runs
them on numpy arrays holding a whole batch of points, with the float
constant constructor `_float`.  A batch is held as columns: one array per
`_FIELDS` field and `id`, the list of point ids.  `point_columns` builds them
from parsed point records, checking each column at C speed; `_stack` builds
them from a list of `PointData`.

Boundary behaviour: each row of the condition table fixes its verdict band
(`band`: 1e-12 for thm-a and corollaryC, 1e-9 for bianchi), and `_evaluate`
compares a value with the band times M, the sum of the magnitudes of the
value's summands, which scales as the value does; with no absolute floor,
rescaling the contact form leaves the verdicts unchanged; "= 0" cases (the
borderline automorphism condition) are reported as within the band of
zero, never asserted exactly from floats.  The batteries skip samples within
`_BOUNDARY_BAND` (1e-9) of their boundary.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .kernel import (FormInputs, _bianchi, _cond_3_11, _cond_3_12,
                     _corollary_c, _thm_a, form_entries, thm_b_minors)

__all__ = [
    "PointData", "point_columns", "HermitianForm", "Condition", "CONDITIONS",
    "build_form_4", "build_form_5", "equivalence_battery", "sylvester_battery",
    "evaluate_conditions", "scaling_report",
]

_SQRT3 = 3.0 ** 0.5
_BOUNDARY_BAND = 1e-9   # relative; the batteries skip samples this close to 0
_SMALLEST_NORMAL = 2.0 ** -1022


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
# the keys a point record may have
_KEYS = frozenset(_FIELDS) | {"id"}
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
        """A point record: finite numbers, complex ones as [re, im] pairs
        (or a real number); validated as `point_columns` does."""
        columns = point_columns([data])
        return cls(*(columns[name][0].item() for name in _FIELDS),
                   id=columns["id"][0])


def _value(value, is_complex: bool):
    """A field value as float or complex, or NaN where it is not a finite
    number (or, for a complex field, an [re, im] pair of them)."""
    pair = (is_complex and isinstance(value, (list, tuple))
            and len(value) == 2)
    parts = value if pair else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in parts):
        return math.nan
    return complex(*parts) if is_complex else float(value)


def _column(values: list, is_complex: bool) -> np.ndarray:
    """One field of a batch of records as an array, NaN at each bad value.

    A column of floats, or for a complex field of [float, float] lists, is
    checked by the set of its types and converted at C speed (a complex
    column is the complex view of its (n, 2) parts, so signed zeros stay);
    any other column goes value by value through `_value`.
    """
    if is_complex:
        plain = (set(map(type, values)) == {list}
                 and set(map(len, values)) == {2}
                 and set(map(type, itertools.chain.from_iterable(values)))
                 == {float})
    else:
        plain = set(map(type, values)) == {float}
    if plain:
        column = np.array(values, dtype=float)
        return column.view(complex).ravel() if is_complex else column
    return np.array([_value(v, is_complex) for v in values],
                    dtype=complex if is_complex else float)


def point_columns(records: list) -> dict:
    """Point records as columns: one array per field, in `_FIELDS` order, and
    `id`, the list of point ids, a non-string id as its JSON text.

    A record is an object with the field 'R' and no key but the fields and
    'id'; its fields are finite numbers, complex ones [re, im] pairs or real
    numbers, and absent ones 0.  Raises ValueError naming the first bad
    record in order, and in it its first unknown key, else its first bad
    field in `_READ_ORDER`.
    """
    shaped = list(itertools.takewhile(
        lambda rec: isinstance(rec, dict) and "R" in rec, records))
    ids = [pid if type(pid) is str else json.dumps(pid)
           for pid in (rec.get("id", "") for rec in shaped)]
    # the first record with an unknown key; a bad value is named only in
    # an earlier record
    bad = next((k for k, rec in enumerate(shaped)
                if not _KEYS.issuperset(rec)), len(shaped))
    columns, bad_field = {}, None
    for name, is_complex in _READ_ORDER:
        absent = [0.0, 0.0] if is_complex else 0.0
        columns[name] = _column([rec.get(name, absent) for rec in shaped],
                                is_complex)
        bad_rows = np.flatnonzero(~np.isfinite(columns[name]))
        if bad_rows.size and bad_rows[0] < bad:
            bad, bad_field = int(bad_rows[0]), name
    if bad_field is not None:
        raise ValueError(f"point {ids[bad]!r}: field {bad_field!r} is not a "
                         f"finite number: {shaped[bad][bad_field]!r}")
    if bad < len(shaped):
        unknown = next(key for key in shaped[bad] if key not in _KEYS)
        raise ValueError(f"point {ids[bad]!r}: unknown field {unknown!r}")
    if len(shaped) < len(records):
        raise ValueError(f"point record is not an object with the field "
                         f"'R': {records[len(shaped)]!r}")
    return {**{name: columns[name] for name in _FIELDS}, "id": ids}


def _stack(points: list[PointData]) -> dict:
    """Point data as columns, as `point_columns` gives them."""
    columns = {name: np.array([getattr(p, name) for p in points],
                              dtype=complex if f.complex else float)
               for name, f in _FIELDS.items()}
    columns["id"] = [p.id for p in points]
    return columns


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
    `scaling_report`.  `verdict(fields, values, bands)` returns one array
    per key of `verdicts`, a value's band being `band` times its M, and the
    condition passes where any of them holds.  `minors`, when set, is the
    kernel function of the leading minors of the 5x5 form, which the report
    gives for the 4x4 and 5x5 forms.  Rows that share a key agree on
    `torsion_free`.
    """

    values: dict[str, tuple[Callable, float | None]]
    verdicts: tuple[str, ...]
    verdict: Callable
    band: float = 0.0            # relative tolerance of the verdicts
    torsion_free: bool = False   # defined only where A = 0
    minors: Callable | None = None


_V_3_11 = {"3.11": (_cond_3_11, -2.0)}
_V_3_12 = {"3.12": (_cond_3_12, -4.0)}

CONDITIONS: dict[str, Condition] = {
    "thm-a": Condition({"thm_a": (_thm_a, -2.0)},
                       ("thm_a", "thm_a_borderline"),
                       lambda s, v, b: ((s["R"] < 0) & (v[0] > b[0]),
                                        (s["R"] < 0) & (np.abs(v[0]) <= b[0])),
                       band=1e-12),
    "thm-b": Condition({**_V_3_11, **_V_3_12}, ("thm_b",),
                       lambda s, v, b: ((s["R"] > 0) & (v[0] > 0)
                                        & (v[1] > 0),),
                       minors=thm_b_minors),
    "corollaryC": Condition({"corollaryC": (_corollary_c, -3.0)},
                            ("corollaryC",),
                            lambda s, v, b: ((s["R"] > 0) & (v[0] > b[0]),),
                            band=1e-12, torsion_free=True),
    "3.11": Condition(_V_3_11, ("3.11",), lambda s, v, b: (v[0] > 0,)),
    "3.12": Condition(_V_3_12, ("3.12",), lambda s, v, b: (v[0] > 0,)),
    "bianchi": Condition({"bianchi_residual": (_bianchi, None)}, ("bianchi",),
                         lambda s, v, b: (np.abs(v[0]) <= b[0],), band=1e-9),
}


def _evaluate(s: dict, x: FormInputs, rows) -> tuple[dict, dict]:
    """The condition rows `rows` on the batch of fields s, x being
    `_float_inputs(s)`: {key: (v, M)} for their values, with M the sum of
    the magnitudes of v's summands, and {key: verdict} for their verdicts.
    A key that several rows report is computed once."""
    magnitudes = _magnitudes(x)
    formulas = {key: fn for row in rows for key, (fn, _) in row.values.items()}
    values = {key: (fn(x, _float), fn(magnitudes, _magnitude))
              for key, fn in formulas.items()}
    verdicts = {}
    for row in rows:
        pairs = [values[key] for key in row.values]
        verdicts.update(zip(row.verdicts, row.verdict(
            s, [v for v, _ in pairs], [row.band * m for _, m in pairs])))
    return values, verdicts


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

def _judge(s: dict, rows, k: float | None = None) -> tuple:
    """The condition rows `rows` on the batch of unscaled fields s, at scale
    k (theta -> k theta) or unscaled: (x, values, verdicts, reported), with
    x the kernel inputs, values and verdicts as `_evaluate` gives them, and
    reported the {key: mask} of the points that report each value and
    verdict key: a torsion-free row's where the torsion fields are 0 (at
    any scale), every other row's everywhere.

    Raises ValueError naming the first point that reports a value or M which
    overflows double precision, or an M below the smallest normal double
    that is positive in exact arithmetic: the value has lost its digits, and
    an underflow to 0 could flip its verdict."""
    fields = s if k is None else _scaled(s, np.float64(k))
    x = _float_inputs(fields)
    values, verdicts = _evaluate(fields, x, rows)
    ids, where = s["id"], "" if k is None else f" at k = {k}"
    torsion_free = np.logical_and.reduce(
        [s[name] == 0 for name, f in _FIELDS.items() if f.torsion])
    everywhere = np.ones(len(ids), dtype=bool)
    reported = {key: torsion_free if row.torsion_free else everywhere
                for row in rows for key in (*row.values, *row.verdicts)}
    _refuse_first(ids, np.logical_or.reduce(
        [reported[key] & ~np.isfinite(a) for key, pair in values.items()
         for a in pair]), f"values overflow double precision{where}")
    small = {key: reported[key] & (m < _SMALLEST_NORMAL)
             for key, (_, m) in values.items()}
    some = np.logical_or.reduce(list(small.values()))
    if some.any():
        # where an M is small, each M of 0/1 stand-ins for the nonzero parts
        # of the fields is positive exactly where the exact M is
        marks = {}
        for name, f in _FIELDS.items():
            v = s[name][some]
            marks[name] = ((v.real != 0) + 1j * (v.imag != 0) if f.complex
                           else (v != 0) * 1.0)
        exact, _ = _evaluate(marks, _float_inputs(marks), rows)
        lost = np.zeros(len(ids), dtype=bool)
        lost[some] = np.logical_or.reduce(
            [small[key][some] & (m > 0) for key, (_, m) in exact.items()])
        _refuse_first(ids, lost, f"values underflow double precision{where}")
    return x, values, verdicts, reported


def _refuse_first(ids: list[str], bad: np.ndarray, message: str) -> None:
    """Raise ValueError naming the first point that `bad` marks."""
    if bad.any():
        raise ValueError(f"point {ids[int(np.argmax(bad))]!r}: {message}")


def evaluate_conditions(columns: dict, conditions: list[str]) -> list[dict]:
    """One report per point of `columns` (as `point_columns` or `_stack`
    give them), each named condition evaluated once on the batch.

    A report holds the point's `id`, its condition `values`, `verdicts` and
    form `minors`, whether it `passed` each requested condition, and its
    input `errors`: a torsion-free row at a point that does not report it
    gives an error instead.  Raises ValueError as `_judge` does.
    """
    with np.errstate(all="ignore"):
        rows = {name: CONDITIONS[name] for name in conditions}
        x, values, verdicts, reported = _judge(columns, rows.values())
        reports = [{"id": pid, "values": {}, "verdicts": {}, "minors": {},
                    "passed": {}, "errors": []} for pid in columns["id"]]
        for name, row in rows.items():
            minors = None
            if row.minors:
                minors = np.stack(np.broadcast_arrays(*row.minors(x, _float)),
                                  axis=1).tolist()
            row_verdicts = [verdicts[key] for key in row.verdicts]
            passed = np.logical_or.reduce(row_verdicts).tolist()
            row_values = [values[key][0].tolist() for key in row.values]
            row_verdicts = [v.tolist() for v in row_verdicts]
            # a row's keys are reported at the same points
            shown = reported[row.verdicts[0]].tolist()
            for i, rep in enumerate(reports):
                rep["passed"][name] = False
                if not shown[i]:
                    rep["errors"].append("the torsion-free condition "
                                         "requires A = 0 input")
                    continue
                rep["values"].update(zip(row.values,
                                         (v[i] for v in row_values)))
                rep["verdicts"].update(zip(row.verdicts,
                                           (v[i] for v in row_verdicts)))
                if minors:
                    # form 4's minors are the first four of form 5's
                    rep["minors"]["form_4"] = minors[i][:4]
                    rep["minors"]["form_5"] = minors[i]
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


def scaling_report(columns: dict, ks: list[float]) -> list[dict]:
    """Value homogeneity and verdict invariance of the points of `columns`,
    one batched pass per k.

    A value v of power p passes at k when |v_k - k^p v_0| <= C u (M_k +
    |k^p| M_0), with M the sum of the magnitudes of v's summands, u the unit
    roundoff and C = _HOMOGENEITY_C; `errors` reports |v_k - k^p v_0|
    relative to the larger of |v_k| and |k^p v_0|.  Verdicts are those of
    `evaluate_conditions`, and a point is judged, and its errors reported,
    on the values and verdicts it reports, both by the same `_judge`, which
    raises ValueError at k = 1 and at each k.
    """
    with np.errstate(all="ignore"):
        ids = columns["id"]
        rows = [row for row in CONDITIONS.values()
                if all(power is not None for _, power in row.values.values())]
        powers = {key: power for row in rows
                  for key, (_, power) in row.values.items()}
        # the points that report a key do so at every k
        _, values0, verdicts0, reported = _judge(columns, rows)
        ok = np.ones(len(ids), dtype=bool)
        reports = [{"id": pid, "ok": True, "rows": []} for pid in ids]
        for k in ks:
            _, values, verdicts, _ = _judge(columns, rows, k)
            invariant = np.logical_and.reduce(
                [(verdicts[key] == v0) | ~reported[key]
                 for key, v0 in verdicts0.items()])
            errors = {}
            for key, (v0, m0) in values0.items():
                vk, mk = values[key]
                kp = np.float64(k) ** powers[key]
                diff = np.abs(vk - v0 * kp)
                ok &= (diff <= (_HOMOGENEITY_C * _UNIT_ROUNDOFF
                                * (mk + abs(kp) * m0))) | ~reported[key]
                errors[key] = (diff / np.maximum(np.maximum(np.abs(v0 * kp),
                                                            np.abs(vk)), 1e-300)
                               ).tolist(), reported[key].tolist()
            ok &= invariant
            for i, (rep, inv) in enumerate(zip(reports, invariant.tolist())):
                rep["rows"].append({
                    "k": k,
                    "errors": {key: rel[i] for key, (rel, on) in errors.items()
                               if on[i]},
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


def _in_band(a: np.ndarray) -> np.ndarray:
    """Rows of a whose smallest magnitude is within `_BOUNDARY_BAND` of zero,
    relative to max(1, the largest); a 1-D a is taken as one-entry rows."""
    a = np.abs(a if a.ndim == 2 else a[:, None])
    return np.min(a, axis=1) <= _BOUNDARY_BAND * np.maximum(
        1.0, np.max(a, axis=1))


def equivalence_battery(samples: int, seed: int) -> dict:
    """Sampled verification of both determinant equivalences (vectorized)."""
    rng = np.random.default_rng(seed)
    x = _float_inputs(_sample_fields(rng, samples))
    v311 = _cond_3_11(x, _float)
    v312 = _cond_3_12(x, _float)

    minors5 = _stacked_minors(_stacked_forms(x)[1])
    minors4 = minors5[:, :4]     # form 4 is the leading 4x4 block of form 5
    pd4 = np.all(minors4 > 0, axis=1)
    pd5 = np.all(minors5 > 0, axis=1)

    boundary = np.logical_or.reduce(
        [_in_band(a) for a in (minors4, minors5, v311, v312, x.R)])
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


def sylvester_battery(samples: int, seed: int) -> dict:
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
        boundary = _in_band(minors) | _in_band(eig)
        boundary_skips += int(np.sum(boundary))
        disagreements += int(np.sum(~boundary & (pd_minor != pd_eig)))
    return {"samples": samples, "seed": seed,
            "disagreements": disagreements,
            "boundary_skips": boundary_skips,
            "ok": disagreements == 0}
