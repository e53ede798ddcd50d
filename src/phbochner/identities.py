"""Scripted, replayable verifications of the identity catalog.

Every script rebuilds one displayed identity from first principles (operator
expansion, commutation canonicalization, integration by parts) and compares
the result against the catalog text, which is the single source of truth for
expected expressions.  A PASS requires an exact zero residual in Q(i, sqrt3);
there is no numeric tolerance in symbolic checks.  Scripts record their
intermediate steps so a failure localizes to a stage, and the equality engine
attaches the relation certificate to the trace.

What a script builds before it reads its target is built once per process,
from the catalog as it reads then, so a mutant of mutation testing runs only
the part that its target changes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from . import operators as ops
from .calculus import (RewriteTrace, apply_rule, canonicalize, equal_mod_ibp,
                       ibp_residual)
from .expr import Expression, Factor
from .kernel import (FormInputs, _thm_a, corollary_c_minors, det,
                     form_entries, thm_b_minors, torsion_free_entries)
from .parser import Corpus, parse
from .scalar import ScalarExact

__all__ = [
    "Corpus", "ScriptResult", "catalog_ids", "run_script", "mutation_test",
    "MUTABLE_IDS",
]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class ScriptResult(NamedTuple):
    """One script's outcome: status PASS or FAIL, its (label, value)
    steps, the residual unless it passed, the equality trace and named
    details.

    A step value is kept as the script made it (text, an Expression, or a
    callable that makes the text) and formatted only when `steps` is read,
    so a run whose steps nobody reads, such as a mutant's, formats none."""

    name: str
    status: str
    raw_steps: list[tuple[str, object]]
    residual: Expression | None
    trace: RewriteTrace | None
    details: dict

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    @property
    def steps(self) -> list[tuple[str, str]]:
        return [(label, str(value() if callable(value) else value))
                for label, value in self.raw_steps]

    def outcome(self) -> dict:
        """The residual and details as JSON values; no step is formatted."""
        return {
            "residual": None if self.residual is None else str(self.residual),
            "details": {k: (str(v) if isinstance(v, (Expression, ScalarExact))
                            else v) for k, v in self.details.items()},
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "steps": [{"label": l, "value": v} for l, v in self.steps],
            **self.outcome(),
        }

    def to_text(self) -> str:
        """The text of `trace`: status, steps and the equality trace."""
        lines = [f"[{self.name}] {self.status}"]
        lines += [f"-- {label}:\n   {value}" for label, value in self.steps]
        if self.trace is not None:
            lines.append(self.trace.to_text())
        return "\n".join(lines)


def _finish(name, ok, steps, residual, trace, **details) -> ScriptResult:
    return ScriptResult(name, "PASS" if ok else "FAIL", steps,
                        None if ok else residual, trace, details)


# ---------------------------------------------------------------------------
# Section 2 scripts
# ---------------------------------------------------------------------------

# Each script splits into a half that no target changes, built once per
# process by a cached function below (`_numeric_form` keys its half on the
# kernel functions and constants it is given, so a stand-in builds anew),
# and the target-dependent rest, which runs on every call and mutant.  A
# half that is compared with the target is also kept canonicalized:
# canonicalization is linear and fixes canonical terms, so
# canonicalize(canonicalize(x) - t) is canonicalize(x - t), term for term,
# and an equality query on canonicalize(x) has the residual and the
# certificate of one on x.

@lru_cache(maxsize=None)
def _dj_star_dj_f() -> tuple[Expression, Expression]:
    """(DJ* DJ f, its canonical form)."""
    lhs = ops.apply_template(ops.build_DJstar(), ops.build_DJ().expr)
    return lhs, canonicalize(lhs)


def verify_2_3(target_override: Expression | None = None) -> ScriptResult:
    lhs, canonical = _dj_star_dj_f()
    target = _target("2.3", target_override)
    residual = canonicalize(canonical - target)
    return _finish("2.3", residual.is_zero(),
                   [("expand DJ* DJ f", lhs), ("canonical residual", residual)],
                   residual, None)


@lru_cache(maxsize=None)
def _l_star_l_f(alpha: ScalarExact) -> tuple[str, Expression, Expression]:
    """(alpha as text, (1/2) L_alpha* L_alpha f, its canonical form)."""
    L = ops.build_Lalpha(alpha)
    lhs = ops.apply_template(ops.adjoint(L), L.expr) * ScalarExact(Fraction(1, 2))
    return str(alpha), lhs, canonicalize(lhs)


def verify_2_7(alpha: ScalarExact = ops.ALPHA_SECTION2,
               target_override: Expression | None = None) -> ScriptResult:
    alpha_text, lhs, canonical = _l_star_l_f(alpha)
    target = _target("2.7", target_override)
    residual = canonicalize(canonical - target)
    steps = [(f"expand (1/2) L* L f with alpha = {alpha_text}", lhs),
             ("canonical residual", residual)]
    has_t = any("0" in f.derivs for _, factors in residual._terms
                for f in factors)
    return _finish("2.7", residual.is_zero(), steps, residual, None,
                   alpha=alpha_text, residual_has_T_derivative=has_t)


def verify_2_ibp(target_override: Expression | None = None) -> ScriptResult:
    corpus = Corpus.load()
    lhs = corpus.expr("2.ibp", "lhs")
    rhs = _target("2.ibp", target_override)
    ok, trace = equal_mod_ibp(lhs, rhs)
    return _finish("2.ibp", ok, [("lhs", lhs), ("rhs", rhs)],
                   trace.residual, trace)


@lru_cache(maxsize=None)
def _paired_2_8() -> tuple[Expression, Expression]:
    """(INT[((2.3) - (2.7)) * f], its canonical form)."""
    corpus = Corpus.load()
    diff = corpus.expr("2.3", "target") - corpus.expr("2.7", "target")
    paired = (diff * Factor("f")).integrate()
    return paired, canonicalize(paired)


def verify_2_8(target_override: Expression | None = None) -> ScriptResult:
    paired, canonical = _paired_2_8()
    target = _target("2.8", target_override)
    ok, trace = equal_mod_ibp(canonical, target)
    return _finish("2.8", ok, [("<(2.3) - (2.7), f> integrand", paired),
                               ("catalog integrals", target)],
                   trace.residual, trace)


def _f_squared(e: Expression) -> Expression:
    """The terms of e whose f factors are f*f, underived."""
    return e.filter_terms(lambda term: [f for f in term.factors
                                        if f.symbol == "f"] == [Factor("f")] * 2)


@lru_cache(maxsize=None)
def _flat_2_8() -> tuple[Expression, Expression]:
    """(the (2.8) integrals with the DJ f = 0 rules applied, twice them
    canonicalized)."""
    s = Corpus.load().expr("2.8", "integrals")
    for rule in ops.flatness_rules():
        s = apply_rule(s, rule)
    return s, canonicalize(s * 2)


def verify_2_11(target_override: Expression | None = None) -> ScriptResult:
    s, twice = _flat_2_8()
    steps = [("(2.8) integrals with DJ f = 0 substituted", s)]
    target = _target("2.11", target_override)
    t = apply_rule(target, ops.bianchi_rule())
    steps.append(("(2.11) integrals with Bianchi expanded", t))
    ok, trace = equal_mod_ibp(twice, t)
    # the Bianchi rule with A = 0 annihilates the f^2 integrand
    f2 = _f_squared(t).drop_symbols({"A11", "Ab1b1"})
    steps.append(("f^2 integrand with Bianchi expanded and A = 0", f2))
    # Theorem A: its value is the f^2 coefficient of 2.11
    value = _thm_a(_inputs(), _constant) * Factor("f") * Factor("f")
    proof = [("f^2 part of (2.11) against INT[thm-a value*f*f]",
              _match(_f_squared(target), value.integrate()))]
    steps += proof
    return _finish("2.11", ok and f2.is_zero() and _passed(proof), steps,
                   f2 if ok else trace.residual, trace,
                   bianchi_torsion_free_f2=f2, thm_a_proven=_passed(proof))


# ---------------------------------------------------------------------------
# Section 3 scripts
# ---------------------------------------------------------------------------

def verify_3_2(target_override: Expression | None = None) -> ScriptResult:
    corpus = Corpus.load()
    lhs = corpus.expr("3.2", "lhs")
    rhs = _target("3.2", target_override)
    residual = canonicalize(lhs - rhs)
    return _finish("3.2", residual.is_zero(),
                   [("lhs", lhs), ("rhs", rhs),
                    ("canonical residual", residual)],
                   residual, None)


@lru_cache(maxsize=None)
def _ibp_stage_3_3() -> tuple[bool, RewriteTrace]:
    """start == mid modulo IBP, and its trace."""
    corpus = Corpus.load()
    return equal_mod_ibp(corpus.expr("3.3", "start"), corpus.expr("3.3", "mid"))


def verify_3_3(target_override: Expression | None = None) -> ScriptResult:
    mid = Corpus.load().expr("3.3", "mid")
    final = _target("3.3", target_override)
    ok1, trace = _ibp_stage_3_3()
    steps = [("integration by parts stage", "PASS" if ok1 else "FAIL")]
    residual2 = canonicalize(mid - final)
    ok2 = residual2.is_zero()
    steps.append(("commutation stage residual", residual2))
    ok = ok1 and ok2
    residual = trace.residual if not ok1 else (None if ok2 else residual2)
    return _finish("3.3", ok, steps, residual, trace)


def _pairing_with_E(expr: Expression) -> Expression:
    """<2Re[expr theta^1 (x) Z_b1], E> = INT[expr*Eb1b1 + conjugate]."""
    half = (expr * Factor("Eb1b1")).integrate()
    return half + half.conjugate()


@lru_cache(maxsize=None)
def _dqj_after_3_2() -> Expression:
    corpus = Corpus.load()
    phi = ops.build_DQJ_rhs()
    return phi - corpus.expr("3.2", "lhs") + corpus.expr("3.2", "rhs")


@lru_cache(maxsize=None)
def _torsion_free_pairing() -> tuple[Expression, Expression, Expression]:
    """(the 3.2-substituted coefficient without torsion, its pairing with E,
    that pairing's canonical form)."""
    torsion_free = _dqj_after_3_2().drop_symbols({"A11", "Ab1b1"})
    paired = _pairing_with_E(torsion_free)
    return torsion_free, paired, canonicalize(paired)


def verify_3_4(target_override: Expression | None = None) -> ScriptResult:
    phi = _dqj_after_3_2()
    torsion_free, paired, canonical = _torsion_free_pairing()
    steps = [("coefficient after substituting the commutation identity", phi),
             ("torsion-free reduction", torsion_free),
             ("pairing with E", paired)]
    target = _target("3.4", target_override)
    ok, trace = equal_mod_ibp(canonical, target)
    form, minors = _numeric_form(torsion_free_entries, corollary_c_minors,
                                 _constant)
    proof = [("torsion-free form against 3.4", _match(form, target)),
             ("leading minors 2/3, 1/3, R/9, corollaryC/648", minors)]
    steps += proof
    return _finish("3.4", ok and _passed(proof), steps, trace.residual,
                   trace, corollary_c_proven=_passed(proof))


@lru_cache(maxsize=None)
def _pairing_3_5() -> tuple[Expression, Expression, Expression]:
    """(the pairing with E, torsion kept; the slice witness INT[DJ* E *
    slice] of the catalog, zero where DJ* E = 0; the canonical form of
    their difference)."""
    paired = _pairing_with_E(_dqj_after_3_2())
    witness = (ops.build_DJstar().expr
               * Corpus.load().expr("3.5", "slice")).integrate()
    return paired, witness, canonicalize(paired - witness)


def verify_3_5(target_override: Expression | None = None) -> ScriptResult:
    paired, _, canonical = _pairing_3_5()
    steps = [("pairing with E (torsion kept)", paired)]
    target = _target("3.5", target_override)

    # 3.5 does not close modulo IBP alone, only once the slice witness,
    # which vanishes where DJ* E = 0, is subtracted
    residual, trace = ibp_residual(canonical, target)
    ok = residual.is_zero()
    steps.append(("closure", "exact modulo IBP less the slice witness "
                  "INT[DJ* E * slice], zero where DJ* E = 0")
                 if ok else ("residual (verbatim)", residual))
    return _finish("3.5", ok, steps, residual, trace)


# a factor token of the grammar: a name with its derivative suffix, if any
_FACTOR_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:_\{[A-Za-z0-9]*\})?")


def _instantiate(record: str, fld: str, values: dict[str, str]) -> Expression:
    """A catalog field with every whole factor token named in `values` (a
    parameter such as LAM, or a factor such as Eb1b1_{1}) replaced by its
    text in parentheses, all in one pass."""
    return parse(_FACTOR_TOKEN.sub(
        lambda m: f"({values[m[0]]})" if m[0] in values else m[0],
        Corpus.load().text(record, fld)))


def _substitution(record: str, fld: str) -> dict[str, str]:
    """A catalog substitution "X = text, ..." with the conjugate of each
    pair added, for `_instantiate`."""
    out = {}
    for pair in Corpus.load().text(record, fld).split(","):
        factor, _, value = (p.strip() for p in pair.partition("="))
        out[factor] = value
        out[str(parse(factor).conjugate())] = str(parse(value).conjugate())
    return out


# the free real parameters of Lemma 3.1; constants, never differentiated
_PARAMETERS = frozenset({"LAM", "RHO"})


def _parameter_classes(e: Expression) -> dict[str, Expression]:
    """e as a polynomial in the parameters: {monomial text: its coefficient,
    an expression free of them}, in the order of the monomials."""
    classes: dict[tuple[Factor, ...], dict] = {}
    for (integrated, factors), coeff in e._terms.items():
        monomial = tuple(f for f in factors if f.symbol in _PARAMETERS)
        rest = tuple(f for f in factors if f.symbol not in _PARAMETERS)
        classes.setdefault(monomial, {})[integrated, rest] = coeff
    return {"*".join(map(str, m)) or "1": Expression(classes[m])
            for m in sorted(classes)}


def verify_3_6(target_override: Expression | None = None) -> ScriptResult:
    """Lemma 3.1, the completed square, for all real lam and rho.

    rhs - lhs - square is a polynomial in LAM and RHO whose coefficients
    are free of them.  It vanishes modulo IBP for every value when each
    coefficient does, so each is decided on its own, and no query contains
    a parameter or rests on a bound of the degree.
    """
    corpus = Corpus.load()
    rhs = _target("3.6", target_override)
    diff = rhs - corpus.expr("3.6", "lhs") - corpus.expr("3.6", "square")
    steps = [("rhs - lhs - square", diff)]
    classes = _parameter_classes(diff)
    ok, trace = True, None
    for monomial, coefficient in classes.items():
        ok, trace = equal_mod_ibp(coefficient, Expression.zero())
        steps.append((f"coefficient of {monomial} modulo IBP",
                      "PASS" if ok else "FAIL"))
        if not ok:
            break
    return _finish("3.6", ok, steps, None if trace is None else trace.residual,
                   trace, classes=list(classes))


def verify_3_7() -> ScriptResult:
    """The cube-root torsion estimate lhs >= rhs, pointwise and exactly.

    With W a cube root of w = A11_{,1}, u = Eb1b1_{,1} and v = Eb1b1,
    lhs - rhs is the square (2/3)|W^2 v + i conj(W u)|^2, so the estimate
    holds for all data.  Both sides agree on the tight family
    v = conj(W) g, u = -i conj(W)^2 conj(g), so no smaller right side holds.
    W carries no derivative, so the check is canonicalization alone.
    """
    cube = _substitution("3.7", "cube_root")
    lhs, rhs, square = (_instantiate("3.7", fld, cube)
                        for fld in ("lhs", "rhs", "square"))
    residual = canonicalize(lhs - rhs - square)
    tight = {**cube, **_substitution("3.7", "tight")}
    gap = canonicalize(_instantiate("3.7", "lhs", tight)
                       - _instantiate("3.7", "rhs", tight))
    steps = [("lhs with w = W^3", lhs), ("rhs", rhs),
             ("square", square), ("lhs - rhs - square", residual),
             ("lhs - rhs on the tight family", gap)]
    return _finish("3.7", residual.is_zero() and gap.is_zero(), steps,
                   gap if residual.is_zero() else residual, None)


# The kernel's inputs in catalog symbols; t = |A11_{,1}|^{2/3} = W*Wb.
_FORM_INPUTS = {"R": "R", "t": "W*Wb", "a2": "A11*Ab1b1",
                "lapR": "-R_{1b} - R_{b1}",
                "imbb": "(1/2)*i*(Ab1b1_{11} - A11_{bb})",
                "Rb": "R_{b}", "Ab": "Ab1b1", "Ab1": "Ab1b1_{1}",
                "R0": "R_{0}", "grad2": "2*R_{1}*R_{b}"}
_FORM_BASIS = ("E11_{b1}", "i*E11_{0}", "E11_{1}", "E11_{b}", "E11")
_QUARTERS = {"LAM": "1/4", "RHO": "1/4"}


def _constant(n, d=1, s3=False) -> Expression:
    """The kernel's constant constructor on catalog expressions: n/d, times
    sqrt3 if s3; n is an integer or an imaginary integer such as 5j."""
    re, im = (Fraction(int(v), d) for v in (complex(n).real, complex(n).imag))
    return Expression.scalar(ScalarExact(0, re, 0, im) if s3
                             else ScalarExact(re, 0, im, 0))


def _inputs() -> FormInputs:
    return FormInputs(**{k: parse(v) for k, v in _FORM_INPUTS.items()})


def _abs2(z: Expression) -> Expression:
    return z * z.conjugate()


# one callable, so that `_numeric_form` builds 3.8's half once per process
_thm_b_minors = partial(thm_b_minors, abs2=_abs2)


@lru_cache(maxsize=4)
def _numeric_form(entries, minors, K) -> tuple[Expression, str]:
    """The Hermitian form that `entries` (`form_entries` or a stand-in)
    builds on the kernel's inputs: INT of sum m_ij u_i conj(u_j) on the 3.8
    basis, and PASS when its leading principal minors are `minors(x, K)`
    identically, else the first that is not.  Neither depends on a target,
    so both are built once per (entries, minors, K), not once per mutant."""
    x = _inputs()
    e = entries(x, K)
    index = sorted({i for ij in e for i in ij})
    m = [[e[i, j] if (i, j) in e else
          e.get((j, i), Expression.zero()).conjugate() for j in index]
         for i in index]
    u = [parse(_FORM_BASIS[i]) for i in index]
    form = Expression.sum((m[a][b] * u[a] * u[b].conjugate()).integrate()
                          for a in range(len(u)) for b in range(len(u)))
    for k, want in enumerate(minors(x, K), 1):
        if det([row[:k] for row in m[:k]]) != want:
            return form, f"FAIL (minor {k})"
    return form, "PASS"


def _match(got: Expression, want: Expression) -> str | partial[str]:
    """An exact comparison, without IBP, as a step value; the difference
    of a failure is computed when the step is formatted."""
    return "PASS" if got == want else partial(_difference_text, got, want)


def _difference_text(got: Expression, want: Expression) -> str:
    return f"FAIL (difference {got - want})"


def _passed(steps: list[tuple[str, object]]) -> bool:
    return all(value == "PASS" for _, value in steps)


@lru_cache(maxsize=None)
def _built_3_8() -> tuple[Expression, Expression, Expression]:
    """(the completed-square deficit at lam = rho = 1/4, the canonical form
    of 3.5 - INT[3.7 lhs] + that deficit, INT[3.7 rhs])."""
    corpus = Corpus.load()
    deficit = (_instantiate("3.6", "lhs", _QUARTERS)
               - _instantiate("3.6", "rhs", _QUARTERS))
    built = (corpus.expr("3.5", "integrand")
             - corpus.expr("3.7", "lhs").integrate() + deficit)
    return (deficit, canonicalize(built),
            corpus.expr("3.7", "rhs").integrate())


def verify_3_5_to_3_8(target_override: Expression | None = None) -> ScriptResult:
    """Coefficient bookkeeping from the torsion identity to the estimated form.

    The left side of the cube-root estimate 3.7 is removed and the
    completed-square deficit (lam = rho = 1/4) is added, which must
    reproduce the rational part of the final display exactly, modulo
    integration by parts.  The numeric form must then equal that display
    plus the estimate's right side, term by term, and have the leading
    minors of Theorem B.
    """
    deficit, built, rhs_3_7 = _built_3_8()
    target = _target("3.8", target_override)
    ok, trace = equal_mod_ibp(built, target)
    steps = [("completed-square deficit", deficit),
             ("match modulo IBP", "PASS" if ok else "FAIL")]
    form, minors = _numeric_form(form_entries, _thm_b_minors, _constant)
    proof = [("numeric form against 3.8 + INT[3.7 rhs]",
              _match(form, target + rhs_3_7)),
             ("leading minors 29/48, 5/24, (5/72)R, (5/216)v_3.11, "
              "(1/9)v_3.12", minors)]
    steps += proof
    return _finish("3.8", ok and _passed(proof), steps, trace.residual, trace,
                   thm_b_proven=_passed(proof))


# ---------------------------------------------------------------------------
# Registry, mutation testing
# ---------------------------------------------------------------------------

# identity -> (script, the field of its catalog record that mutation
# perturbs, or None if it has no target)
SCRIPTS = {
    "2.3": (verify_2_3, "target"),
    "2.7": (verify_2_7, "target"),
    "2.8": (verify_2_8, "integrals"),
    "2.ibp": (verify_2_ibp, "rhs"),
    "2.11": (verify_2_11, "integrals"),
    "3.2": (verify_3_2, "rhs"),
    "3.3": (verify_3_3, "final"),
    "3.4": (verify_3_4, "integrand"),
    "3.5": (verify_3_5, "integrand"),
    "3.6": (verify_3_6, "rhs"),
    "3.7": (verify_3_7, None),
    "3.8": (verify_3_5_to_3_8, "integrand_exact"),
}
MUTABLE_IDS = [ident for ident, (_, fld) in SCRIPTS.items() if fld]


def _target(ident: str, override: Expression | None = None) -> Expression:
    """`override` unless it is None (a zero override is kept), else the
    catalog target of `ident` that mutation perturbs."""
    if override is not None:
        return override
    return Corpus.load().expr(ident, SCRIPTS[ident][1])


def _run_mutated(ident: str, mutated: Expression) -> ScriptResult:
    return SCRIPTS[ident][0](target_override=mutated)


def mutation_test(ident: str) -> dict:
    """Perturb each coefficient of the catalog target by +1; all must FAIL."""
    if ident not in MUTABLE_IDS:
        raise KeyError(f"identity {ident!r} does not support mutation testing")
    base = _target(ident)
    terms = base.term_list()
    survivors = []
    for k, term in enumerate(terms):
        bump = Expression.from_term(1, term.factors, term.integrated)
        result = _run_mutated(ident, base + bump)
        if result.passed:
            survivors.append(str(bump))
    return {
        "identity": ident,
        "total": len(terms),
        "killed": len(terms) - len(survivors),
        "survivors": survivors,
        "kill_rate": (Fraction(len(terms) - len(survivors), len(terms))
                      if terms else Fraction(1)),
    }


def catalog_ids() -> list[str]:
    return list(SCRIPTS)


def run_script(ident: str) -> ScriptResult:
    if ident not in SCRIPTS:
        raise KeyError(f"unknown identity id {ident!r}")
    return SCRIPTS[ident][0]()
