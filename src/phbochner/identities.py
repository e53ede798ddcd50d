"""Scripted, replayable verifications of the identity catalog.

Every script rebuilds one displayed identity from first principles (operator
expansion, commutation canonicalization, integration by parts) and compares
the result against the catalog text, which is the single source of truth for
expected expressions.  A PASS requires an exact zero residual in Q(i, sqrt3);
there is no numeric tolerance in symbolic checks.  Scripts record their
intermediate steps so a failure localizes to a stage, and the equality engine
attaches the relation certificate to the trace.

A script is a function that builds, from the catalog as it reads at the
call, all that no target changes, and returns `decide(target)`, which runs
the rest on one target.  `run_script` builds a script and decides its
catalog target; mutation testing builds it once and decides each mutant
with it, so a mutant runs only the part that its target changes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

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


# a built script: its target (None for 3.7, which has none) -> its result
Decide = Callable[[Expression], ScriptResult]


# ---------------------------------------------------------------------------
# Section 2 scripts
# ---------------------------------------------------------------------------

# A part that `decide` compares with the target is kept canonicalized:
# canonicalization is linear and fixes canonical terms, so
# canonicalize(canonicalize(x) - t) is canonicalize(x - t), term for term,
# and an equality query on canonicalize(x) has the residual and the
# certificate of one on x.

def script_2_3() -> Decide:
    lhs = ops.apply_template(ops.build_DJstar(), ops.build_DJ().expr)
    canonical = canonicalize(lhs)

    def decide(target: Expression) -> ScriptResult:
        residual = canonicalize(canonical - target)
        return _finish("2.3", residual.is_zero(),
                       [("expand DJ* DJ f", lhs),
                        ("canonical residual", residual)],
                       residual, None)
    return decide


def script_2_7(alpha: ScalarExact = ops.ALPHA_SECTION2) -> Decide:
    L = ops.build_Lalpha(alpha)
    lhs = ops.apply_template(ops.adjoint(L), L.expr) * ScalarExact(Fraction(1, 2))
    canonical = canonicalize(lhs)
    alpha_text = str(alpha)

    def decide(target: Expression) -> ScriptResult:
        residual = canonicalize(canonical - target)
        steps = [(f"expand (1/2) L* L f with alpha = {alpha_text}", lhs),
                 ("canonical residual", residual)]
        has_t = any("0" in f.derivs for factors in residual._terms
                    for f in factors)
        return _finish("2.7", residual.is_zero(), steps, residual, None,
                       alpha=alpha_text, residual_has_T_derivative=has_t)
    return decide


def script_2_ibp() -> Decide:
    lhs = Corpus.load().expr("2.ibp", "lhs")

    def decide(rhs: Expression) -> ScriptResult:
        ok, trace = equal_mod_ibp(lhs, rhs)
        return _finish("2.ibp", ok, [("lhs", lhs), ("rhs", rhs)],
                       trace.residual, trace)
    return decide


def script_2_8() -> Decide:
    corpus = Corpus.load()
    diff = corpus.expr("2.3", "target") - corpus.expr("2.7", "target")
    paired = (diff * Factor("f")).integrate()
    canonical = canonicalize(paired)

    def decide(target: Expression) -> ScriptResult:
        ok, trace = equal_mod_ibp(canonical, target)
        return _finish("2.8", ok, [("<(2.3) - (2.7), f> integrand", paired),
                                   ("catalog integrals", target)],
                       trace.residual, trace)
    return decide


def _f_squared(e: Expression) -> Expression:
    """The terms of e whose f factors are f*f, underived."""
    return e.filter_terms(lambda term: [f for f in term.factors
                                        if f.symbol == "f"] == [Factor("f")] * 2)


def script_2_11() -> Decide:
    s = Corpus.load().expr("2.8", "integrals")
    for rule in ops.flatness_rules():
        s = apply_rule(s, rule)
    twice = canonicalize(s * 2)
    bianchi = ops.bianchi_rule()
    # Theorem A: its value is the f^2 coefficient of 2.11
    value = (_thm_a(_inputs(), _constant)
             * Factor("f") * Factor("f")).integrate()

    def decide(target: Expression) -> ScriptResult:
        t = apply_rule(target, bianchi)
        ok, trace = equal_mod_ibp(twice, t)
        # the Bianchi rule with A = 0 annihilates the f^2 integrand
        f2 = _f_squared(t).drop_symbols({"A11", "Ab1b1"})
        proof = [("f^2 part of (2.11) against INT[thm-a value*f*f]",
                  _match(_f_squared(target), value))]
        steps = [("(2.8) integrals with DJ f = 0 substituted", s),
                 ("(2.11) integrals with Bianchi expanded", t),
                 ("f^2 integrand with Bianchi expanded and A = 0", f2),
                 *proof]
        return _finish("2.11", ok and f2.is_zero() and _passed(proof), steps,
                       f2 if ok else trace.residual, trace,
                       bianchi_torsion_free_f2=f2, thm_a_proven=_passed(proof))
    return decide


# ---------------------------------------------------------------------------
# Section 3 scripts
# ---------------------------------------------------------------------------

def script_3_2() -> Decide:
    lhs = Corpus.load().expr("3.2", "lhs")

    def decide(rhs: Expression) -> ScriptResult:
        residual = canonicalize(lhs - rhs)
        return _finish("3.2", residual.is_zero(),
                       [("lhs", lhs), ("rhs", rhs),
                        ("canonical residual", residual)],
                       residual, None)
    return decide


def script_3_3() -> Decide:
    corpus = Corpus.load()
    mid = corpus.expr("3.3", "mid")
    ok1, trace = equal_mod_ibp(corpus.expr("3.3", "start"), mid)

    def decide(final: Expression) -> ScriptResult:
        residual2 = canonicalize(mid - final)
        ok2 = residual2.is_zero()
        steps = [("integration by parts stage", "PASS" if ok1 else "FAIL"),
                 ("commutation stage residual", residual2)]
        residual = trace.residual if not ok1 else (None if ok2 else residual2)
        return _finish("3.3", ok1 and ok2, steps, residual, trace)
    return decide


def _pairing_with_E(expr: Expression) -> Expression:
    """<2Re[expr theta^1 (x) Z_b1], E> = INT[expr*Eb1b1 + conjugate]."""
    half = (expr * Factor("Eb1b1")).integrate()
    return half + half.conjugate()


def _dqj_after_3_2() -> Expression:
    corpus = Corpus.load()
    return (ops.build_DQJ_rhs() - corpus.expr("3.2", "lhs")
            + corpus.expr("3.2", "rhs"))


def script_3_4() -> Decide:
    phi = _dqj_after_3_2()
    torsion_free = phi.drop_symbols({"A11", "Ab1b1"})
    paired = _pairing_with_E(torsion_free)
    canonical = canonicalize(paired)
    x = _inputs()
    form, minors = _numeric_form(torsion_free_entries(x, _constant),
                                 corollary_c_minors(x, _constant))

    def decide(target: Expression) -> ScriptResult:
        ok, trace = equal_mod_ibp(canonical, target)
        proof = [("torsion-free form against 3.4", _match(form, target)),
                 ("leading minors 2/3, 1/3, R/9, corollaryC/648", minors)]
        steps = [("coefficient after substituting the commutation identity",
                  phi),
                 ("torsion-free reduction", torsion_free),
                 ("pairing with E", paired), *proof]
        return _finish("3.4", ok and _passed(proof), steps, trace.residual,
                       trace, corollary_c_proven=_passed(proof))
    return decide


def script_3_5() -> Decide:
    # the pairing with E, torsion kept, and the slice witness INT[DJ* E *
    # slice] of the catalog, zero where DJ* E = 0
    paired = _pairing_with_E(_dqj_after_3_2())
    witness = (ops.build_DJstar().expr
               * Corpus.load().expr("3.5", "slice")).integrate()
    canonical = canonicalize(paired - witness)

    def decide(target: Expression) -> ScriptResult:
        # 3.5 does not close modulo IBP alone, only once the slice witness,
        # which vanishes where DJ* E = 0, is subtracted
        residual, trace = ibp_residual(canonical, target)
        ok = residual.is_zero()
        steps = [("pairing with E (torsion kept)", paired),
                 ("closure", "exact modulo IBP less the slice witness "
                  "INT[DJ* E * slice], zero where DJ* E = 0")
                 if ok else ("residual (verbatim)", residual)]
        return _finish("3.5", ok, steps, residual, trace)
    return decide


def _instantiate(record: str, fld: str,
                 values: dict[Factor, Expression]) -> Expression:
    """A catalog field with every factor that `values` names (a parameter
    such as LAM, or a factor such as Eb1b1_{1}) replaced by its value, in
    one `Expression.substitute` pass.  A factor is matched whole: a value
    for Eb1b1 leaves Eb1b1_{1} as it is."""
    return Corpus.load().expr(record, fld).substitute(values.get)


def _substitution(record: str, fld: str) -> dict[Factor, Expression]:
    """A catalog substitution "X = text, ..." as {X: value}, with the
    conjugate of each pair added, for `_instantiate`."""
    out = {}
    for pair in Corpus.load().text(record, fld).split(","):
        name, _, text = pair.partition("=")
        [(factor,)] = parse(name)._terms  # X is a single factor
        value = parse(text)
        out[factor] = value
        out[factor.conjugate()] = value.conjugate()
    return out


# the free real parameters of Lemma 3.1; constants, never differentiated
_PARAMETERS = frozenset({"LAM", "RHO"})


def _parameter_classes(e: Expression) -> dict[str, Expression]:
    """e as a polynomial in the parameters: {monomial text: its coefficient,
    an expression free of them}, in the order of the monomials."""
    classes: dict[tuple[Factor, ...], dict] = {}
    for factors, coeff in e._terms.items():
        monomial = tuple(f for f in factors if f.symbol in _PARAMETERS)
        rest = tuple(f for f in factors if f.symbol not in _PARAMETERS)
        classes.setdefault(monomial, {})[rest] = coeff
    return {"*".join(map(str, m)) or "1": Expression(classes[m], e.integrated)
            for m in sorted(classes)}


def script_3_6() -> Decide:
    """Lemma 3.1, the completed square, for all real lam and rho.

    rhs - lhs - square is a polynomial in LAM and RHO whose coefficients
    are free of them.  It vanishes modulo IBP for every value when each
    coefficient does, so each is decided on its own, and no query contains
    a parameter or rests on a bound of the degree.
    """
    corpus = Corpus.load()
    lhs, square = corpus.expr("3.6", "lhs"), corpus.expr("3.6", "square")

    def decide(rhs: Expression) -> ScriptResult:
        diff = rhs - lhs - square
        steps = [("rhs - lhs - square", diff)]
        classes = _parameter_classes(diff)
        ok, trace = True, None
        for monomial, coefficient in classes.items():
            ok, trace = equal_mod_ibp(coefficient, Expression.zero())
            steps.append((f"coefficient of {monomial} modulo IBP",
                          "PASS" if ok else "FAIL"))
            if not ok:
                break
        return _finish("3.6", ok, steps,
                       None if trace is None else trace.residual,
                       trace, classes=list(classes))
    return decide


def script_3_7() -> Decide:
    """The cube-root torsion estimate lhs >= rhs, pointwise and exactly.

    With W a cube root of w = A11_{,1}, u = Eb1b1_{,1} and v = Eb1b1,
    lhs - rhs is the square (2/3)|W^2 v + i conj(W u)|^2, so the estimate
    holds for all data.  Both sides agree on the tight family
    v = conj(W) g, u = -i conj(W)^2 conj(g), so no smaller right side holds.
    W carries no derivative, so the check is canonicalization alone.  3.7
    has no target: all of it is built, and `decide` returns the result.
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
    result = _finish("3.7", residual.is_zero() and gap.is_zero(), steps,
                     gap if residual.is_zero() else residual, None)
    return lambda _: result


# The kernel's inputs in catalog symbols; t = |A11_{,1}|^{2/3} = W*Wb.
_FORM_INPUTS = {"R": "R", "t": "W*Wb", "a2": "A11*Ab1b1",
                "lapR": "-R_{1b} - R_{b1}",
                "imbb": "(1/2)*i*(Ab1b1_{11} - A11_{bb})",
                "Rb": "R_{b}", "Ab": "Ab1b1", "Ab1": "Ab1b1_{1}",
                "R0": "R_{0}", "grad2": "2*R_{1}*R_{b}"}
_FORM_BASIS = ("E11_{b1}", "i*E11_{0}", "E11_{1}", "E11_{b}", "E11")
_QUARTERS = dict.fromkeys(map(Factor, _PARAMETERS),
                          Expression.scalar(ScalarExact(Fraction(1, 4))))


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


def _numeric_form(e: dict, minors: list) -> tuple[Expression, str]:
    """The Hermitian form whose entries `e` a kernel form builds on
    `_inputs()`: INT of sum m_ij u_i conj(u_j) on the 3.8 basis, and PASS
    when its leading principal minors are `minors` identically, else the
    first that is not."""
    index = sorted({i for ij in e for i in ij})
    m = [[e[i, j] if (i, j) in e else
          e.get((j, i), Expression.zero()).conjugate() for j in index]
         for i in index]
    u = [parse(_FORM_BASIS[i]) for i in index]
    form = Expression.sum((m[a][b] * u[a] * u[b].conjugate()).integrate()
                          for a in range(len(u)) for b in range(len(u)))
    for k, want in enumerate(minors, 1):
        if det([row[:k] for row in m[:k]]) != want:
            return form, f"FAIL (minor {k})"
    return form, "PASS"


def _match(got: Expression, want: Expression) -> str | Callable[[], str]:
    """An exact comparison, without IBP, as a step value; the difference
    of a failure is computed when the step is formatted."""
    return "PASS" if got == want else lambda: f"FAIL (difference {got - want})"


def _passed(steps: list[tuple[str, object]]) -> bool:
    return all(value == "PASS" for _, value in steps)


def script_3_8() -> Decide:
    """Coefficient bookkeeping from the torsion identity to the estimated form.

    The left side of the cube-root estimate 3.7 is removed and the
    completed-square deficit (lam = rho = 1/4) is added, which must
    reproduce the rational part of the final display exactly, modulo
    integration by parts.  The numeric form must then equal that display
    plus the estimate's right side, term by term, and have the leading
    minors of Theorem B.
    """
    corpus = Corpus.load()
    deficit = (_instantiate("3.6", "lhs", _QUARTERS)
               - _instantiate("3.6", "rhs", _QUARTERS))
    built = canonicalize(corpus.expr("3.5", "integrand")
                         - corpus.expr("3.7", "lhs").integrate() + deficit)
    rhs_3_7 = corpus.expr("3.7", "rhs").integrate()
    x = _inputs()
    form, minors = _numeric_form(form_entries(x, _constant),
                                 thm_b_minors(x, _constant, _abs2))

    def decide(target: Expression) -> ScriptResult:
        ok, trace = equal_mod_ibp(built, target)
        proof = [("numeric form against 3.8 + INT[3.7 rhs]",
                  _match(form, target + rhs_3_7)),
                 ("leading minors 29/48, 5/24, (5/72)R, (5/216)v_3.11, "
                  "(1/9)v_3.12", minors)]
        steps = [("completed-square deficit", deficit),
                 ("match modulo IBP", "PASS" if ok else "FAIL"), *proof]
        return _finish("3.8", ok and _passed(proof), steps, trace.residual,
                       trace, thm_b_proven=_passed(proof))
    return decide


# ---------------------------------------------------------------------------
# Registry, mutation testing
# ---------------------------------------------------------------------------

# identity -> (script, the field of its catalog record that mutation
# perturbs, or None if it has no target)
SCRIPTS = {
    "2.3": (script_2_3, "target"),
    "2.7": (script_2_7, "target"),
    "2.8": (script_2_8, "integrals"),
    "2.ibp": (script_2_ibp, "rhs"),
    "2.11": (script_2_11, "integrals"),
    "3.2": (script_3_2, "rhs"),
    "3.3": (script_3_3, "final"),
    "3.4": (script_3_4, "integrand"),
    "3.5": (script_3_5, "integrand"),
    "3.6": (script_3_6, "rhs"),
    "3.7": (script_3_7, None),
    "3.8": (script_3_8, "integrand_exact"),
}
MUTABLE_IDS = [ident for ident, (_, fld) in SCRIPTS.items() if fld]


def _target(ident: str) -> Expression | None:
    """The catalog target of `ident` that mutation perturbs, if any."""
    fld = SCRIPTS[ident][1]
    return Corpus.load().expr(ident, fld) if fld else None


# one mutant's decision, a function of its own so that a profiler can time it
def _run_mutated(decide: Decide, mutated: Expression) -> ScriptResult:
    return decide(mutated)


def mutation_test(ident: str) -> dict:
    """Perturb each coefficient of the catalog target by +1; all must FAIL.

    The unchanged target is decided first and must PASS: a mutant of a
    target that fails is killed whatever the script checks.  If it fails,
    the report is a `note` saying so, and no mutant is decided."""
    if ident not in MUTABLE_IDS:
        raise KeyError(f"identity {ident!r} does not support mutation testing")
    decide = SCRIPTS[ident][0]()
    base = _target(ident)
    if not decide(base).passed:
        return {"identity": ident,
                "note": "the catalog target fails, so no mutant is decided"}
    terms = base.term_list()
    survivors = []
    for term in terms:
        bump = Expression.from_term(1, term.factors, term.integrated)
        if _run_mutated(decide, base + bump).passed:
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
    return SCRIPTS[ident][0]()(_target(ident))
