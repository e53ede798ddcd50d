"""Builders for the named operators of the calculus.

Conventions (h_{1 1bar} = 1, all indices lowered):

* sublaplacian      lap_b f   = -(f_{,1 1bar} + f_{,1bar 1})
* subgradient       |grad_b f|^2 = 2 f_{,1} f_{,1bar}            (f real)
* deformation operator          DJ f   = f_{,11} + i A11 f       ((1,1)-coefficient;
                                the full tensor is 2Re[... theta^1 (x) Z_1bar])
* its adjoint (derived)         DJstar E = E11_{,1bar 1bar} + i A11 Eb1b1 + conjugate
* generalized Folland-Stein     L_alpha f = lap_b f + i alpha f_{,0}
* Cartan tensor coefficient     Q11 = (1/6) R_{,11} + (i/2) R A11 - A11_{,0}
                                      - (2i/3) A11_{,1bar 1}
* Bianchi-type identity         R_{,0} = A11_{,1bar 1bar} + Ab1b1_{,11}

Inner products used for adjoints: <u, v> = INT[u * conj(v)] for scalars and
<S, T> = INT[2Re(S11 * T1bar1bar)] for deformation tensors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

# `calculus` is imported by the functions that run it, so that listing the
# registry, or building an operator that needs no calculus, does not load it
from .expr import Expression, Factor, SYMBOLS
from .parser import Corpus, parse
from .scalar import I, ScalarExact

if TYPE_CHECKING:
    from .calculus import Rule

__all__ = [
    "OperatorTemplate", "apply_template", "adjoint",
    "build_DJ", "build_DJstar", "build_Lalpha", "build_sublaplacian",
    "build_subgradient_sq", "build_Q11", "build_DQJ_rhs",
    "bianchi_rule", "flatness_rules",
    "REGISTRY", "ALPHA_SECTION2", "ALPHA_SECTION3",
]

# The two distinguished Folland-Stein parameters used by the identity catalog.
ALPHA_SECTION2 = I * ScalarExact(0, 1)          # i*sqrt(3)
ALPHA_SECTION3 = ScalarExact(4) + I * ScalarExact(0, 1)   # 4 + i*sqrt(3)


class OperatorTemplate(NamedTuple):
    """A linear operator given by its coefficient expression in a placeholder.

    `placeholder` is the argument symbol ("f", "g" or "E11"); `domain` and
    `codomain` are "function" or "tensor".  For tensor-valued operators the
    expression is the (1,1)-coefficient; the tensor itself is 2Re[...].
    """

    name: str
    placeholder: str
    domain: str
    codomain: str
    expr: Expression

    def __str__(self):
        return f"{self.name}[{self.placeholder}] = {self.expr}"


def apply_template(template: OperatorTemplate, argument: Expression) -> Expression:
    """Substitute the placeholder (and its conjugate) by `argument`."""
    from .calculus import differentiate

    placeholder = template.placeholder
    conj_placeholder = SYMBOLS[placeholder].conj
    arg_conj = argument.conjugate()

    def expand(term):
        prod = Expression.scalar(term.coeff)
        for f in term.factors:
            if f.symbol == placeholder:
                prod = prod * differentiate(argument, f.derivs)
            elif f.symbol == conj_placeholder and conj_placeholder != placeholder:
                prod = prod * differentiate(arg_conj, f.derivs)
            else:
                prod = prod * Expression.from_factor(f)
        return prod.integrate() if term.integrated else prod

    return template.expr.map_terms(expand)


def is_linear(template: OperatorTemplate) -> bool:
    conj_placeholder = SYMBOLS[template.placeholder].conj
    names = {template.placeholder, conj_placeholder}
    return all(sum(1 for f in t.factors if f.symbol in names) == 1
               for t in template.expr.term_list())


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_DJ() -> OperatorTemplate:
    return OperatorTemplate("DJ", "f", "function", "tensor",
                            parse("f_{11} + i*A11*f"))


@lru_cache(maxsize=None)
def build_DJstar() -> OperatorTemplate:
    """The adjoint of DJ, derived by `adjoint` once per process."""
    return adjoint(build_DJ())._replace(name="DJstar")


def build_sublaplacian() -> OperatorTemplate:
    return OperatorTemplate("lap_b", "f", "function", "function",
                            parse("-f_{1b} - f_{b1}"))


def build_subgradient_sq() -> Expression:
    """|grad_b f|^2 for real f; quadratic, hence a plain expression."""
    return parse("2*f_{1}*f_{b}")


def build_Lalpha(alpha: ScalarExact) -> OperatorTemplate:
    expr = parse("-f_{1b} - f_{b1}") + parse("f_{0}") * (I * alpha)
    return OperatorTemplate(f"L[{alpha}]", "f", "function", "function", expr)


def build_Q11() -> Expression:
    return parse("(1/6)*R_{11} + (1/2)*i*R*A11 - A11_{0} - (2/3)*i*A11_{b1}")


def build_DQJ_rhs() -> Expression:
    """The (1,1)-coefficient of the linearized-Cartan Bochner identity.

    This fourth-order expression in E11 is definitional for the linearized
    Cartan operator here: DQJ(2E) := (1/6) DJ DJstar E - (this expression),
    and only downstream consequences are verified by the identity suite.
    It is the `rhs` of catalog record 3.1.
    """
    return Corpus.load().expr("3.1", "rhs")


# ---------------------------------------------------------------------------
# Substitution rules
# ---------------------------------------------------------------------------

def bianchi_rule() -> Rule:
    """R_{,0 ...} -> (A11_{,1bar 1bar} + Ab1b1_{,11}) differentiated by the tail."""
    from .calculus import Rule

    return Rule("bianchi", "R", ("0",), parse("A11_{bb} + Ab1b1_{11}"))


def flatness_rules() -> list[Rule]:
    """Rewrites expressing DJ f = 0: f_{,11} -> -i A11 f and its conjugate."""
    from .calculus import Rule

    return [
        Rule("DJf=0", "f", ("1", "1"), parse("-i*A11*f")),
        Rule("conj(DJf)=0", "f", ("b", "b"), parse("i*Ab1b1*f")),
    ]


# ---------------------------------------------------------------------------
# Adjoint
# ---------------------------------------------------------------------------

def _strip_placeholder(expr: Expression, names: set[str]) -> Expression:
    """IBP every derivative off the placeholder factors (all integrated)."""
    from .calculus import CalculusError, integrate_by_parts

    current = expr
    for _ in range(10_000):
        items = list(current.items())
        target = None
        for ti, (key, _) in enumerate(items):
            for fi, f in enumerate(key[1]):
                if f.symbol in names and f.derivs:
                    target = (ti, fi)
                    break
            if target:
                break
        if target is None:
            return current
        current = integrate_by_parts(current, target[0], target[1])
    raise CalculusError("adjoint normalization did not terminate")


def adjoint(template: OperatorTemplate) -> OperatorTemplate:
    """Adjoint with respect to the catalog inner products.

    Computed mechanically: pair the operator value against a test argument,
    integrate all derivatives off the placeholder by parts, and read the
    adjoint template off the cofactor of the placeholder.
    """
    from .calculus import CalculusError, canonicalize

    if not is_linear(template):
        raise CalculusError(f"template {template.name} is not linear")
    placeholder = template.placeholder
    conj_placeholder = SYMBOLS[placeholder].conj

    if template.codomain == "function":
        test, test_conj = "g", "gb"
        pairing = (template.expr * Factor("gb")).integrate()
    elif template.codomain == "tensor":
        test, test_conj = "E11", "Eb1b1"
        half = (template.expr * Factor("Eb1b1")).integrate()
        pairing = half + half.conjugate()
    else:  # pragma: no cover
        raise CalculusError(f"unknown codomain {template.codomain}")

    stripped = canonicalize(
        _strip_placeholder(pairing, {placeholder, conj_placeholder}))

    direct = Expression.zero()      # cofactor of the placeholder factor
    conjpart = Expression.zero()    # cofactor of its conjugate
    for term in stripped.term_list():
        rest = Expression.scalar(term.coeff)
        slot = None
        for f in term.factors:
            if f.symbol == placeholder and not f.derivs and slot is None:
                slot = "direct"
            elif f.symbol == conj_placeholder and not f.derivs and slot is None:
                slot = "conj"
            else:
                rest = rest * Expression.from_factor(f)
        if slot == "direct":
            direct = direct + rest
        elif slot == "conj":
            conjpart = conjpart + rest
        else:  # pragma: no cover
            raise CalculusError("placeholder lost during adjoint normalization")

    if template.domain == "function":
        if SYMBOLS[placeholder].real:
            # real scalars pair bilinearly: INT[u * S] = <u, conj(S)>
            result = canonicalize((direct + conjpart).conjugate())
        else:
            result = canonicalize(direct.conjugate())
            if not (canonicalize(conjpart)).is_zero():
                raise CalculusError(
                    "operator is only real-linear; adjoint template undefined")
    elif template.domain == "tensor":
        # INT[E11 * P + Eb1b1 * Q] = <E, W> with W11 = Q, requires P = conj(Q)
        result = canonicalize(conjpart)
        if not canonicalize(direct - result.conjugate()).is_zero():
            raise CalculusError("pairing is not conjugate-symmetric")
    else:  # pragma: no cover
        raise CalculusError(f"unknown domain {template.domain}")

    # the adjoint's argument is the test object; rename scalar tests to f/g
    if template.codomain == "function":
        has_conj = any(f.symbol == "gb" for t in result.term_list()
                       for f in t.factors)
        new_placeholder = "g"
        if not has_conj and template.domain == "function" \
                and SYMBOLS[placeholder].real:
            result = result.rename_symbol("g", "f")
            new_placeholder = "f"
    else:
        new_placeholder = "E11"

    return OperatorTemplate(
        name=f"adjoint({template.name})",
        placeholder=new_placeholder,
        domain=template.codomain,
        codomain=template.domain,
        expr=result,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# name -> builder of each operator queryable from the command line; `ops`
# lists the names and builds only the one it is asked for
REGISTRY = {
    "DJ": build_DJ,
    "DJstar": build_DJstar,
    "lap_b": build_sublaplacian,
    "gradsq_b": build_subgradient_sq,
    "L[i*s3]": lambda: build_Lalpha(ALPHA_SECTION2),
    "L[4+i*s3]": lambda: build_Lalpha(ALPHA_SECTION3),
    "Q11": build_Q11,
    "DQJ_rhs": build_DQJ_rhs,
}
