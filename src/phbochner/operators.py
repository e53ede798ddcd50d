"""Builders for the named operators of the calculus.

Conventions (h_{1 1bar} = 1, all indices lowered):

* sublaplacian      lap_b f   = -(f_{,1 1bar} + f_{,1bar 1})
* subgradient       |grad_b f|^2 = 2 f_{,1} f_{,1bar}            (f real)
* deformation operator          DJ f   = f_{,11} + i A11 f       ((1,1)-coefficient;
                                the full tensor is 2Re[... theta^1 (x) Z_1bar])
* its adjoint (derived)         DJstar E = E11_{,1bar 1bar} + i A11 Eb1b1 + conjugate
* generalized Folland-Stein     L_alpha f = lap_b f + i alpha f_{,0}
                                (its adjoint is derived by `adjoint` too)
* Cartan tensor coefficient     Q11 = (1/6) R_{,11} + (i/2) R A11 - A11_{,0}
                                      - (2i/3) A11_{,1bar 1}
* Bianchi-type identity         R_{,0} = A11_{,1bar 1bar} + Ab1b1_{,11}

Inner products used for adjoints: <u, v> = INT[u * conj(v)] for scalars and
<S, T> = INT[2Re(S11 * T1bar1bar)] for deformation tensors.  Under INT the
derivative string I of f_{,I} moves off f reversed and with the sign
(-1)^|I|, so `adjoint` writes the adjoint of an operator on the real function
f in closed form: each term c * f_{,I} gives (-1)^|I| (conj(c) u)_{,conj(rev I)}
with u = f, or u = E11 plus (-1)^|I| (c Eb1b1)_{,rev I} for a tensor value.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, NamedTuple

# `calculus` is imported by the functions that run it, so that listing the
# registry, or building an operator that needs no calculus, does not load it
from .expr import Expression, Factor, SYMBOLS, conj_letter
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

    `placeholder` is the argument symbol: the real function "f", or "E11"
    for an operator on deformation tensors.  `codomain` is "function" or
    "tensor"; for tensor-valued operators the expression is the
    (1,1)-coefficient, and the tensor itself is 2Re[...].
    """

    name: str
    placeholder: str
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
    return OperatorTemplate("DJ", "f", "tensor", parse("f_{11} + i*A11*f"))


def build_DJstar() -> OperatorTemplate:
    """The adjoint of DJ, derived by `adjoint` once per process."""
    return adjoint(build_DJ())._replace(name="DJstar")


def build_sublaplacian() -> OperatorTemplate:
    return OperatorTemplate("lap_b", "f", "function",
                            parse("-f_{1b} - f_{b1}"))


def build_subgradient_sq() -> Expression:
    """|grad_b f|^2 for real f; quadratic, hence a plain expression."""
    return parse("2*f_{1}*f_{b}")


def build_Lalpha(alpha: ScalarExact) -> OperatorTemplate:
    expr = build_sublaplacian().expr + parse("f_{0}") * (I * alpha)
    return OperatorTemplate(f"L[{alpha}]", "f", "function", expr)


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
    """Rewrites expressing DJ f = 0: f_{,11} -> -(DJ f - f_{,11}), which is
    -i A11 f, and its conjugate."""
    from .calculus import Rule

    rest = -(build_DJ().expr - parse("f_{11}"))
    return [
        Rule("DJf=0", "f", ("1", "1"), rest),
        Rule("conj(DJf)=0", "f", ("b", "b"), rest.conjugate()),
    ]


# ---------------------------------------------------------------------------
# Adjoint
# ---------------------------------------------------------------------------

@cache
def adjoint(template: OperatorTemplate) -> OperatorTemplate:
    """Adjoint with respect to the catalog inner products, cached per
    template (an equal template is a cache hit), so each operator's adjoint
    is derived once per process.

    For a linear template in the real function f, integrating the derivative
    string I off f by parts reverses it and gives the sign (-1)^|I|, so each
    term c * f_{,I} contributes

        (-1)^|I| * (conj(c) * u)_{,conj(reversed I)}

    with u = f for a function-valued operator and u = E11 for a tensor-valued
    one; a tensor-valued operator, paired by 2Re[S11 * Eb1b1], also
    contributes (-1)^|I| * (c * Eb1b1)_{,reversed I}.
    """
    from .calculus import CalculusError, canonicalize, differentiate

    if template.placeholder != "f":
        raise CalculusError(
            f"template {template.name} is not an operator on the real function f")
    if not is_linear(template):
        raise CalculusError(f"template {template.name} is not linear")
    tensor = template.codomain == "tensor"
    u = Factor("E11" if tensor else "f")

    parts = []
    for term in template.expr.term_list():
        (arg,) = [f for f in term.factors if f.symbol == "f"]
        # c times the sign (-1)^|I|, which is real
        c = Expression.from_term(term.coeff * (-1) ** len(arg.derivs),
                                 [f for f in term.factors if f.symbol != "f"])
        rev = arg.derivs[::-1]
        parts.append(differentiate(c.conjugate() * u, [conj_letter(l) for l in rev]))
        if tensor:
            parts.append(differentiate(c * Factor("Eb1b1"), rev))

    return OperatorTemplate(
        name=f"adjoint({template.name})",
        placeholder=u.symbol,
        codomain="function",
        expr=canonicalize(Expression.sum(parts)),
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
