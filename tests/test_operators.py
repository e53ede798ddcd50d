"""Operator templates, adjoints, and substitution rules."""

import random
from fractions import Fraction

import pytest

from phbochner import operators as ops
from phbochner.calculus import (CalculusError, canonicalize, differentiate,
                                equal_mod_ibp, rewrite)
from phbochner.expr import Expression, Factor
from phbochner.parser import parse
from phbochner.scalar import I, ScalarExact

from test_scalar import random_scalar


def test_DJ_on_constant():
    got = ops.apply_template(ops.build_DJ(), Expression.scalar(1))
    assert got == parse("i*A11")


def test_flatness_rule_examples():
    rules = ops.flatness_rules()
    assert list(rules) == [Factor("f", ("1", "1")), Factor("f", ("b", "b"))]
    e = rewrite(parse("f_{11}"), rules)
    assert e == parse("-i*A11*f")
    e = rewrite(parse("Ab1b1*f_{11}"), rules)
    assert e == parse("-i*A11*Ab1b1*f")
    assert rewrite(parse("f_{bb}"), rules) == parse("i*Ab1b1*f")


def test_flatness_rule_rewrites_every_factor_in_one_call():
    # both f_{11} factors go, and f_{b} is no match
    e = rewrite(parse("f_{11}*f_{11} + f_{11}*f_{b}"), ops.flatness_rules())
    assert e == parse("-A11*A11*f*f - i*A11*f*f_{b}")


def test_apply_template_puts_the_argument_itself_in_place_of_f():
    # f is its own conjugate: a complex argument goes in as it is, not
    # as its conjugate
    got = ops.apply_template(ops.build_sublaplacian(), parse("i*R*f"))
    assert got == parse("-i*R_{1b}*f - i*R_{b}*f_{1} - i*R_{1}*f_{b} "
                        "- i*R*f_{1b} - i*R_{b1}*f - i*R_{1}*f_{b} "
                        "- i*R_{b}*f_{1} - i*R*f_{b1}")


def test_DJstar_torsion_free():
    e = ops.build_DJstar().expr.drop_symbols({"A11", "Ab1b1"})
    assert e == parse("E11_{bb} + Eb1b1_{11}")


def test_DJstar_on_second_derivative():
    # substituting E11 = f_{,11} reproduces the leading fourth-order part
    got = ops.apply_template(ops.build_DJstar(), parse("f_{11}"))
    assert got.drop_symbols({"A11", "Ab1b1"}) == parse("f_{11bb} + f_{bb11}")


def test_adjoint_of_DJ_is_DJstar():
    adj = ops.adjoint(ops.build_DJ())
    assert adj.placeholder == "E11"
    assert canonicalize(adj.expr - ops.build_DJstar().expr).is_zero()
    # derived once per process: an equal template is a cache hit
    assert ops.adjoint(ops.build_DJ()) is adj


def test_DJstar_text():
    # DJstar is derived by `adjoint`; its printed form is the published one
    assert str(ops.build_DJstar()) == (
        "DJstar[E11] = i*A11*Eb1b1 - i*Ab1b1*E11 + E11_{bb} + Eb1b1_{11}")


def test_adjoint_of_Lalpha():
    for alpha in (ops.ALPHA_SECTION2, ops.ALPHA_SECTION3, ScalarExact(1)):
        adj = ops.adjoint(ops.build_Lalpha(alpha))
        want = ops.build_Lalpha(alpha.conjugate())
        assert canonicalize(adj.expr - want.expr).is_zero()


def test_double_adjoint():
    L = ops.build_Lalpha(ops.ALPHA_SECTION3)
    again = ops.adjoint(ops.adjoint(L))
    assert canonicalize(again.expr - L.expr).is_zero()


# linear templates on f: both codomains, orders 0-2, T-direction derivatives,
# and coefficients built from i, s3, R, A11 and Ab1b1
_ADJOINT_CASES = [
    ("function", "(1 + i*s3)*R*f"),
    ("function", "i*s3*f_{0} - R*f_{1b}"),
    ("function", "A11*f_{bb} - i*Ab1b1*f_{11}"),
    ("tensor", "i*A11*f"),
    ("tensor", "s3*f_{11} + (2 - i)*A11*f_{0}"),
    ("tensor", "R*f_{11} - i*A11*f_{b1}"),
]


@pytest.mark.parametrize("codomain, text", _ADJOINT_CASES)
def test_adjoint_defining_identity(codomain, text):
    # <P f, u> = <f, P* u> modulo integration by parts, where the pairing of
    # tensors is INT[2Re(S11 * conj(u))] and P* u is a real function there
    P = ops.OperatorTemplate("P", "f", codomain, parse(text))
    u = parse("g" if codomain == "function" else "E11")
    lhs = (P.expr * u.conjugate()).integrate()
    if codomain == "tensor":
        lhs = lhs + lhs.conjugate()
    Pstar_u = ops.apply_template(ops.adjoint(P), u)
    rhs = (parse("f") * Pstar_u.conjugate()).integrate()
    assert equal_mod_ibp(lhs, rhs)[0]


def test_adjoint_identity():
    ident = ops.OperatorTemplate("identity", "f", "function",
                                 Expression.from_factor(Factor("f")))
    adj = ops.adjoint(ident)
    assert canonicalize(adj.expr - ident.expr).is_zero()


def test_sublaplacian_self_adjoint():
    lap = ops.build_sublaplacian()
    assert canonicalize(ops.adjoint(lap).expr - lap.expr).is_zero()


def test_sublaplacian_and_gradient():
    lap = ops.build_sublaplacian()
    assert ops.apply_template(lap, Expression.scalar(3)).is_zero()
    grad = ops.build_subgradient_sq()
    assert grad == grad.conjugate()


def test_templates_linear():
    rng = random.Random(17)
    u = parse("f_{1} + R*f")
    v = parse("f_{b0}")
    # templates without a conjugated placeholder are complex-linear
    for template in (ops.build_DJ(), ops.build_Lalpha(ops.ALPHA_SECTION2),
                     ops.build_sublaplacian()):
        assert ops.is_linear(template)
        a, b = random_scalar(rng), random_scalar(rng)
        lhs = ops.apply_template(template, u * a + v * b)
        rhs = ops.apply_template(template, u) * a + ops.apply_template(template, v) * b
        assert (lhs - rhs).is_zero()
    # the adjoint pairs the argument with its conjugate, so it is real-linear
    djstar = ops.build_DJstar()
    assert ops.is_linear(djstar)
    a = ScalarExact(random.Random(3).randint(-5, 5))
    b = ScalarExact(2) / 3
    lhs = ops.apply_template(djstar, u * a + v * b)
    rhs = ops.apply_template(djstar, u) * a + ops.apply_template(djstar, v) * b
    assert (lhs - rhs).is_zero()


def test_Q11_examples():
    q = ops.build_Q11()
    assert q.drop_symbols({"A11", "Ab1b1"}).filter_terms(
        lambda factors: not any(f.symbol == "R" and f.derivs
                                for f in factors)).is_zero()
    assert {sum(f.weight() for f in factors)
            for factors, _ in q.items()} == {4}
    want_conj = parse(
        "(1/6)*R_{bb} - (1/2)*i*R*Ab1b1 - Ab1b1_{0} + (2/3)*i*Ab1b1_{1b}")
    assert q.conjugate() == want_conj


def test_bianchi_rule():
    rule = ops.bianchi_rule()
    e = rewrite(parse("R_{0}*f*f"), rule)
    assert e == parse("A11_{bb}*f*f + Ab1b1_{11}*f*f")
    assert e.drop_symbols({"A11", "Ab1b1"}).is_zero()
    # trailing derivatives after the leading 0 differentiate the replacement
    e2 = rewrite(parse("R_{00}"), rule)
    assert e2 == parse("A11_{bb0} + Ab1b1_{110}")


def test_DQJ_rhs_vanishes_at_zero():
    # linear in the deformation coefficient: no E-free terms
    phi = ops.build_DQJ_rhs()
    assert all(any(f.symbol in ("E11", "Eb1b1") for f in factors)
               for factors, _ in phi.items())


def _op_weight(factors):
    return sum(sum({"1": 1, "b": 1, "0": 2}[l] for l in f.derivs)
               for f in factors if f.symbol in ("E11", "Eb1b1"))


def test_leading_weight_folland_stein_part():
    """The fourth-order part is (1/12) L*_a L_a with a = 4 + i sqrt3.

    The remainder after subtracting it has operator weight <= 2 in the
    deformation coefficient, for this alpha and no other.
    """
    def remainder_weight(alpha):
        lapE = parse("-E11_{1b} - E11_{b1}")
        LE = lapE + parse("E11_{0}") * (I * alpha)

        def lstar(e):
            return (-(differentiate(e, ("1", "b")) + differentiate(e, ("b", "1")))
                    + differentiate(e, ("0",)) * (I * alpha.conjugate()))

        rem = canonicalize(ops.build_DQJ_rhs()
                           - lstar(LE) * ScalarExact(Fraction(1, 12)))
        return max(_op_weight(factors) for factors, _ in rem.items())

    assert remainder_weight(ops.ALPHA_SECTION3) == 2
    assert remainder_weight(ops.ALPHA_SECTION2) > 2


def test_registry():
    reg = ops.REGISTRY
    assert "DJ" in reg and "DJstar" in reg and "Q11" in reg
    assert all(str(build()) for build in reg.values())


def test_adjoint_rejects_operators_not_on_f():
    # DJstar acts on deformation tensors E11, not on the real function f
    with pytest.raises(CalculusError):
        ops.adjoint(ops.build_DJstar())


def test_adjoint_rejects_nonlinear():
    bad = ops.OperatorTemplate("sq", "f", "function",
                               parse("f_{1}*f_{b}"))
    with pytest.raises(Exception):
        ops.adjoint(bad)
