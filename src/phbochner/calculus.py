"""Covariant-derivative calculus: commutation rewriting and integration by parts.

The engine implements

* Leibniz differentiation in the three frame directions 1, 1-bar ("b"), 0;
* the three-dimensional Ricci commutation rules

      X_{,1b} - X_{,b1} = i X_{,0} + alpha X R
      X_{,01} - X_{,10} = X_{,b} A11 - alpha X A11_{b}
      X_{,0b} - X_{,b0} = X_{,1} Ab1b1 + alpha X Ab1b1_{1}

  where alpha counts (#1 - #1bar) over the base indices plus the derivative
  letters already applied (letters left of the swap; 0 is alpha-neutral);
* canonicalization: every derivative string is sorted to 1 < b < 0 by
  bubble-sorting with the commutation rules, and like terms are collected;
* integration by parts under INT[...] for scalar integrals, those of
  balance 0: INT[X_{,1}] = 0 for X of balance -1 and its conjugate
  INT[X_{,b}] = 0; INT[X_{,0}] = 0 follows from these, since X_{,1b} -
  X_{,b1} = i X_{,0} at balance 0.  An integral of another balance is
  refused: it is no scalar, as a rotation of the frame changes its phase;
* a complete decision procedure for equality modulo integration by parts:
  the difference is canonicalized, and the part of it in each sector is
  reduced, by exact Gaussian elimination, against every divergence relation
  of that sector.  A sector is (weight, balance, non-curvature symbols);
  differentiation and the commutation rules only add R, A11 and Ab1b1
  factors, so each relation lies in one sector, and each sector is finite.
  Each sector's relations are listed and eliminated once, in a fixed order,
  and the pivot rows are kept in reduced echelon form as each row is
  added, so a query is reduced in one pass over its own pivot monomials.
  The residual is the normal form modulo their span: every pivot lead is
  eliminated, so it is the same for all inputs equal modulo IBP, whatever
  the cache state or query order, and so is the certificate (which
  relation was used with which coefficient, listed by row id).  A relation
  has one kind of id, its parent monomial and its direction.  The
  certificate is computed when the trace is first read; a zero residual
  found by elimination is replayed with `check_certificate` from freshly
  built rows before it is returned, so every such equality decision
  doubles as an audit trail.  A constraint that holds only on a slice,
  such as DJ* E = 0 for 3.5, is no relation of the engine: the caller
  subtracts a stated witness that vanishes there.
* substitution: `rewrite` puts values, differentiated, in place of
  factors; operator templates and the rules DJ f = 0 and Bianchi use it.

The engine reads an Expression's terms in stored order and sorts only
where the order reaches output.  A term is keyed by its sorted factor
tuple; whether the sum is an integral is the Expression's one flag.
Canonical forms, residuals and certificate replays are collected into one
dict each, by the two helpers `Expression` itself sums with: `_add` adds a
canonical term as it is, and `_subtract` subtracts a multiple of an
expansion or a row by `sub_mul` and drops an entry that cancels.  A query,
and a relation row (`differentiate` of its parent), canonicalizes an
Expression like any other.  Every coefficient is exact, so the order in
which terms are collected changes no value.

All operations are pure.  The module state is five memo tables that keep
every entry for the life of the process:

* canonical forms of non-canonical factors (`_canon_cache`) and, per factor
  tuple, the unit expansion of its term, plain or integrated alike, or the
  mark that it is canonical (`_term_cache`);
* eliminated systems, one per sector (`_system_cache`);
* the sector and the sort key of each monomial (`_sector` and
  `_monomial_sort_key`).

Only the catalog and its mutants fill them, so they stay small:
`tests/test_imports.py::test_mutation_run_memo_sizes` pins their sizes
after `verify all --mutate`.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

from .expr import (_LETTER_ALPHA, _LETTER_WEIGHT, DERIV_LETTERS, SYMBOLS,
                   Expression, Factor, Monomial, _add, _sorted_factors,
                   _subtract, _term_str)
from .scalar import I, ONE, ZERO, ScalarExact, sub_mul

__all__ = [
    "CalculusError", "RewriteTrace",
    "differentiate", "commute_swap", "canonicalize", "rewrite",
    "equal_mod_ibp", "ibp_residual",
]

# Hard cap on the rows of the relation system an equality query reduces
# against; the catalog needs well under a thousand.
MAX_RELATIONS = 10_000


class CalculusError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

class RewriteTrace:
    """The certificate of an equality-mod-IBP decision, and its residual.

    The certificate is the combination difference = sum(coeff * relation) +
    residual, as (row id, coefficient) pairs, a row id being (parent
    monomial, direction); `check_certificate` replays it.  An equality
    query stores the (system, eliminations) pair of each sector's reduction
    instead of its combination of rows, and `certificate` merges the
    combinations and sorts them by row id the first time it is read.
    `entries` (and `to_text` and `to_dict`) lists the certificate as
    (rule, before, after, coefficient) records.
    """

    def __init__(self):
        self.residual: Expression | None = None
        self._pending: list[tuple["_LinearSystem", list]] = []

    @cached_property
    def certificate(self) -> list[tuple[tuple, ScalarExact]]:
        # sectors share no row, so their combinations merge by update
        combo: dict = {}
        for system, steps in self._pending:
            combo.update(system.combination(steps))
        self._pending = []
        return sorted(combo.items(), key=lambda kv: str(kv[0]))

    @property
    def entries(self) -> list[dict]:
        return [{"rule": "relation", "before": _row_id_str(*rid), "after": "0",
                 "coefficient": str(coeff)} for rid, coeff in self.certificate]

    def to_text(self) -> str:
        lines = [f"{e['rule']}: {e['before']}  ==>  {e['after']} "
                 f"[coefficient={e['coefficient']}]" for e in self.entries]
        if self.residual is not None:
            lines.append(f"residual: {self.residual}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The entries, and the residual as text unless there is none."""
        payload = {"entries": self.entries}
        if self.residual is not None:
            payload["residual"] = str(self.residual)
        return payload


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expression, letters: str | Iterable[str]) -> Expression:
    """Covariant derivative of a non-integrated expression (Leibniz rule)."""
    if e.integrated:
        raise CalculusError("cannot differentiate an integrated expression")
    if isinstance(letters, str):
        letters = (letters,)
    out = e
    for letter in letters:
        if letter not in DERIV_LETTERS:
            raise CalculusError(f"unknown derivative letter {letter!r}")
        acc: dict = {}
        for factors, coeff in out._terms.items():
            for j in range(len(factors)):
                _add(acc, _sorted_factors(
                    factors[:j] + (factors[j].with_deriv(letter),)
                    + factors[j + 1:]), coeff)
        out = Expression(acc)
    return out


# ---------------------------------------------------------------------------
# Commutation rules
# ---------------------------------------------------------------------------

def commute_swap(factor: Factor, position: int) -> Expression:
    """Swap the adjacent derivative pair at `position` (0-based).

    Returns the factor with the pair swapped plus the curvature/torsion
    correction terms; corrections acquired before trailing letters are
    Leibniz-differentiated by the tail.
    """
    derivs = factor.derivs
    if not 0 <= position <= len(derivs) - 2:
        raise CalculusError(
            f"swap position {position} out of range for {factor}")
    a, b = derivs[position], derivs[position + 1]
    if a == b:
        return Expression.from_factor(factor)
    prefix = derivs[:position]
    tail = derivs[position + 2:]
    alpha = factor.alpha_prefix(position)
    swapped = Expression.from_factor(
        Factor(factor.symbol, prefix + (b, a) + tail))
    base = Expression.from_factor(Factor(factor.symbol, prefix))

    rule, sign = _SWAP_RULES.get((a, b)), 1
    if rule is None:
        rule, sign = _SWAP_RULES[b, a], -1
    letter, multiplier, curvature, alpha_sign = rule
    corr = (Expression.from_factor(Factor(factor.symbol, prefix + (letter,)))
            * multiplier + base * curvature * (alpha_sign * alpha))
    return swapped + differentiate(corr if sign > 0 else -corr, tail)


# ordered letter pair (a, b) -> (letter of the inserted X-derivative, its
# multiplier, the curvature/torsion factor of the alpha term, that term's
# sign), read off the rules above; the reversed pair negates the correction
_SWAP_RULES = {
    ("1", "b"): ("0", I, Factor("R", ()), 1),
    ("0", "1"): ("b", Factor("A11", ()), Factor("A11", ("b",)), -1),
    ("0", "b"): ("1", Factor("Ab1b1", ()), Factor("Ab1b1", ("1",)), 1),
}

_canon_cache: dict[Factor, Expression] = {}
# the factors of a term -> the canonical terms of its expansion with
# coefficient 1, as a dict (a term's expansion is this scaled, plain or
# integrated alike), or None when the term is canonical
_term_cache: dict[Monomial, dict | None] = {}
_UNSEEN = object()


def canonicalize_factor(factor: Factor) -> Expression:
    """Canonical form of a factor that is not canonical (every caller tests
    `Factor.is_canonical` first): its leftmost out-of-order pair swapped."""
    out = _canon_cache.get(factor)
    if out is None:
        acc: dict = {}
        swapped = commute_swap(factor, factor.first_disorder())
        for factors, coeff in swapped._terms.items():
            _product_into(acc, coeff, factors)
        out = _canon_cache[factor] = Expression(acc)
    return out


def _product_into(acc: dict, coeff: ScalarExact,
                  factors: tuple[Factor, ...]) -> None:
    """acc[m] += coeff * c over the terms c * m of the product of the
    canonical forms of `factors`, m a sorted monomial."""
    prod = {(): coeff}
    for f in factors:
        if f.is_canonical():
            prod = {m + (f,): c for m, c in prod.items()}
            continue
        terms = canonicalize_factor(f)._terms
        new: dict = {}
        for m1, c1 in prod.items():
            neg = -c1
            for m2, c2 in terms.items():
                m = m1 + m2
                new[m] = sub_mul(new.get(m, ZERO), neg, c2)
        prod = new
    for m, c in prod.items():
        _add(acc, _sorted_factors(m), c)


def _expand_term(factors: Monomial) -> dict | None:
    """Canonical {monomial: coefficient} of a unit term, or None for a term
    that is canonical already; remembered in `_term_cache`."""
    if all(f.is_canonical() for f in factors):
        expansion = None
    else:
        acc: dict = {}
        _product_into(acc, ONE, factors)
        expansion = {m: c for m, c in acc.items() if c}
    _term_cache[factors] = expansion
    return expansion


def canonicalize(e: Expression) -> Expression:
    """Sort every derivative string with the commutation rules and collect.

    The result is unique for a given input: the sweep always rewrites the
    leftmost out-of-order pair of each factor, and corrections are recursively
    canonicalized.  A canonical term is added as it is by `_add`, which
    leaves a zero in place for `Expression` to drop; an expansion is added
    by `_subtract`, which drops an entry that cancels.
    """
    acc: dict = {}
    for key, coeff in e._terms.items():
        expansion = _term_cache.get(key, _UNSEEN)
        if expansion is _UNSEEN:
            expansion = _expand_term(key)
        if expansion is None:
            _add(acc, key, coeff)
        else:
            _subtract(acc, -coeff, expansion)
    return Expression(acc, e.integrated)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def rewrite(e: Expression, values: Mapping[Factor, Expression]) -> Expression:
    """Replace each factor X_{PJ} for which `values` holds X_P, the shortest
    such P first, by that value differentiated by J, in one
    `Expression.substitute` pass.

    Operator templates (X_P the placeholder and its conjugate) and the rules
    DJ f = 0 and Bianchi (X_P = f_{11}, f_{bb} and R_{0}) are all such maps.
    No rule of the engine has a value that its own X_P matches, so repeating
    the pass would change nothing; and as each rule is a true identity, a
    partly applied one is still sound."""
    def replace(f: Factor) -> Expression | None:
        for n in range(len(f.derivs) + 1):
            value = values.get(Factor(f.symbol, f.derivs[:n]))
            if value is not None:
                return differentiate(value, f.derivs[n:])
        return None
    return e.substitute(replace)


# ---------------------------------------------------------------------------
# Equality modulo integration by parts
# ---------------------------------------------------------------------------

# sector -> eliminated system
_system_cache: dict[tuple, "_LinearSystem"] = {}

# The factors the commutation rules add; every other factor of a monomial
# keeps its symbol under differentiation and rewriting.
_CURVATURE = ("R", "A11", "Ab1b1")


@cache
def _monomial_sort_key(m: Monomial):
    return (len(m), tuple(f.sort_key() for f in m))


@cache
def _sector(m: Monomial) -> tuple[int, int, tuple[str, ...]]:
    """(weight, balance, non-curvature symbols in factor order) of m.

    Differentiation and the commutation rules keep all three, so every
    divergence relation lies in one sector.
    """
    return (sum(f.weight() for f in m), sum(f.alpha() for f in m),
            tuple(f.symbol for f in m if f.symbol not in _CURVATURE))


def _relation_row(parent: Monomial, direction: str) -> dict[Monomial, ScalarExact]:
    """INT[(product of parent)_{,direction}] = 0, canonicalized."""
    return canonicalize(differentiate(Expression({parent: ONE}),
                                      direction))._terms


class _LinearSystem:
    """Exact row reduction with a certificate over the original rows.

    The pivot rows stay in reduced echelon form after every `add_row`: each
    lead has coefficient 1, and no pivot row holds another pivot's lead.
    The reduced echelon form of a span is unique, and a row becomes a pivot
    exactly when it is outside the span of the rows before it, so the order
    rows are added in alone fixes the pivots and their combinations.
    `reduce_vector` eliminates the vector's own pivot monomials in one pass,
    and what is left avoids all leads: the unique normal form modulo the
    span.
    """

    def __init__(self):
        # leading monomial -> (vector, combo over original row ids)
        self.pivots: dict[Monomial, tuple[dict, dict]] = {}

    def add_row(self, row_id, vec: dict):
        vec, steps = self.reduce_vector(vec)
        if not vec:
            return
        lead = max(vec, key=_monomial_sort_key)
        scale = vec[lead].inverse()
        vec = {m: c * scale for m, c in vec.items()}
        # vec is scale times the row less the pivot rows of steps
        combo = {row_id: scale}
        _subtract(combo, scale, self.combination(steps))
        # vec holds no other lead, so removing its lead from each pivot row
        # keeps the form reduced
        for pvec, pcombo in self.pivots.values():
            f = pvec.get(lead)
            if f is not None:
                _subtract(pvec, f, vec)
                _subtract(pcombo, f, combo)
        self.pivots[lead] = (vec, combo)

    def reduce_vector(self, vec: dict) -> tuple[dict, list]:
        """(normal form of vec, its eliminations as (lead, factor) pairs).

        No pivot row holds another lead, so one pass over vec's own pivot
        monomials eliminates every lead, each by its coefficient in vec.
        `combination` turns the eliminations into the rows subtracted from
        vec.
        """
        vec = dict(vec)
        steps = [(lead, vec[lead]) for lead in vec if lead in self.pivots]
        for lead, factor in steps:
            _subtract(vec, factor, self.pivots[lead][0])
        return vec, steps

    def combination(self, steps: list) -> dict:
        """Row id -> coefficient of the rows `steps` subtracted in total.

        Pivot rows keep the invariant pvec = sum(pcombo * rows), so each
        elimination vec -= f * pvec subtracts f * pcombo.
        """
        combo: dict = {}
        for lead, factor in steps:
            _subtract(combo, -factor, self.pivots[lead][1])
        return combo


def _enumerate_strings(weight: int) -> list[tuple[str, ...]]:
    """Canonical derivative strings (1s, then bs, then 0s) of given weight."""
    out = []
    for zeros in range(weight // 2 + 1):
        rest = weight - 2 * zeros
        for ones in range(rest + 1):
            out.append(("1",) * ones + ("b",) * (rest - ones) + ("0",) * zeros)
    return out


def _sector_monomials(weight: int, balance: int,
                      symbols: tuple[str, ...]) -> list[Monomial]:
    """Every canonical monomial of a sector, in monomial order.

    Such a monomial has one factor per entry of `symbols` and any number of
    R, A11, Ab1b1 factors, each with a canonical derivative string.
    """
    out = set()
    for nfac in range(weight // 2 + 1):
        for extra in itertools.combinations_with_replacement(_CURVATURE, nfac):
            syms = symbols + extra
            budget = weight - sum(SYMBOLS[s].base_weight for s in syms)
            for split in itertools.product(range(budget + 1), repeat=len(syms)):
                if sum(split) != budget:
                    continue
                # (factor, its balance) for each string of each factor
                choices = [[(f, f.alpha()) for f in
                            (Factor(sym, s) for s in _enumerate_strings(w))]
                           for sym, w in zip(syms, split)]
                for combo in itertools.product(*choices):
                    if sum(a for _, a in combo) == balance:
                        out.add(_sorted_factors(tuple(f for f, _ in combo)))
    return sorted(out, key=_monomial_sort_key)


def _build_relations(weight: int, balance: int,
                     symbols: tuple[str, ...]) -> list[tuple]:
    """Ids of the divergence relations of a balance-0 sector, in a fixed order.

    INT[(P)_{,d}] = 0 lies in the sector exactly when the monomial P lies in
    the sector shifted back by the weight and balance of d.  Canonical P
    suffice: a non-canonical P is a combination of canonical ones of its
    sector.  Only the directions 1 and b are listed: for a parent P of
    balance 0, INT[P_{,0}] = -i(INT[(P_{,1})_{,b}] - INT[(P_{,b})_{,1}]),
    because alpha = 0 in the first commutation rule.  (The canonical forms
    of the two sides can differ by terms of the Bianchi identity R_{,0} =
    A11_{,bb} + Ab1b1_{,11}, as for P = E11_{0}*Eb1b1; the 1 and b rows
    span those too.)  The order (direction b first, then 1, largest parent
    first) fixes the echelon basis; of the orders tried it gave the
    shortest certificates on the catalog and its mutants.
    """
    return [(parent, d) for d in ("b", "1")
            for parent in reversed(_sector_monomials(
                weight - _LETTER_WEIGHT[d], balance - _LETTER_ALPHA[d],
                symbols))]


def _eliminated_system(sector: tuple) -> _LinearSystem:
    """The reduced echelon system of a sector's relations, cached.

    The rows of `_build_relations` are added in order, each reduced against
    those before it; a sector with more than MAX_RELATIONS of them is
    refused before any row is built.
    """
    system = _system_cache.get(sector)
    if system is None:
        rids = _build_relations(*sector)
        if len(rids) > MAX_RELATIONS:
            raise CalculusError(
                f"relation cap ({MAX_RELATIONS}) exceeded: {len(rids)} "
                f"relations in the sector {sector}")
        system = _LinearSystem()
        for rid in rids:
            system.add_row(rid, _relation_row(*rid))
        _system_cache[sector] = system
    return system


def _row_id_str(parent: Monomial, direction: str) -> str:
    return f"INT[({_term_str(ONE, parent, False)[1]})_{{{direction}}}]"


def _no_modulo(modulo: Sequence[Expression]) -> None:
    # `ibp_residual` and `check_certificate` keep a trailing `modulo` only
    # because the benchmark tracer passes an empty one positionally; it goes
    # when the tracer stops passing it.
    if modulo:
        raise CalculusError("modulo relations are not supported; subtract "
                            "a stated witness instead")


def ibp_residual(a: Expression, b: Expression,
                 modulo: Sequence[Expression] = ()
                 ) -> tuple[Expression, RewriteTrace]:
    """Normal form of a - b modulo integration by parts.

    Returns (residual, trace); the residual is zero exactly when a == b
    modulo IBP.  The canonical difference is split by sector, and each part
    is reduced against its own sector's system; relations never cross
    sectors.  A zero found by elimination is replayed with
    `check_certificate`.  A plain difference is its own normal form; a - b
    raises ValueError for a plain sum and an integral.
    CalculusError is raised for a part of balance other than 0, before any
    system is built, and if the replay fails.  `modulo` must be empty.
    """
    _no_modulo(modulo)
    trace = RewriteTrace()
    d = canonicalize(a - b)
    if not d.integrated:
        trace.residual = None if d.is_zero() else d
        return d, trace

    # sector -> that sector's part of the vector
    parts: dict[tuple, dict] = {}
    for mono, coeff in d._terms.items():
        parts.setdefault(_sector(mono), {})[mono] = coeff
    for weight, balance, _ in parts:
        if balance:
            raise CalculusError(
                f"an integral of balance {balance} (weight {weight}) is not "
                "a scalar; only balance 0 is decided")

    left: dict = {}
    for sector, part in parts.items():
        system = _eliminated_system(sector)
        reduced, steps = system.reduce_vector(part)
        trace._pending.append((system, steps))
        # the sectors share no monomial, and reduce_vector drops zeros
        left.update(reduced)

    residual = Expression(left, True)
    trace.residual = None if residual.is_zero() else residual
    if trace.residual is None and not check_certificate(a, b, trace):
        raise CalculusError("the equality certificate does not replay")
    return residual, trace


def equal_mod_ibp(a: Expression, b: Expression) -> tuple[bool, RewriteTrace]:
    """Decide a == b modulo integration by parts; trace carries the audit."""
    residual, trace = ibp_residual(a, b)
    return residual.is_zero(), trace


def check_certificate(a: Expression, b: Expression, trace: RewriteTrace,
                      modulo: Sequence[Expression] = ()) -> bool:
    """Replay an equality certificate: a - b == sum(c * relation) + residual.

    Every relation row is rebuilt from its id, never read from the system
    cache (canonical forms of factors and terms still come from
    `_canon_cache` and `_term_cache`), and the combination is checked by
    exact arithmetic, so a True result is an independent proof that the
    recorded elimination was sound.  `modulo` must be empty.
    """
    _no_modulo(modulo)
    total = dict(canonicalize(a - b)._terms)
    for rid, coeff in trace.certificate:
        _subtract(total, coeff, _relation_row(*rid))
    return total == ({} if trace.residual is None else trace.residual._terms)
