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
* integration by parts under INT[...]: INT[(u v)_{,a}] = 0, including the
  T-direction a = 0 (the divergence theorem holds in all three directions;
  for a parent of balance 0 the 0-direction relation already follows from
  the 1 and b ones, since X_{,1b} - X_{,b1} = i X_{,0} there);
* a complete decision procedure for equality modulo integration by parts:
  the difference is canonicalized, and each (weight, balance) class of it is
  reduced, by exact Gaussian elimination, against every divergence relation
  of the sectors its monomials lie in.  A sector is (weight, balance,
  non-curvature symbols); differentiation and the commutation rules only add
  R, A11 and Ab1b1 factors, so each relation lies in one sector, and each
  sector is finite.  Each sector's relations are listed and eliminated once,
  in a fixed order, and the pivot rows are then back-substituted into
  reduced echelon form, so a query is reduced in one pass over its own
  pivot monomials.  The residual is the normal form modulo their span:
  every pivot lead is eliminated, so it is the same for all inputs equal
  modulo IBP, whatever the cache state or query order, and so is the
  certificate (which relation was used with which coefficient).  The
  certificate is computed when the trace is first read; a zero residual
  found by elimination is replayed with `check_certificate` from freshly
  built rows before it is returned, so every such equality decision doubles
  as an audit trail.

All operations are pure.  The module state is four bounded caches:

* canonical forms of factors (`_canon_cache`) and the unit expansions of
  non-canonical terms (`_term_cache`), each at most MAX_CACHED_FACTORS;
* eliminated systems by sector set and `modulo` generators
  (`_system_cache`, at most MAX_CACHED_SYSTEMS);
* the sector of each monomial (`_sector`, an LRU cache of at most
  MAX_CACHED_MONOMIALS).

The first three evict their oldest entry first.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .expr import (_LETTER_ALPHA, _LETTER_ORDER, _LETTER_WEIGHT, DERIV_LETTERS,
                   SYMBOLS, Expression, Factor, Term)
from .scalar import I, ONE, ZERO, ScalarExact, sub_mul

__all__ = [
    "CalculusError", "RewriteTrace", "Rule",
    "differentiate", "commute_swap", "canonicalize", "integrate_by_parts",
    "apply_rule", "equal_mod_ibp", "ibp_residual",
]

# Hard cap on the rows of the relation system an equality query reduces
# against; the catalog needs well under a thousand.
MAX_RELATIONS = 10_000
# Bounds of the caches shared across queries: canonical forms of factors
# (and of non-canonical terms), eliminated systems and the sectors of
# monomials.  After `verify all --mutate` they hold 95 factors, 54 terms,
# 6 systems (four sectors, their three-sector merge, and that merge with the
# slice-relation rows of 3.5) and 59 monomials.
MAX_CACHED_FACTORS = 10_000
MAX_CACHED_SYSTEMS = 64
MAX_CACHED_MONOMIALS = 10_000


class CalculusError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

class RewriteTrace:
    """The certificate of an equality-mod-IBP decision, and its residual.

    The certificate is the combination difference = sum(coeff * relation) +
    residual, as (row id, coefficient) pairs; `check_certificate` replays
    it.  An equality query stores each reduction's (system, eliminations)
    pair instead of its combination of rows, and `certificate` computes the
    pending combinations, in query order, the first time it is read.
    `entries` (and the text and JSON exports) lists the certificate as
    (rule, before, after, coefficient) records.
    """

    def __init__(self):
        self.residual: Expression | None = None
        self._certificate: list[tuple[tuple, ScalarExact]] = []
        self._pending: list[tuple["_LinearSystem", list]] = []

    @property
    def certificate(self) -> list[tuple[tuple, ScalarExact]]:
        pending, self._pending = self._pending, []
        for system, steps in pending:
            combo = system.combination(steps)
            self._certificate.extend(
                sorted(combo.items(), key=lambda kv: str(kv[0])))
        return self._certificate

    @property
    def entries(self) -> list[dict]:
        return [{"rule": "relation", "before": _row_id_str(rid), "after": "0",
                 "coefficient": str(coeff)} for rid, coeff in self.certificate]

    def to_text(self) -> str:
        lines = [f"{e['rule']}: {e['before']}  ==>  {e['after']} "
                 f"[coefficient={e['coefficient']}]" for e in self.entries]
        if self.residual is not None:
            lines.append(f"residual: {self.residual}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {"entries": self.entries}
        if self.residual is not None:
            payload["residual"] = str(self.residual)
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expression, letters: str | Iterable[str]) -> Expression:
    """Covariant derivative of a non-integrated expression (Leibniz rule)."""
    if isinstance(letters, str):
        letters = (letters,)
    out = e
    for letter in letters:
        if letter not in DERIV_LETTERS:
            raise CalculusError(f"unknown derivative letter {letter!r}")
        parts = []
        for key, coeff in out.items():
            integrated, factors = key
            if integrated:
                raise CalculusError("cannot differentiate an integrated expression")
            for j in range(len(factors)):
                new = factors[:j] + (factors[j].with_deriv(letter),) + factors[j + 1:]
                parts.append(Expression.from_term(coeff, new))
        out = Expression.sum(parts)
    return out


# ---------------------------------------------------------------------------
# Commutation rules
# ---------------------------------------------------------------------------

def _diff_tail(e: Expression, tail: Sequence[str]) -> Expression:
    return differentiate(e, tail) if tail else e


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
    return swapped + _diff_tail(corr if sign > 0 else -corr, tail)


# ordered letter pair (a, b) -> (letter of the inserted X-derivative, its
# multiplier, the curvature/torsion factor of the alpha term, that term's
# sign), read off the rules above; the reversed pair negates the correction
_SWAP_RULES = {
    ("1", "b"): ("0", I, Factor("R", ()), 1),
    ("0", "1"): ("b", Factor("A11", ()), Factor("A11", ("b",)), -1),
    ("0", "b"): ("1", Factor("Ab1b1", ()), Factor("Ab1b1", ("1",)), 1),
}

_canon_cache: dict[Factor, Expression] = {}
# (integrated, factors) of a non-canonical term -> the canonical items of its
# expansion with coefficient 1; a term's expansion is this scaled
_term_cache: dict[tuple, tuple] = {}


def _first_disorder(derivs: tuple[str, ...]) -> int | None:
    for p in range(len(derivs) - 1):
        if _LETTER_ORDER[derivs[p]] > _LETTER_ORDER[derivs[p + 1]]:
            return p
    return None


def canonicalize_factor(factor: Factor) -> Expression:
    """Expansion of a factor whose derivative string is sorted to 1 < b < 0."""
    cached = _canon_cache.get(factor)
    if cached is not None:
        return cached
    p = _first_disorder(factor.derivs)
    if p is None:
        out = Expression.from_factor(factor)
    else:
        parts = []
        for key, coeff in commute_swap(factor, p).items():
            _, factors = key
            prod = Expression.scalar(coeff)
            for f in factors:
                prod = prod * canonicalize_factor(f)
            parts.append(prod)
        out = Expression.sum(parts)
    _remember(_canon_cache, factor, out, MAX_CACHED_FACTORS)
    return out


def _expand_term(key) -> tuple:
    """Canonical (key, coefficient) pairs of a non-canonical unit term."""
    cached = _term_cache.get(key)
    if cached is None:
        integrated, factors = key
        prod = Expression.from_term(1, [f for f in factors if f.is_canonical()])
        for f in factors:
            if not f.is_canonical():
                prod = prod * canonicalize_factor(f)
        if integrated:
            prod = prod.integrate()
        cached = tuple(prod.items())
        _remember(_term_cache, key, cached, MAX_CACHED_FACTORS)
    return cached


def canonicalize(e: Expression) -> Expression:
    """Sort every derivative string with the commutation rules and collect.

    The result is unique for a given input: the sweep always rewrites the
    leftmost out-of-order pair of each factor, and corrections are recursively
    canonicalized.
    """
    acc: dict = {}
    for key, coeff in e.items():
        if all(f.is_canonical() for f in key[1]):
            expanded = ((key, ONE),)
        else:
            expanded = _expand_term(key)
        neg = -coeff
        for k, c in expanded:
            # zeros stay in place, so the collected order is unchanged
            acc[k] = sub_mul(acc.get(k, ZERO), neg, c)
    return Expression(acc)


# ---------------------------------------------------------------------------
# Integration by parts
# ---------------------------------------------------------------------------

def _ibp_term(coeff: ScalarExact, factors: tuple[Factor, ...],
              j: int) -> Expression:
    """Move the last derivative of factors[j] onto the others (negated)."""
    letter = factors[j].derivs[-1]
    shortened = Factor(factors[j].symbol, factors[j].derivs[:-1])
    rest = factors[:j] + factors[j + 1:]
    return Expression.sum(
        Expression.from_term(-coeff, rest[:k] + (rest[k].with_deriv(letter),)
                             + rest[k + 1:] + (shortened,), True)
        for k in range(len(rest)))


def integrate_by_parts(e: Expression, term_index: int,
                       factor_index: int) -> Expression:
    """Integrate the selected factor's last derivative by parts.

    `term_index` counts the terms of `e` in canonical print order and
    `factor_index` the factors of that term in canonical factor order.  Any
    letter may be moved, 0 included: INT[X_{,0}] = 0 holds, and the
    equality engine uses it too.
    """
    items = list(e.items())
    if not 0 <= term_index < len(items):
        raise CalculusError(f"term index {term_index} out of range")
    key, coeff = items[term_index]
    integrated, factors = key
    if not integrated:
        raise CalculusError("integration by parts requires an integrated term")
    if not 0 <= factor_index < len(factors):
        raise CalculusError(f"factor index {factor_index} out of range")
    factor = factors[factor_index]
    if not factor.derivs:
        raise CalculusError(f"factor {factor} has no derivatives")
    return (e - Expression.from_term(coeff, factors, True)
            + _ibp_term(coeff, factors, factor_index))


# ---------------------------------------------------------------------------
# Substitution rules
# ---------------------------------------------------------------------------

class Rule(NamedTuple):
    """Rewrite factors symbol_{prefix+tail} -> replacement differentiated by tail."""

    name: str
    symbol: str
    prefix: tuple[str, ...]
    replacement: Expression

    def matches(self, factor: Factor) -> bool:
        return (factor.symbol == self.symbol
                and factor.derivs[:len(self.prefix)] == self.prefix)


def apply_rule(e: Expression, rule: Rule) -> Expression:
    """Apply a substitution rule everywhere, to a fixpoint (at most 64 rounds)."""
    current = e
    for _ in range(64):
        parts = []
        changed = False
        for key, coeff in current.items():
            integrated, factors = key
            hit = next((j for j, f in enumerate(factors) if rule.matches(f)), None)
            if hit is None:
                parts.append(Expression.from_term(coeff, factors, integrated))
                continue
            changed = True
            tail = factors[hit].derivs[len(rule.prefix):]
            repl = differentiate(rule.replacement, tail) if tail else rule.replacement
            prod = Expression.scalar(coeff) * repl
            for k, f in enumerate(factors):
                if k != hit:
                    prod = prod * Expression.from_factor(f)
            if integrated:
                prod = prod.integrate()
            parts.append(prod)
        current = Expression.sum(parts)
        if not changed:
            return current
    raise CalculusError(f"substitution rule {rule.name} did not reach a fixpoint")


# ---------------------------------------------------------------------------
# Equality modulo integration by parts
# ---------------------------------------------------------------------------

Monomial = tuple[Factor, ...]

# (frozenset of sectors, modulo) -> eliminated system
_system_cache: dict[tuple, "_LinearSystem"] = {}

# The factors the commutation rules add; every other factor of a monomial
# keeps its symbol under differentiation and rewriting.
_CURVATURE = ("R", "A11", "Ab1b1")


def _monomial_weight(m: Monomial) -> int:
    return sum(f.weight() for f in m)


def _monomial_balance(m: Monomial) -> int:
    return sum(f.alpha() for f in m)


def _monomial_sort_key(m: Monomial):
    return (len(m), tuple(f.sort_key() for f in m))


@lru_cache(maxsize=MAX_CACHED_MONOMIALS)
def _sector(m: Monomial) -> tuple[int, int, tuple[str, ...]]:
    """(weight, balance, non-curvature symbols in factor order) of m.

    Differentiation and the commutation rules keep all three, so every
    divergence relation lies in one sector.
    """
    return (_monomial_weight(m), _monomial_balance(m),
            tuple(f.symbol for f in m if f.symbol not in _CURVATURE))


def _canonical_vector(e: Expression) -> dict[Monomial, ScalarExact]:
    vec: dict[Monomial, ScalarExact] = {}
    for key, coeff in e.items():
        _, factors = key
        vec[factors] = vec.get(factors, ZERO) + coeff
    return {m: c for m, c in vec.items() if not c.is_zero()}


def _relation_row(parent: Monomial, direction: str) -> dict[Monomial, ScalarExact]:
    """INT[(product of parent)_{,direction}] = 0, canonicalized."""
    expr = Expression.sum(
        Expression.from_term(1, parent[:k] + (parent[k].with_deriv(direction),)
                             + parent[k + 1:])
        for k in range(len(parent)))
    return _canonical_vector(canonicalize(expr))


class _LinearSystem:
    """Exact row reduction with a certificate over the original rows.

    `add_row` eliminates leading terms only, so the pivot rows form an
    echelon basis (distinct leading monomials, each with coefficient 1).
    `reduce_basis` then back-substitutes them into reduced echelon form: no
    pivot row holds another pivot's lead.  `reduce_vector` eliminates the
    vector's own pivot monomials in one pass, and what is left avoids all
    leads: the unique normal form modulo the span.
    """

    def __init__(self):
        # leading monomial -> (vector, combo over original row ids); the
        # entries are never mutated, so copies may share them
        self.pivots: dict[Monomial, tuple[dict, dict]] = {}
        # number of rows added, pivots or not
        self.rows = 0

    def merge(self, other: "_LinearSystem") -> None:
        """Take over the pivots of a system on disjoint monomials."""
        self.pivots.update(other.pivots)
        self.rows += other.rows

    @staticmethod
    def _leading(vec: dict) -> Monomial:
        return max(vec, key=_monomial_sort_key)

    def _eliminate(self, vec: dict, lead: Monomial) -> ScalarExact:
        """vec -= f * (pivot row of lead), f = vec[lead]; returns f.

        Pivot rows are stored with leading coefficient 1, so no division is
        needed.
        """
        factor = vec[lead]
        for m, c in self.pivots[lead][0].items():
            val = sub_mul(vec.get(m, ZERO), factor, c)
            if val is ZERO:
                vec.pop(m, None)
            else:
                vec[m] = val
        return factor

    def _combine(self, combo: dict, lead: Monomial, factor: ScalarExact) -> None:
        """combo -= factor * (combination of rows behind the pivot of lead)."""
        for rid, c in self.pivots[lead][1].items():
            val = sub_mul(combo.get(rid, ZERO), factor, c)
            if val is ZERO:
                combo.pop(rid, None)
            else:
                combo[rid] = val

    def add_row(self, row_id, vec: dict):
        # combo tracks vec as a combination of rows, so every elimination
        # vec -= f * pvec subtracts f * pcombo from it
        self.rows += 1
        vec, combo = dict(vec), {row_id: ONE}
        while vec:
            lead = self._leading(vec)
            if lead not in self.pivots:
                scale = vec[lead].inverse()
                self.pivots[lead] = ({m: c * scale for m, c in vec.items()},
                                     {r: c * scale for r, c in combo.items()})
                return
            self._combine(combo, lead, self._eliminate(vec, lead))

    def reduce_basis(self) -> None:
        """Back-substitute the pivot rows into reduced echelon form.

        A pivot row's other monomials are smaller than its lead, so taking
        the rows from the smallest lead up, the rows subtracted from each are
        already reduced and bring in no lead.  A changed row is a new pair
        of dicts: the old one may be shared with other systems.  Which rows
        are kept depends on the order rows were added in alone, so neither
        residuals nor certificates change.
        """
        pivots = self.pivots
        for lead in sorted(pivots, key=_monomial_sort_key):
            pvec, pcombo = pivots[lead]
            inner = [m for m in pvec if m != lead and m in pivots]
            if inner:
                vec, combo = dict(pvec), dict(pcombo)
                for m in inner:
                    self._combine(combo, m, self._eliminate(vec, m))
                pivots[lead] = (vec, combo)

    def reduce_vector(self, vec: dict) -> tuple[dict, list]:
        """(normal form of vec, its eliminations as (lead, factor) pairs).

        In a reduced basis no pivot row holds another lead, so one pass over
        vec's own pivot monomials eliminates every lead, each by its
        coefficient in vec.  `combination` turns the eliminations into the
        rows subtracted from vec.
        """
        vec = dict(vec)
        pivots = self.pivots
        return vec, [(lead, self._eliminate(vec, lead))
                     for lead in [m for m in vec if m in pivots]]

    def combination(self, steps: list) -> dict:
        """Row id -> coefficient of the rows `steps` subtracted in total.

        Pivot rows keep the invariant pvec = sum(pcombo * rows), so each
        elimination vec -= f * pvec subtracts f * pcombo.
        """
        combo: dict = {}
        for lead, factor in steps:
            self._combine(combo, lead, -factor)
        return combo


def _enumerate_strings(weight: int) -> list[tuple[str, ...]]:
    """Canonical derivative strings (1s, then bs, then 0s) of given weight."""
    out = []
    for zeros in range(weight // 2 + 1):
        rest = weight - 2 * zeros
        for ones in range(rest + 1):
            bars = rest - ones
            out.append(("1",) * ones + ("b",) * bars + ("0",) * zeros)
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
                choices = [[Factor(sym, s) for s in _enumerate_strings(w)]
                           for sym, w in zip(syms, split)]
                for combo in itertools.product(*choices):
                    mono = tuple(sorted(combo, key=Factor.sort_key))
                    if _monomial_balance(mono) == balance:
                        out.add(mono)
    return sorted(out, key=_monomial_sort_key)


def _remember(cache: dict, key, value, bound: int) -> None:
    """Insert into a bounded cache, evicting the oldest entries first."""
    while cache and len(cache) >= bound:
        del cache[next(iter(cache))]
    cache[key] = value


def _build_row(rid: tuple, modulo: Sequence[Expression]) -> dict:
    """The relation row of a row id, built afresh."""
    if rid[0] == "ibp":
        return _relation_row(rid[1], rid[2])
    if rid[0] == "modulo":
        prod = modulo[rid[1]]
        for f in rid[2]:
            prod = prod * Expression.from_factor(f)
        return _canonical_vector(canonicalize(prod))
    raise CalculusError(f"unknown relation row {rid!r}")  # pragma: no cover


def _build_relations(weight: int, balance: int,
                     symbols: tuple[str, ...]) -> list[tuple]:
    """Ids of every divergence relation of a sector, in a fixed order.

    INT[(P)_{,d}] = 0 lies in the sector exactly when the monomial P lies in
    the sector shifted back by the weight and balance of d.  Canonical P
    suffice: a non-canonical P is a combination of canonical ones of its
    sector.  The order (direction 0 first, then 1 and b, largest parent
    first) fixes the echelon basis; of the orders tried it gave the
    shortest certificates on the catalog and its mutants.
    """
    return [("ibp", parent, d) for d in ("0", "1", "b")
            for parent in reversed(_sector_monomials(
                weight - _LETTER_WEIGHT[d], balance - _LETTER_ALPHA[d],
                symbols))]


def _modulo_rows(weight: int, balance: int, modulo: Sequence[Expression]):
    """(row id, row) for INT[S * N] = 0, N of the class's remaining weight.

    The multipliers N are the E-linear monomials: one E11 or Eb1b1 factor
    times a monomial in R, A11, Ab1b1.
    """
    for gi, gen in enumerate(modulo):
        gen_weights = {Term(c, k[1], k[0]).weight() for k, c in gen.items()}
        gen_balances = {Term(c, k[1], k[0]).alpha() for k, c in gen.items()}
        if len(gen_weights) != 1 or len(gen_balances) != 1:
            raise CalculusError("modulo generators must be homogeneous")
        mw, mb = weight - gen_weights.pop(), balance - gen_balances.pop()
        for sym in ("E11", "Eb1b1"):
            for mult in _sector_monomials(mw, mb, (sym,)):
                rid = ("modulo", gi, mult)
                yield rid, _build_row(rid, modulo)


def _check_relation_cap(rows: int, sectors: Iterable[tuple]) -> None:
    if rows > MAX_RELATIONS:
        raise CalculusError(
            f"relation cap ({MAX_RELATIONS}) exceeded: {rows} relations in "
            f"the sectors {sorted(sectors)}")


def _eliminated_system(sectors: frozenset,
                       modulo: tuple[Expression, ...]) -> _LinearSystem:
    """The echelon system of the sectors' relations (plus `modulo` rows), cached.

    One sector adds the rows of `_build_relations` in order.  Several sectors
    merge the pivots of their own systems, since sectors share no monomial.
    With `modulo`, the rows INT[S * N] extend a copy of the plain system of
    every sector that the support or those rows touch.
    """
    key = (sectors, modulo)
    system = _system_cache.get(key)
    if system is None:
        system, rows = _LinearSystem(), ()
        if modulo:
            weight, balance, _ = next(iter(sectors))
            rows = list(_modulo_rows(weight, balance, modulo))
            system.merge(_eliminated_system(
                sectors.union(_sector(m) for _, row in rows for m in row), ()))
        elif len(sectors) > 1:
            for sector in sorted(sectors):
                system.merge(_eliminated_system(frozenset((sector,)), ()))
        else:
            rids = _build_relations(*next(iter(sectors)))
            _check_relation_cap(len(rids), sectors)
            rows = ((rid, _build_row(rid, ())) for rid in rids)
        for rid, row in rows:
            system.add_row(rid, row)
        system.reduce_basis()
        _remember(_system_cache, key, system, MAX_CACHED_SYSTEMS)
    _check_relation_cap(system.rows, sectors)
    return system


def _row_id_str(rid) -> str:
    if rid[0] == "ibp":
        parent, direction = rid[1], rid[2]
        prod = "*".join(str(f) for f in parent) or "1"
        return f"INT[({prod})_{{{direction}}}]"
    if rid[0] == "modulo":
        gen_index, mult = rid[1], rid[2]
        prod = "*".join(str(f) for f in mult) or "1"
        return f"INT[S{gen_index}*{prod}]"
    return str(rid)


def ibp_residual(a: Expression, b: Expression,
                 modulo: Sequence[Expression] = ()
                 ) -> tuple[Expression, RewriteTrace]:
    """Normal form of a - b modulo integration by parts (and `modulo` rules).

    `modulo` entries are non-integrated scalar expressions S that vanish
    identically on the configurations considered (for instance a divergence
    constraint); the reduction may use INT[S * N] = 0 for every E-linear
    multiplier N of matching weight and balance (one E11 or Eb1b1 factor
    times a monomial in R, A11, Ab1b1), not for other monomials.  Returns
    (residual, trace); the residual is zero exactly when a == b modulo the
    stated relations.  A zero found by elimination is replayed with
    `check_certificate`, and CalculusError is raised if the replay fails.
    """
    trace = RewriteTrace()
    d = canonicalize(a - b)
    if d.is_zero():
        return Expression.zero(), trace
    if not d.integrated:
        if d.has_mixed_integration():
            raise CalculusError("mixed integrated and plain terms")
        trace.residual = d
        return d, trace

    # (weight, balance) -> (sectors met, the class's part of the vector)
    groups: dict[tuple[int, int], tuple[set, dict[Monomial, ScalarExact]]] = {}
    for mono, coeff in _canonical_vector(d).items():
        sector = _sector(mono)
        sectors, gvec = groups.setdefault(sector[:2], (set(), {}))
        sectors.add(sector)
        gvec[mono] = coeff

    parts = []
    for _, (sectors, gvec) in sorted(groups.items(), key=lambda kv: kv[0]):
        system = _eliminated_system(frozenset(sectors), tuple(modulo))
        reduced, steps = system.reduce_vector(gvec)
        trace._pending.append((system, steps))
        parts.extend(Expression.from_term(coeff, mono, True)
                     for mono, coeff in reduced.items())

    residual = Expression.sum(parts)
    trace.residual = None if residual.is_zero() else residual
    if trace.residual is None and not check_certificate(a, b, trace, modulo):
        raise CalculusError("the equality certificate does not replay")
    return residual, trace


def equal_mod_ibp(a: Expression, b: Expression,
                  modulo: Sequence[Expression] = ()
                  ) -> tuple[bool, RewriteTrace]:
    """Decide a == b modulo integration by parts; trace carries the audit."""
    residual, trace = ibp_residual(a, b, modulo)
    return residual.is_zero(), trace


def check_certificate(a: Expression, b: Expression, trace: RewriteTrace,
                      modulo: Sequence[Expression] = ()) -> bool:
    """Replay an equality certificate: a - b == sum(c * relation) + residual.

    Every relation row is rebuilt from its id, never read from the system
    cache (canonical forms of factors and terms still come from
    `_canon_cache` and `_term_cache`), and the combination is checked by
    exact arithmetic, so a True result is an independent proof that the
    recorded elimination was sound.
    """
    total = _canonical_vector(canonicalize(a - b))
    for rid, coeff in trace.certificate:
        for mono, c in _build_row(rid, modulo).items():
            val = sub_mul(total.get(mono, ZERO), coeff, c)
            if val is ZERO:
                total.pop(mono, None)
            else:
                total[mono] = val
    residual_vec = ({} if trace.residual is None
                    else _canonical_vector(trace.residual))
    return total == residual_vec
