"""Covariant-derivative calculus: commutation rewriting and integration by parts.

The engine implements

* Leibniz differentiation in the three frame directions 1, 1-bar ("b"), 0;
* the three-dimensional Ricci commutation rules

      X_{,1b} - X_{,b1} = i X_{,0} + alpha X R                      (rule "comm-1b")
      X_{,01} - X_{,10} = X_{,b} A11 - alpha X A11_{b}              (rule "comm-01")
      X_{,0b} - X_{,b0} = X_{,1} Ab1b1 + alpha X Ab1b1_{1}          (rule "comm-0b")

  where alpha counts (#1 - #1bar) over the base indices plus the derivative
  letters already applied (letters left of the swap; 0 is alpha-neutral);
* canonicalization: every derivative string is sorted to 1 < b < 0 by
  bubble-sorting with the commutation rules, and like terms are collected;
* integration by parts under INT[...]: INT[(u v)_{,a}] = 0, including the
  T-direction a = 0 (the divergence theorem holds in all three directions;
  the 0-direction rule is required to close several catalog identities);
* a complete decision procedure for equality modulo integration by parts:
  the difference is canonicalized, and each (weight, balance) class of it is
  reduced, by exact Gaussian elimination, against the divergence relations
  generated from its monomials (the query's relation closure).  The residual
  is the normal form modulo the span of that closure: every pivot lead is
  eliminated, so it depends on the query alone, not on row order or on other
  queries.  The reduction yields a replayable certificate (which relation
  was used with which coefficient), computed when the trace is first read;
  a zero residual found by elimination is replayed with `check_certificate`
  from freshly built rows before it is returned, so every such equality
  decision doubles as an audit trail.

All operations are pure.  The module state is six bounded caches, five of
which evict their oldest entry first:

* canonical forms of factors (`_canon_cache`) and the unit expansions of
  non-canonical terms (`_term_cache`), each at most MAX_CACHED_FACTORS;
* relation rows by (parent, direction) (`_row_cache`, at most
  MAX_CACHED_ROWS);
* the relation closure of each class support (`_closure_cache`) and
  eliminated systems by class, relation set and `modulo` generators
  (`_system_cache`), each at most MAX_CACHED_SYSTEMS;

and the relation ids each monomial seeds (`_seeded_relations`, an LRU
cache of MAX_CACHED_EXPANSIONS monomials).
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .expr import DERIV_LETTERS, Expression, Factor, Term
from .scalar import I, ONE, ZERO, ScalarExact

__all__ = [
    "CalculusError", "RewriteTrace", "Rule",
    "differentiate", "commute_swap", "canonicalize", "integrate_by_parts",
    "apply_rule", "equal_mod_ibp", "ibp_residual",
]

_LETTER_ORDER = {"1": 0, "b": 1, "0": 2}

# Hard cap on the relation system built per equality query; the catalog
# needs well under a thousand relations.
MAX_RELATIONS = 10_000
# Bounds of the caches shared across queries: canonical forms of factors
# (and of non-canonical terms), relation rows, eliminated systems per
# relation set (and closures per class support), and the relation ids
# seeded by one monomial.  After `verify all --mutate` they hold 116
# factors, 79 terms, 152 rows, 39 closures, 13 systems and 216 monomials.
MAX_CACHED_FACTORS = 10_000
MAX_CACHED_ROWS = 10_000
MAX_CACHED_SYSTEMS = 64
MAX_CACHED_EXPANSIONS = 10_000


class CalculusError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

class RewriteTrace:
    """Ordered audit log: (rule id, before, after) triples.

    For canonicalization steps the entries are directly replayable: replacing
    `before` (a term) by `after` (its expansion) reproduces the final
    expression.  For equality-mod-IBP decisions the entries record the
    divergence relations used and their coefficients in the certified
    combination difference = sum(coeff * relation).

    An equality query stores each reduction's (system, eliminations) pair
    instead of its combination of rows; `entries` and `certificate` compute
    the pending combinations, in query order, the first time either is read.
    """

    def __init__(self):
        self._entries: list[dict] = []
        self.residual: Expression | None = None
        # structured relation combination (row id, coefficient) backing the
        # equality decision; see check_certificate
        self._certificate: list[tuple[tuple, ScalarExact]] = []
        self._pending: list[tuple["_LinearSystem", list]] = []

    @property
    def entries(self) -> list[dict]:
        self._settle()
        return self._entries

    @property
    def certificate(self) -> list[tuple[tuple, ScalarExact]]:
        self._settle()
        return self._certificate

    def _settle(self) -> None:
        pending, self._pending = self._pending, []
        for system, steps in pending:
            combo = system.combination(steps)
            for rid, coeff in sorted(combo.items(), key=lambda kv: str(kv[0])):
                self._certificate.append((rid, coeff))
                self._entries.append({"rule": "relation",
                                      "before": _row_id_str(rid), "after": "0",
                                      "coefficient": str(coeff)})

    def record(self, rule: str, before: str, after: str, **extra):
        self.entries.append({"rule": rule, "before": before, "after": after,
                             **extra})

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            extra = "".join(f" [{k}={v}]" for k, v in e.items()
                            if k not in ("rule", "before", "after"))
            lines.append(f"{e['rule']}: {e['before']}  ==>  {e['after']}{extra}")
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

    def fac(sym, *ds):
        return Expression.from_factor(Factor(sym, tuple(ds)))

    pair = (a, b)
    if pair == ("1", "b"):
        corr = (Expression.from_factor(Factor(factor.symbol, prefix + ("0",))) * I
                + base * fac("R") * alpha)
    elif pair == ("b", "1"):
        corr = -(Expression.from_factor(Factor(factor.symbol, prefix + ("0",))) * I
                 + base * fac("R") * alpha)
    elif pair == ("0", "1"):
        corr = (Expression.from_factor(Factor(factor.symbol, prefix + ("b",)))
                * fac("A11") - base * fac("A11", "b") * alpha)
    elif pair == ("1", "0"):
        corr = -(Expression.from_factor(Factor(factor.symbol, prefix + ("b",)))
                 * fac("A11") - base * fac("A11", "b") * alpha)
    elif pair == ("0", "b"):
        corr = (Expression.from_factor(Factor(factor.symbol, prefix + ("1",)))
                * fac("Ab1b1") + base * fac("Ab1b1", "1") * alpha)
    elif pair == ("b", "0"):
        corr = -(Expression.from_factor(Factor(factor.symbol, prefix + ("1",)))
                 * fac("Ab1b1") + base * fac("Ab1b1", "1") * alpha)
    else:  # pragma: no cover
        raise CalculusError(f"unhandled pair {pair}")
    return swapped + _diff_tail(corr, tail)


_SWAP_RULE_NAME = {
    frozenset(("1", "b")): "comm-1b",
    frozenset(("0", "1")): "comm-01",
    frozenset(("0", "b")): "comm-0b",
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


def canonicalize(e: Expression, trace: RewriteTrace | None = None) -> Expression:
    """Sort every derivative string with the commutation rules and collect.

    The result is unique for a given input: the sweep always rewrites the
    leftmost out-of-order pair of each factor, and corrections are recursively
    canonicalized.
    """
    acc: dict = {}
    for key, coeff in e.items():
        integrated, factors = key
        if all(f.is_canonical() for f in factors):
            expanded = ((key, coeff),)
        else:
            expanded = [(k, c * coeff) for k, c in _expand_term(key)]
            if trace is not None:
                before = Expression.from_term(coeff, factors, integrated)
                trace.record("canonicalize", str(before),
                             str(Expression(dict(expanded))))
        for k, c in expanded:
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
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


def integrate_by_parts(e: Expression, term_index: int, factor_index: int,
                       allow_t_direction: bool = False,
                       trace: RewriteTrace | None = None) -> Expression:
    """Integrate the selected factor's last derivative by parts.

    `term_index` counts the terms of `e` in canonical print order and
    `factor_index` the factors of that term in canonical factor order.  The
    T-direction (letter 0) is rejected unless `allow_t_direction` is set;
    INT[X_{,0}] = 0 holds and the equality engine uses it, so the flag only
    controls this manual entry point.
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
    letter = factor.derivs[-1]
    if letter == "0" and not allow_t_direction:
        raise CalculusError(
            "integration by parts in the 0 direction is disabled "
            "(pass allow_t_direction=True)")
    replaced = _ibp_term(coeff, factors, factor_index)
    before = Expression.from_term(coeff, factors, True)
    if trace is not None:
        trace.record("ibp0" if letter == "0" else "ibp",
                     str(before), str(replaced), factor=str(factor))
    return (e - before) + replaced


# ---------------------------------------------------------------------------
# Substitution rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """Rewrite factors symbol_{prefix+tail} -> replacement differentiated by tail."""

    name: str
    symbol: str
    prefix: tuple[str, ...]
    replacement: Expression

    def matches(self, factor: Factor) -> bool:
        return (factor.symbol == self.symbol
                and factor.derivs[:len(self.prefix)] == self.prefix)


def apply_rule(e: Expression, rule: Rule, max_rounds: int = 64,
               trace: RewriteTrace | None = None) -> Expression:
    """Apply a substitution rule everywhere, to a fixpoint."""
    current = e
    for _ in range(max_rounds):
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
            if trace is not None:
                trace.record(f"subst:{rule.name}",
                             str(Expression.from_term(coeff, factors, integrated)),
                             str(prod))
            parts.append(prod)
        current = Expression.sum(parts)
        if not changed:
            return current
    raise CalculusError(f"substitution rule {rule.name} did not reach a fixpoint")


# ---------------------------------------------------------------------------
# Equality modulo integration by parts
# ---------------------------------------------------------------------------

Monomial = tuple[Factor, ...]

# (parent, direction) -> canonical relation row; never mutated
_row_cache: dict[tuple[Monomial, str], dict[Monomial, ScalarExact]] = {}
# monomials of one (weight, balance) class -> (relation ids of its closure
# in generation order, the same ids as a set)
_closure_cache: dict[frozenset, tuple[tuple, frozenset]] = {}
# (weight, balance, relation id set, modulo) -> eliminated system
_system_cache: dict[tuple, "_LinearSystem"] = {}


def _monomial_weight(m: Monomial) -> int:
    return sum(f.weight() for f in m)


def _monomial_balance(m: Monomial) -> int:
    return sum(f.alpha() for f in m)


def _monomial_sort_key(m: Monomial):
    return (len(m), tuple(f.sort_key() for f in m))


def _canonical_vector(e: Expression) -> dict[Monomial, ScalarExact]:
    vec: dict[Monomial, ScalarExact] = {}
    for key, coeff in e.items():
        _, factors = key
        vec[factors] = vec.get(factors, ZERO) + coeff
    return {m: c for m, c in vec.items() if not c.is_zero()}


def _single_deletions(m: Monomial):
    """Yield (parent, letter) for every single derivative-letter deletion."""
    for j, f in enumerate(m):
        for p, letter in enumerate(f.derivs):
            parent = m[:j] + (Factor(f.symbol, f.derivs[:p] + f.derivs[p + 1:]),) \
                + m[j + 1:]
            yield tuple(sorted(parent, key=Factor.sort_key)), letter


def _relation_row(parent: Monomial, direction: str) -> dict[Monomial, ScalarExact]:
    """INT[(product of parent)_{,direction}] = 0, canonicalized."""
    expr = Expression.sum(
        Expression.from_term(1, parent[:k] + (parent[k].with_deriv(direction),)
                             + parent[k + 1:])
        for k in range(len(parent)))
    return _canonical_vector(canonicalize(expr))


class _LinearSystem:
    """Exact row reduction with a certificate over the original rows.

    The pivot rows form an echelon basis (distinct leading monomials) that is
    not reduced: `add_row` eliminates leading terms only.  `reduce_vector`
    eliminates every pivot lead from the vector, largest first, so what is
    left avoids all leads and is the unique normal form modulo the span.
    """

    def __init__(self):
        # leading monomial -> (vector, combo over original row ids); the
        # entries are never mutated, so copies may share them
        self.pivots: dict[Monomial, tuple[dict, dict]] = {}
        # pivot leads from largest to smallest, and each lead's position;
        # ranked on the first reduction after the last added pivot
        self._leads: list[Monomial] = []
        self._rank: dict[Monomial, int] | None = None

    def copy(self) -> "_LinearSystem":
        clone = _LinearSystem()
        clone.pivots = dict(self.pivots)
        return clone

    @staticmethod
    def _leading(vec: dict) -> Monomial:
        return max(vec, key=_monomial_sort_key)

    def _eliminate(self, vec: dict, lead: Monomial) -> ScalarExact:
        """vec -= f * (pivot row of lead), f = vec[lead]; returns f.

        Pivot rows are stored with leading coefficient 1, so no division is
        needed.
        """
        pvec = self.pivots[lead][0]
        factor = vec[lead]
        for m, c in pvec.items():
            val = vec.get(m, ZERO) - factor * c
            if val.is_zero():
                vec.pop(m, None)
            else:
                vec[m] = val
        return factor

    def _combine(self, combo: dict, lead: Monomial, factor: ScalarExact) -> None:
        """combo += factor * (combination of rows behind the pivot of lead)."""
        for rid, c in self.pivots[lead][1].items():
            val = combo.get(rid, ZERO) + factor * c
            if val.is_zero():
                combo.pop(rid, None)
            else:
                combo[rid] = val

    def add_row(self, row_id, vec: dict):
        # combo tracks vec as a combination of rows, so every elimination
        # vec -= f * pvec subtracts f * pcombo from it
        vec, combo = dict(vec), {row_id: ONE}
        while vec:
            lead = self._leading(vec)
            if lead not in self.pivots:
                scale = vec[lead].inverse()
                self.pivots[lead] = ({m: c * scale for m, c in vec.items()},
                                     {r: c * scale for r, c in combo.items()})
                self._rank = None
                return
            self._combine(combo, lead, -self._eliminate(vec, lead))

    def reduce_vector(self, vec: dict) -> tuple[dict, list]:
        """(normal form of vec, its eliminations as (lead, factor) pairs).

        Leads are taken from a heap of ranks, largest monomial first.  A
        pivot row's other monomials are smaller than its lead, so a lead
        once eliminated never comes back.  `combination` turns the
        eliminations into the rows subtracted from vec.
        """
        if self._rank is None:
            self._leads = sorted(self.pivots, key=_monomial_sort_key,
                                 reverse=True)
            self._rank = {m: k for k, m in enumerate(self._leads)}
        rank, leads = self._rank, self._leads
        vec, steps = dict(vec), []
        heap = [rank[m] for m in vec if m in rank]
        heapq.heapify(heap)
        queued = set(heap)
        while heap:
            lead = leads[heapq.heappop(heap)]
            if lead not in vec:
                continue
            steps.append((lead, self._eliminate(vec, lead)))
            for m in self.pivots[lead][0]:
                k = rank.get(m)
                if k is not None and k not in queued:
                    queued.add(k)
                    heapq.heappush(heap, k)
        return vec, steps

    def combination(self, steps: list) -> dict:
        """Row id -> coefficient of the rows `steps` subtracted in total.

        Pivot rows keep the invariant pvec = sum(pcombo * rows), so each
        elimination vec -= f * pvec subtracts f * pcombo.
        """
        combo: dict = {}
        for lead, factor in steps:
            self._combine(combo, lead, factor)
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


def _enumerate_ra_monomials(weight: int) -> list[tuple[Factor, ...]]:
    """Monomials in R, A11, Ab1b1 (with derivatives) of the given weight."""
    if weight == 0:
        return [()]
    out: list[tuple[Factor, ...]] = []
    base = ("R", "A11", "Ab1b1")
    for nfac in range(1, weight // 2 + 1):
        for syms in itertools.combinations_with_replacement(base, nfac):
            budget = weight - 2 * nfac
            if budget < 0:
                continue
            for split in itertools.product(range(budget + 1), repeat=nfac):
                if sum(split) != budget:
                    continue
                choices = [
                    [Factor(sym, s) for s in _enumerate_strings(w)]
                    for sym, w in zip(syms, split)
                ]
                for combo in itertools.product(*choices):
                    out.append(tuple(sorted(combo, key=Factor.sort_key)))
    return sorted(set(out), key=_monomial_sort_key)


def _enumerate_e_linear(weight: int, balance: int) -> list[Monomial]:
    """Degree-1 monomials in E11/Eb1b1 times an R/A monomial."""
    out = []
    for sym in ("E11", "Eb1b1"):
        for ra_w in range(weight + 1):
            e_w = weight - ra_w
            for s in _enumerate_strings(e_w):
                e_fac = Factor(sym, s)
                for ra in _enumerate_ra_monomials(ra_w):
                    mono = tuple(sorted((e_fac,) + ra, key=Factor.sort_key))
                    if _monomial_balance(mono) == balance:
                        out.append(mono)
    return sorted(set(out), key=_monomial_sort_key)


def _remember(cache: dict, key, value, bound: int) -> None:
    """Insert into a bounded cache, evicting the oldest entries first."""
    while cache and len(cache) >= bound:
        del cache[next(iter(cache))]
    cache[key] = value


def _cached_row(parent: Monomial, direction: str) -> dict:
    row = _row_cache.get((parent, direction))
    if row is None:
        row = _relation_row(parent, direction)
        _remember(_row_cache, (parent, direction), row, MAX_CACHED_ROWS)
    return row


@lru_cache(maxsize=MAX_CACHED_EXPANSIONS)
def _seeded_relations(mono: Monomial) -> tuple[tuple, ...]:
    """Ids of the relations a monomial seeds, in search order, once each."""
    rids: dict[tuple, None] = {}
    for parent, letter in _single_deletions(mono):
        if letter == "0":
            rids[("ibp", parent, "0")] = None
        else:
            rids[("ibp", parent, "1")] = None
            rids[("ibp", parent, "b")] = None
            # grandparents reached by removing two single-weight letters
            # feed the 0-direction relations of the same weight class
            for gparent, letter2 in _single_deletions(parent):
                if letter2 != "0":
                    rids[("ibp", gparent, "0")] = None
    return tuple(rids)


def _build_relations(seed: Iterable[Monomial]) -> dict[tuple, dict]:
    """Saturate the divergence relations touching the seed's weight class.

    Returns the relation rows by row id, in the order they were generated.
    The frontier starts in monomial order, so that order (and with it the
    echelon basis and the certificate) does not follow string hashing.
    """
    relations: dict[tuple, dict] = {}
    frontier = sorted(set(seed), key=_monomial_sort_key)
    seen_mono: set[Monomial] = set(frontier)
    while frontier:
        mono = frontier.pop()
        for rid in _seeded_relations(mono):
            if rid in relations:
                continue
            if len(relations) >= MAX_RELATIONS:
                offending = "*".join(str(f) for f in mono)
                raise CalculusError(
                    f"relation cap ({MAX_RELATIONS}) exceeded while "
                    f"processing the class of INT[{offending}]")
            row = relations[rid] = _cached_row(rid[1], rid[2])
            for m in row:
                if m not in seen_mono:
                    seen_mono.add(m)
                    frontier.append(m)
    return relations


def _closure(support: frozenset) -> tuple[tuple, frozenset]:
    """Relation ids of a class's closure, in generation order and as a set.

    `_build_relations` is a function of the support alone, so its ids are
    cached by support.  A cached closure over MAX_RELATIONS is built again,
    which raises.
    """
    hit = _closure_cache.get(support)
    if hit is None or len(hit[0]) > MAX_RELATIONS:
        rids = tuple(_build_relations(support))
        hit = rids, frozenset(rids)
        _remember(_closure_cache, support, hit, MAX_CACHED_SYSTEMS)
    return hit


def _modulo_rows(weight: int, balance: int, modulo: Sequence[Expression]):
    """(row id, row) for INT[S * N] = 0, N of the class's remaining weight."""
    for gi, gen in enumerate(modulo):
        gen_weights = {Term(c, k[1], k[0]).weight() for k, c in gen.items()}
        gen_balances = {Term(c, k[1], k[0]).alpha() for k, c in gen.items()}
        if len(gen_weights) != 1 or len(gen_balances) != 1:
            raise CalculusError("modulo generators must be homogeneous")
        gw, gb = gen_weights.pop(), gen_balances.pop()
        mw, mb = weight - gw, balance - gb
        if mw < 0:
            continue
        for mult in _enumerate_e_linear(mw, mb):
            prod = gen
            for f in mult:
                prod = prod * Expression.from_factor(f)
            yield ("modulo", gi, mult), _canonical_vector(canonicalize(prod))


def _eliminated_system(weight: int, balance: int,
                       closure: tuple[tuple, frozenset],
                       modulo: tuple[Expression, ...]) -> _LinearSystem:
    """The echelon system of a relation closure (plus `modulo` rows), cached.

    Rows are read through the row cache and added in generation order on a
    miss; a system with `modulo` rows extends a copy of the plain system of
    the same relations.
    """
    rids, relation_set = closure
    key = (weight, balance, relation_set, modulo)
    system = _system_cache.get(key)
    if system is None:
        if modulo:
            system = _eliminated_system(weight, balance, closure, ()).copy()
            rows = _modulo_rows(weight, balance, modulo)
        else:
            system = _LinearSystem()
            rows = ((rid, _cached_row(rid[1], rid[2])) for rid in rids)
        for rid, row in rows:
            system.add_row(rid, row)
        _remember(_system_cache, key, system, MAX_CACHED_SYSTEMS)
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
                 modulo: Sequence[Expression] = (),
                 trace: RewriteTrace | None = None
                 ) -> tuple[Expression, RewriteTrace]:
    """Normal form of a - b modulo integration by parts (and `modulo` rules).

    `modulo` entries are non-integrated scalar expressions S that vanish
    identically on the configurations considered (for instance a divergence
    constraint); the reduction may use INT[S * N] = 0 for any monomial
    multiplier N of matching weight.  Returns (residual, trace); the residual
    is zero exactly when a == b modulo the stated relations.  A zero found by
    elimination is replayed with `check_certificate`, and CalculusError is
    raised if the replay fails.
    """
    if trace is None:
        trace = RewriteTrace()
    d = canonicalize(a - b)
    if d.is_zero():
        return Expression.zero(), trace
    if not d.integrated:
        if d.has_mixed_integration():
            raise CalculusError("mixed integrated and plain terms")
        trace.residual = d
        return d, trace

    vec = _canonical_vector(d)
    groups: dict[tuple[int, int], dict[Monomial, ScalarExact]] = {}
    for mono, coeff in vec.items():
        key = (_monomial_weight(mono), _monomial_balance(mono))
        groups.setdefault(key, {})[mono] = coeff

    parts = []
    for (weight, balance), gvec in sorted(groups.items()):
        system = _eliminated_system(weight, balance, _closure(frozenset(gvec)),
                                    tuple(modulo))
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

    Every relation row is rebuilt from its id, never read from the row or
    system caches (canonical forms of factors and terms still come from
    `_canon_cache` and `_term_cache`),
    and the combination is checked by exact arithmetic, so a True result is
    an independent proof that the recorded elimination was sound.
    """
    total = _canonical_vector(canonicalize(a - b))
    for rid, coeff in trace.certificate:
        if rid[0] == "ibp":
            row = _relation_row(rid[1], rid[2])
        elif rid[0] == "modulo":
            prod = modulo[rid[1]]
            for f in rid[2]:
                prod = prod * Expression.from_factor(f)
            row = _canonical_vector(canonicalize(prod))
        else:  # pragma: no cover
            raise CalculusError(f"unknown certificate row {rid!r}")
        for mono, c in row.items():
            val = total.get(mono, ZERO) - coeff * c
            if val.is_zero():
                total.pop(mono, None)
            else:
                total[mono] = val
    residual_vec = ({} if trace.residual is None
                    else _canonical_vector(trace.residual))
    return total == residual_vec
