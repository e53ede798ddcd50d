"""Traced run of one phbochner CLI command.

    python3 perfbench/tracer.py OUT.json [CLI ARGS...]

Runs `phbochner.cli.main(CLI ARGS)` in this process, with the CLI's own
stdout, stderr and exit status, after wrapping the entry points of each
module listed in TARGETS.  A wrapper either counts calls or records a span
(name, start, end, parent) in memory.  Every target is resolved by name when
the run starts; one that no longer exists is reported as absent.  Functions
that other modules imported by name are patched there too.  After the
command every original is restored, the equality certificates of every
`ibp_residual` result seen are replayed with `check_certificate`, and the
aggregates go to OUT.json and the raw spans to OUT.json.spans.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

perf = time.perf_counter

SPAN, COUNT = "span", "count"

# (record name, module, attribute path, kind); hooks below add detail to some
TARGETS = [
    ("scalar.mul", "phbochner.scalar", "ScalarExact.__mul__", COUNT),
    ("scalar.mul", "phbochner.scalar", "ScalarExact.__rmul__", COUNT),
    ("scalar.add", "phbochner.scalar", "ScalarExact.__add__", COUNT),
    ("scalar.add", "phbochner.scalar", "ScalarExact.__radd__", COUNT),
    ("scalar.inverse", "phbochner.scalar", "ScalarExact.inverse", COUNT),
    ("expr.add", "phbochner.expr", "Expression.__add__", COUNT),
    ("expr.mul", "phbochner.expr", "Expression.__mul__", COUNT),
    ("parser.parse", "phbochner.parser", "parse", SPAN),
    ("operators.apply_template", "phbochner.operators", "apply_template", SPAN),
    ("calculus.query", "phbochner.calculus", "ibp_residual", SPAN),
    ("calculus.canonicalize", "phbochner.calculus", "canonicalize", SPAN),
    ("calculus.canonicalize_factor", "phbochner.calculus",
     "canonicalize_factor", COUNT),
    ("calculus.relations", "phbochner.calculus", "_build_relations", SPAN),
    ("calculus.relation_row", "phbochner.calculus", "_relation_row", SPAN),
    ("calculus.elim", "phbochner.calculus", "_LinearSystem.add_row", SPAN),
    ("calculus.reduce", "phbochner.calculus", "_LinearSystem.reduce_vector",
     SPAN),
    ("identities.verify", "phbochner.identities", "run_script", SPAN),
    ("identities.mutate", "phbochner.identities", "mutation_test", SPAN),
    ("identities.decision", "phbochner.identities", "_run_mutated", SPAN),
    ("rigidity.from_mapping", "phbochner.rigidity", "PointData.from_mapping",
     SPAN),
    ("rigidity.conditions", "phbochner.rigidity", "evaluate_conditions", SPAN),
    ("rigidity.forms", "phbochner.rigidity", "build_form_4", SPAN),
    ("rigidity.forms", "phbochner.rigidity", "build_form_5", SPAN),
    ("rigidity.forms", "phbochner.rigidity", "_stacked_forms", SPAN),
    ("rigidity.minors", "phbochner.rigidity", "HermitianForm.leading_minors",
     SPAN),
    ("rigidity.minors", "phbochner.rigidity", "_stacked_minors", SPAN),
    ("rigidity.scaling", "phbochner.rigidity", "scaling_report", SPAN),
    ("rigidity.equiv", "phbochner.rigidity", "equivalence_battery", SPAN),
    ("rigidity.sylvester", "phbochner.rigidity", "sylvester_battery", SPAN),
    ("cli.load_points", "phbochner.cli", "_load_points", SPAN),
    ("cli.emit", "phbochner.cli", "_emit", SPAN),
]
# names read for probes, not wrapped
AUX = [("phbochner.calculus", "_canon_cache"),
       ("phbochner.calculus", "check_certificate")]


class Recorder:
    """Spans [name, start, end, parent, paused, nested] and counters.

    `paused` is time spent in probes while the span was open; it is excluded
    from the span's duration.  `nested` marks a span opened inside another
    span of the same name, so per-name totals count each interval once.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def enter(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        nested = self.open_names[name] > 0
        self.open_names[name] += 1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf(), 0.0, parent, 0.0, nested])

    def leave(self) -> None:
        span = self.spans[self.stack.pop()]
        span[2] = perf()
        self.open_names[span[0]] -= 1

    def pause(self, seconds: float) -> None:
        for i in self.stack:
            self.spans[i][4] += seconds

    def high(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value


def spanned(rec: Recorder, fn, name):
    """Wrap fn in a span; name may be a function of the call's arguments."""
    name_of = name if callable(name) else (lambda args: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave()
    return wrapper


def counted(rec: Recorder, fn, name: str):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class Patcher:
    """Replaces attributes by wrappers and puts every original back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    @staticmethod
    def resolve(module: str, path: str):
        """(owner, attribute, raw value) or None when the name is gone."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        space = vars(owner)
        if attr not in space:
            return None
        return owner, attr, space[attr]

    def _set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch(self, module: str, path: str, make) -> bool:
        found = self.resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return False
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._set(owner, attr, new)
        if not isinstance(owner, type):
            # the same function imported by name into other modules
            for mod in list(sys.modules.values()):
                if mod is owner or not getattr(mod, "__name__", "").startswith(
                        "phbochner"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, new)
        return True

    def restore(self) -> bool:
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        return all(vars(owner)[attr] is raw for owner, attr, raw in self.saved)


def _bits(coeff) -> int:
    """Largest numerator/denominator bit length of a ScalarExact."""
    return max(max(part.numerator.bit_length(), part.denominator.bit_length())
               for part in (coeff.a, coeff.b, coeff.c, coeff.d))


class Tracer:
    def __init__(self):
        self.rec = Recorder()
        self.patcher = Patcher()
        self.queries: list[tuple] = []      # (a, b, modulo, trace) to replay
        self.rows_seen: set = set()
        self.aux: dict[str, object] = {}

    def install(self) -> None:
        hooks = {
            "calculus.query": self._query,
            "calculus.canonicalize_factor": self._canonicalize_factor,
            "calculus.relation_row": self._relation_row,
            "calculus.elim": self._add_row,
            "calculus.reduce": self._reduce_vector,
            "identities.verify": self._by_id,
            "identities.mutate": self._by_id,
            "rigidity.equiv": self._battery,
            "rigidity.sylvester": self._battery,
        }
        # import everything first, so that names imported from one module
        # into another are all in place when the scan for them runs
        for module in sorted({t[1] for t in TARGETS} | {m for m, _ in AUX}):
            try:
                importlib.import_module(module)
            except ImportError:
                pass
        for module, name in AUX:
            found = Patcher.resolve(module, name)
            if found is None:
                self.patcher.absent.append(f"{module}.{name}")
            else:
                self.aux[name] = found[2]
        for record, module, path, kind in TARGETS:
            hook = hooks.get(record) or functools.partial(
                spanned if kind == SPAN else counted, self.rec)
            self.patcher.patch(module, path,
                               functools.partial(hook, name=record))

    # -- hooks: each returns the wrapper for one target -----------------------

    def _by_id(self, fn, name):
        return spanned(self.rec, fn, lambda args: f"{name}.{args[0]}")

    def _query(self, fn, name):
        inner = spanned(self.rec, fn, name)

        @functools.wraps(fn)
        def wrapper(a, b, modulo=(), *rest, **kwargs):
            residual, trace = inner(a, b, modulo, *rest, **kwargs)
            self.queries.append((a, b, tuple(modulo), trace))
            return residual, trace
        return wrapper

    def _canonicalize_factor(self, fn, name):
        counts = self.rec.counts
        cache = self.aux.get("_canon_cache")

        @functools.wraps(fn)
        def wrapper(factor):
            counts[name] += 1
            if cache is not None and factor in cache:
                counts["calculus.canon_cache_hits"] += 1
            return fn(factor)
        return wrapper

    def _relation_row(self, fn, name):
        inner = spanned(self.rec, fn, name)

        @functools.wraps(fn)
        def wrapper(*args):
            self.rows_seen.add(args)
            return inner(*args)
        return wrapper

    def _add_row(self, fn, name):
        inner = spanned(self.rec, fn, name)
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(system, *args, **kwargs):
            pivots = getattr(system, "pivots", None)
            before = len(pivots) if pivots is not None else 0
            out = inner(system, *args, **kwargs)
            if pivots is not None and len(pivots) > before:
                start = perf()
                rec.counts["calculus.elim_pivots"] += 1
                vec, _ = next(reversed(pivots.values()))
                rec.high("scalar.max_coeff_bits",
                         max(map(_bits, vec.values()), default=0))
                rec.pause(perf() - start)
            return out
        return wrapper

    def _reduce_vector(self, fn, name):
        inner = spanned(self.rec, fn, name)
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(system, *args, **kwargs):
            rec.high("calculus.peak_pivots", len(getattr(system, "pivots", ())))
            return inner(system, *args, **kwargs)
        return wrapper

    def _battery(self, fn, name):
        inner = spanned(self.rec, fn, name)
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            rec.counts["rigidity.boundary_skips"] += out.get("boundary_skips", 0)
            return out
        return wrapper

    # -- after the command ------------------------------------------------------

    def replay(self) -> dict:
        """Replay every recorded certificate, with the originals restored."""
        check = self.aux.get("check_certificate")
        if check is None or not self.queries:
            return {}
        failures = rows = 0
        start = perf()
        for a, b, modulo, trace in self.queries:
            rows += len(trace.certificate)
            failures += not check(a, b, trace, modulo)
        return {"replays": len(self.queries), "failures": failures,
                "rows": rows, "seconds": perf() - start}

    def aggregate(self) -> dict:
        spans = self.rec.spans
        dur = [s[2] - s[1] - s[4] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        by_name: dict[str, list] = {}
        violations = 0
        for i, s in enumerate(spans):
            entry = by_name.setdefault(s[0], [0, 0.0, 0.0])
            entry[0] += 1
            if not s[5]:
                entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
            violations += child[i] > dur[i] + 1e-9
        cache = self.aux.get("_canon_cache")
        maxima = dict(self.rec.maxima)
        if cache is not None:
            maxima["calculus.canon_cache_size"] = len(cache)
        counts = dict(self.rec.counts)
        counts["calculus.relation_rows_distinct"] = len(self.rows_seen)
        return {
            "spans_by_name": by_name,
            "span_violations": violations,
            "decision_s": [dur[i] for i, s in enumerate(spans)
                           if s[0] == "identities.decision"],
            "counts": counts,
            "maxima": maxima,
        }

    def dump_spans(self, path: str) -> None:
        names = sorted({s[0] for s in self.rec.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "paused"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.rec.spans]}, fh)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from phbochner import cli
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        restored = tracer.patcher.restore()
    if isinstance(code, str):
        print(code, file=sys.stderr)
        code = 1
    code = code or 0
    result = tracer.aggregate()
    result.update(restored=restored,
                  absent=tracer.patcher.absent, replay=tracer.replay())
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    tracer.dump_spans(out_path + ".spans.json")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
