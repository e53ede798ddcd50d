"""Benchmark for phbochner: drives the CLI from outside on seeded workloads.

    python3 perfbench/run.py --workload {catalog,mutation,points} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  Every CLI command runs as a fresh
`python -m phbochner.cli --format json ...` process, one at a time (a closed
loop with one client), with BLAS/OpenMP pools pinned to one thread.  A run
repeats whole passes of its workload until S seconds have passed (at least
one pass), checks every answer against a known answer, and prints the
metrics; the last line of stdout is one JSON object.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
one untraced pass and then traced passes, in which perfbench/tracer.py wraps
each module's entry points inside the child, and reports per-layer metrics
plus the tracing overhead.  See perfbench/README.md for why the workloads are
what they are.

The exit status is 0 when every answer matched (failures explained by the
known scaletest defect excepted), 1 when one did not, 2 on a usage error or
when the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

perf = time.perf_counter

# `ops` calls per run, half before the passes and half after them, so that
# setup_s, their median, spans the run as wall_s does
SETUP_CALLS = 8
N_POINTS = 10_000
EQUIV_SAMPLES = 100_000
SYLVESTER_SAMPLES = 10_000
RUN_LIMIT_S = 170         # a run kills whatever is still running after this

CATALOG_IDS = ["2.3", "2.7", "2.8", "2.ibp", "2.11", "3.2", "3.3", "3.4",
               "3.5", "3.6", "3.7", "3.8"]
# number of terms in each mutable catalog target, i.e. mutants per identity
MUTANTS = {"2.3": 9, "2.7": 10, "2.8": 6, "2.ibp": 1, "2.11": 4, "3.2": 8,
           "3.3": 4, "3.4": 14, "3.5": 23, "3.6": 4, "3.8": 22}

# ---------------------------------------------------------------------------
# Known answers for each command's JSON report
# ---------------------------------------------------------------------------

Check = Callable[[dict], "tuple[int, int, list[str]]"]


def check_catalog(report: dict) -> tuple[int, int, list[str]]:
    """All 12 identities PASS, in catalog order."""
    status = {r["id"]: r["status"] for r in report["results"]}
    problems = [f"verify {i}: {status.get(i, 'missing')}"
                for i in CATALOG_IDS if status.get(i) != "PASS"]
    if [r["id"] for r in report["results"]] != CATALOG_IDS:
        problems.append("verify: ids differ from the catalog")
    return len(CATALOG_IDS), len(problems), problems


def check_mutation(report: dict) -> tuple[int, int, list[str]]:
    """All 105 mutants killed; 3.7 is not mutable."""
    results = {r["id"]: r for r in report["results"]}
    failed, problems = 0, []
    for ident, n in MUTANTS.items():
        r = results.get(ident, {})
        killed = r.get("killed", 0) if r.get("mutants") == n else 0
        failed += n - killed
        if r.get("status") != "PASS" or killed != n or r.get("survivors"):
            problems.append(f"mutate {ident}: {killed}/{n} killed")
    if results.get("3.7", {}).get("status") != "SKIP":
        problems.append("mutate 3.7: expected SKIP")
    return sum(MUTANTS.values()), failed, problems


def check_equiv(report: dict) -> tuple[int, int, list[str]]:
    bad = (report["samples"] != EQUIV_SAMPLES or report["mismatches_form4"]
           or report["mismatches_form5"] or not report["ok"])
    return 1, int(bad), ["equiv: mismatches"] if bad else []


def check_sylvester(report: dict) -> tuple[int, int, list[str]]:
    bad = (report["samples"] != SYLVESTER_SAMPLES
           or report["disagreements"] or not report["ok"])
    return 1, int(bad), ["sylvester: disagreements"] if bad else []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    label: str
    args: list[str]
    ops: int                  # operations attempted by one run of it
    check: Check
    group: str = ""           # "pointfile" or "battery" on `points`


def catalog(seed: int, work: Path, notes: dict) -> list[Command]:
    return [Command("verify", ["--seed", str(seed), "verify", "all"],
                    len(CATALOG_IDS), check_catalog)]


def mutation(seed: int, work: Path, notes: dict) -> list[Command]:
    return [Command("mutate", ["--seed", str(seed), "verify", "all",
                               "--mutate"],
                    sum(MUTANTS.values()), check_mutation)]


def point_file(seed: int, work: Path, notes: dict) -> list[Command]:
    n = N_POINTS
    records, planted = points.generate(seed, n)
    full, tf = work / "points.json", work / "torsion_free.json"
    points.write(full, records)
    points.write(tf, [r for r, p in zip(records, planted) if p.torsion_free])
    n_tf = sum(p.torsion_free for p in planted)

    def check_full(report):
        attempted, failed, problems, skips = points.check_points(
            report, records, planted)
        notes["thm_b_band_skips"] = skips
        return attempted, failed, problems

    def check_scale(report):
        attempted, failed, problems = points.check_scaletest(report, planted)
        notes["scaletest_known_defect"] = failed - len(problems)
        return attempted, failed, problems

    full_arg, tf_arg = str(full.relative_to(ROOT)), str(tf.relative_to(ROOT))
    return [
        Command("check", ["check", full_arg, "--cond", "thm-a",
                          "--cond", "thm-b", "--cond", "bianchi"],
                n, check_full, "pointfile"),
        Command("corollaryC", ["check", tf_arg, "--cond", "corollaryC"],
                n_tf, lambda r: points.check_corollary(r, planted),
                "pointfile"),
        Command("scaletest", ["scaletest", full_arg], n, check_scale,
                "pointfile"),
        Command("equiv", ["--samples", str(EQUIV_SAMPLES), "--seed",
                          str(seed), "equiv"], 1, check_equiv, "battery"),
        Command("sylvester", ["--samples", str(SYLVESTER_SAMPLES), "--seed",
                              str(seed), "sylvester"], 1, check_sylvester,
                "battery"),
    ]


WORKLOADS = {"catalog": catalog, "mutation": mutation, "points": point_file}


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    stdout: bytes
    attempted: int
    failed: int
    problems: list[str]
    trace: dict | None = None


def child_env() -> dict:
    # The relation system is generated in set-iteration order, so the amount
    # of exact arithmetic depends on the hash seed: hold it fixed.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PHB_SEED", "PYTHONPATH")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    return env


def spawn(argv: list[str], env: dict, err_path: Path, deadline: float):
    """Run argv to completion: (wall s, max RSS MB, exit code, stdout, stderr).

    The child's stdout is drained as it comes; past the deadline it is
    killed and the exit code is None.
    """
    with open(err_path, "w+b") as err:
        start = perf()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        chunks, killed = [], False
        fd = proc.stdout.fileno()
        try:
            while True:
                left = deadline - perf()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                if select.select([fd], [], [], left)[0]:
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = perf() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    code = None if killed else proc.returncode
    return wall, usage.ru_maxrss / 1024.0, code, b"".join(chunks), stderr


def judge(cmd: Command, code, stdout: bytes, stderr: str
          ) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, and failures no known defect explains.

    Exit 1 with a well-formed report is a legitimate "a check failed"; a
    timeout, another exit code, a traceback or non-JSON output fails every
    operation of the command.
    """
    crash = None
    if code is None:
        crash = "timed out"
    elif code not in (0, 1) or "Traceback" in stderr:
        crash = f"exit {code}: {stderr.strip().splitlines()[-1:]}"
    else:
        try:
            report = json.loads(stdout)
            attempted, failed, problems = cmd.check(report)
            ok = report.get("ok", True)
            if code != (0 if ok else 1):
                problems.append(f"{cmd.label}: exit {code} with ok={ok}")
            return attempted, failed, problems
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            crash = f"malformed report: {exc!r}"
    return cmd.ops, cmd.ops, [f"{cmd.label}: {crash}"]


def run_command(cmd: Command, env: dict, work: Path, deadline: float,
                trace_out: Path | None = None) -> Outcome:
    head = [sys.executable]
    if trace_out is None:
        head += ["-m", "phbochner.cli"]
    else:
        head += [str(HERE / "tracer.py"), str(trace_out)]
    wall, rss, code, out, err = spawn(head + ["--format", "json"] + cmd.args,
                                      env, work / "stderr.txt", deadline)
    attempted, failed, problems = judge(cmd, code, out, err)
    trace = None
    if trace_out is not None and code is not None:
        try:
            trace = json.loads(trace_out.read_text())
        except (OSError, ValueError):
            problems.append(f"{cmd.label}: traced run wrote no trace")
    return Outcome(wall, rss, out, attempted, failed, problems, trace)


@dataclass
class Digests:
    """Digests of each command's stdout; repeats must be byte-identical."""

    key: str
    by_label: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def record(self, label: str, stdout: bytes) -> None:
        digest = hashlib.sha256(stdout).hexdigest()
        if self.by_label.setdefault(label, digest) != digest:
            self.problems.append(f"{label}: stdout differs between repeats")

    def compare_with_store(self) -> None:
        """Check against earlier runs of the same inputs and source tree."""
        path = WORK / "digests.json"
        try:
            store = json.loads(path.read_text())
        except (OSError, ValueError):
            store = {}
        for label, digest in self.by_label.items():
            key = f"{self.key}/{label}"
            if store.setdefault(key, digest) != digest:
                self.problems.append(f"{label}: stdout differs from an earlier "
                                     "run with the same seed")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(path)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phbochner").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_pass(commands: list[Command], env: dict, work: Path, deadline: float,
             digests: Digests, trace_dir: Path | None = None) -> list[Outcome]:
    outcomes = []
    for k, cmd in enumerate(commands):
        trace_out = None if trace_dir is None else trace_dir / f"{k}.json"
        oc = run_command(cmd, env, work, deadline, trace_out)
        digests.record(cmd.label, oc.stdout)
        outcomes.append(oc)
    return outcomes


def measure_setup(calls: int, env: dict, work: Path, deadline: float,
                  warm_up: bool) -> tuple[list, list]:
    """Wall times of do-nothing `ops` calls: interpreter, imports, corpus."""
    ops = Command("ops", ["ops"], 0,
                  lambda r: (0, 0, [] if r.get("operators") else ["ops: empty"]))
    times, problems = [], []
    for k in range(calls + warm_up):
        oc = run_command(ops, env, work, deadline)
        problems += oc.problems
        if k or not warm_up:       # a warm-up call only fills the file cache
            times.append(oc.wall_s)
    return times, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50/p75/p90/p95/p99 with at least 10 samples above."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = (f"{tail[0]} {tail[1]:.4f}" if tail
                 else "no tail percentile (fewer than 20 samples)")
    return (f"{name}: median {statistics.median(values):.4f} {unit}, "
            f"{tail_text}, n={len(values)}")


def sum_traces(traces: list[dict]) -> dict:
    """Merge the per-command trace aggregates of one pass."""
    out = {"spans_by_name": {}, "counts": {}, "maxima": {}, "decision_s": [],
           "replay": {}, "absent": set(), "span_violations": 0,
           "restored": True}
    for t in traces:
        for name, (calls, total, self_s) in t["spans_by_name"].items():
            e = out["spans_by_name"].setdefault(name, [0, 0.0, 0.0])
            e[0] += calls
            e[1] += total
            e[2] += self_s
        for key, value in t["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        for key, value in t["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
        for key, value in t["replay"].items():
            out["replay"][key] = out["replay"].get(key, 0) + value
        out["decision_s"] += t["decision_s"]
        out["absent"] |= set(t["absent"])
        out["span_violations"] += t["span_violations"]
        out["restored"] &= t["restored"]
    return out


def layer_metrics(t: dict, output_bytes: int, overhead_s: float) -> dict:
    """Per-layer (value, unit) of one traced pass; absent targets read 0."""
    spans, counts, maxima, replay = (t["spans_by_name"], t["counts"],
                                     t["maxima"], t["replay"])

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    decisions_ms = [1000.0 * d for d in t["decision_s"]]
    if len(decisions_ms) > 1:
        deciles = statistics.quantiles(decisions_ms, n=10)
    else:
        deciles = (decisions_ms or [0.0]) * 9
    rows, distinct = calls("calculus.relation_row"), counts.get(
        "calculus.relation_rows_distinct", 0)
    elim_rows, pivots = calls("calculus.elim"), counts.get(
        "calculus.elim_pivots", 0)
    S, N, R = "s", "count", "ratio"
    return {
        "scalar.mul_calls": (counts.get("scalar.mul", 0), N),
        "scalar.add_calls": (counts.get("scalar.add", 0), N),
        "scalar.inverse_calls": (counts.get("scalar.inverse", 0), N),
        "scalar.max_coeff_bits": (maxima.get("scalar.max_coeff_bits", 0),
                                  "bits"),
        "expr.add_calls": (counts.get("expr.add", 0), N),
        "expr.mul_calls": (counts.get("expr.mul", 0), N),
        "parser.parse_calls": (calls("parser.parse"), N),
        "parser.parse_s": (total("parser.parse"), S),
        "operators.apply_template_s": (total("operators.apply_template"), S),
        "calculus.queries": (calls("calculus.query"), N),
        "calculus.query_s": (total("calculus.query"), S),
        "calculus.canonicalize_calls": (calls("calculus.canonicalize"), N),
        "calculus.canonicalize_self_s": (self_s("calculus.canonicalize"), S),
        "calculus.canon_cache_size": (
            maxima.get("calculus.canon_cache_size", 0), N),
        "calculus.canon_cache_hit_ratio": (ratio(
            counts.get("calculus.canon_cache_hits", 0),
            counts.get("calculus.canonicalize_factor", 0)), R),
        "calculus.relation_rows": (rows, N),
        "calculus.relation_rows_distinct": (distinct, N),
        "calculus.relation_reuse_ratio": (ratio(distinct, rows), R),
        "calculus.relation_row_s": (total("calculus.relation_row"), S),
        "calculus.relations_self_s": (self_s("calculus.relations"), S),
        "calculus.elim_rows": (elim_rows, N),
        "calculus.elim_pivots": (pivots, N),
        "calculus.elim_useful_ratio": (ratio(pivots, elim_rows), R),
        "calculus.elim_s": (total("calculus.elim"), S),
        "calculus.reduce_s": (total("calculus.reduce"), S),
        "calculus.peak_pivots": (maxima.get("calculus.peak_pivots", 0), N),
        "calculus.certificate_replays": (replay.get("replays", 0), N),
        "calculus.certificate_failures": (replay.get("failures", 0), N),
        "calculus.certificate_rows": (replay.get("rows", 0), N),
        "calculus.certificate_replay_s": (replay.get("seconds", 0.0), S),
        **{f"identities.verify_s.{i}": (total(f"identities.verify.{i}"), S)
           for i in CATALOG_IDS},
        **{f"identities.mutate_s.{i}": (total(f"identities.mutate.{i}"), S)
           for i in MUTANTS},
        "identities.decision_p50_ms": (deciles[4], "ms"),
        "identities.decision_p90_ms": (deciles[8], "ms"),
        "rigidity.points": (calls("rigidity.from_mapping"), N),
        "rigidity.from_mapping_s": (total("rigidity.from_mapping"), S),
        "rigidity.conditions_s": (total("rigidity.conditions"), S),
        "rigidity.forms_s": (total("rigidity.forms"), S),
        "rigidity.minors_s": (total("rigidity.minors"), S),
        "rigidity.scaling_s": (total("rigidity.scaling"), S),
        "rigidity.equiv_s": (total("rigidity.equiv"), S),
        "rigidity.sylvester_s": (total("rigidity.sylvester"), S),
        "rigidity.boundary_skips": (counts.get("rigidity.boundary_skips", 0),
                                    N),
        "cli.load_points_s": (total("cli.load_points"), S),
        "cli.emit_s": (total("cli.emit"), S),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, S),
        "trace.absent_targets": (len(t["absent"]), N),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool
        ) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, report lines)."""
    started = perf()
    deadline = started + RUN_LIMIT_S
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    notes: dict = {}
    commands = WORKLOADS[workload](seed, work, notes)
    digests = Digests(f"{workload}/{seed}/{N_POINTS}/{source_hash()}")
    lines, problems = [], []

    def repeat(trace_dirs: bool) -> list[list[Outcome]]:
        """Whole passes until `seconds` have passed, at least one."""
        out, begin = [], perf()
        while not out or perf() - begin < seconds:
            trace_dir = None
            if trace_dirs:
                trace_dir = work / f"trace{len(out)}"
                trace_dir.mkdir()
            out.append(run_pass(commands, env, work, deadline, digests,
                                trace_dir))
        return out

    setup: list[float] = []
    traced: list[list[Outcome]] = []
    if trace:
        passes = [run_pass(commands, env, work, deadline, digests)]
        traced = repeat(trace_dirs=True)
    else:
        setup, problems = measure_setup(SETUP_CALLS // 2, env, work, deadline,
                                        warm_up=True)
        passes = repeat(trace_dirs=False)
        after, more = measure_setup(SETUP_CALLS - SETUP_CALLS // 2, env, work,
                                    deadline, warm_up=False)
        setup += after
        problems += more
    for path in work.glob("*.json"):
        path.unlink()              # point files; the traces stay
    digests.compare_with_store()

    # Every pass repeats the same operations on the same inputs, and its
    # stdout must be byte-identical, so the operations are counted once: as
    # the first pass attempted them, with the most failures any pass had.
    # The counts then depend on the seed alone, not on how many passes fit.
    attempted = sum(oc.attempted for oc in passes[0])
    failed = max(sum(oc.failed for oc in p) for p in passes + traced)
    for oc in (oc for p in passes + traced for oc in p):
        problems += oc.problems
    problems += digests.problems

    repeats = len(passes) + len(traced)
    lines += [f"digest {label} {digest} (identical in {repeats} passes)"
              for label, digest in digests.by_label.items()]
    lines.append(f"operations: attempted {attempted}, failed {failed}, "
                 f"failed_share {failed / attempted:.6f}")
    for key, value in sorted(notes.items()):
        lines.append(f"{key} (last pass): {value}")

    walls = [sum(oc.wall_s for oc in p) for p in passes]
    if trace:
        metrics = traced_metrics(traced, walls[0], problems, lines)
    else:
        rss = [max(oc.rss_mb for oc in p) for p in passes]
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
        lines.append(describe("setup_s", "s", setup))
        lines.append(describe("wall_s", "s", walls))
        lines.append(describe("peak_rss_mb", "MB", rss))
        for group in ("pointfile", "battery"):
            per_pass = [sum(oc.wall_s for oc, c in zip(p, commands)
                            if c.group == group) for p in passes]
            if any(per_pass):
                lines.append(describe(f"{group}_s", "s", per_pass))
    lines += [f"problem: {p}" for p in problems[:50]]
    lines.append(f"run took {perf() - started:.1f} s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def traced_metrics(traced: list[list[Outcome]], untraced_wall: float,
                   problems: list[str], lines: list[str]) -> dict:
    per_pass = []
    for p in traced:
        t = sum_traces([oc.trace for oc in p if oc.trace is not None])
        if not t["restored"]:
            problems.append("tracer: an original was not restored")
        if t["span_violations"]:
            problems.append(f"tracer: {t['span_violations']} spans whose "
                            "children outlast them")
        if t["replay"].get("failures"):
            problems.append(f"calculus: {t['replay']['failures']} certificates "
                            "failed to replay")
        wall = sum(oc.wall_s for oc in p)
        per_pass.append(layer_metrics(
            t, sum(len(oc.stdout) for oc in p), wall - untraced_wall))
        lines.append(f"traced pass {wall:.3f} s, untraced pass "
                     f"{untraced_wall:.3f} s")
    lines.append("absent: " + (", ".join(sorted(t["absent"])) or "none"))
    return {name: (statistics.median(v[name][0] for v in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "phbochner" / "cli.py").is_file():
        print(f"phbochner sources not found under {SRC}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
