"""Self-check of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs `catalog` and a 300-point `points` workload for one pass each, traced
and untraced, and checks that:

1. the metrics a run prints are exactly those named in BENCHMARK.json, with
   the same units (end-to-end ones with --trace 0, per-layer ones with
   --trace 1);
2. in the raw spans a traced run wrote, the children of every span take no
   longer in total than the span itself;
3. the planted-answer generator is a function of its seed;
4. a broken known answer makes a run incorrect, with exit status 1, and in a
   directory that holds only BENCHMARK.json and the benchmark the run exits
   nonzero without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import points
import run

SEED = 7
TINY_POINTS = 300


def quiet_main(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace)]


def check_metrics(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in ("catalog", "points"):
        for trace in (0, 1):
            code, result = quiet_main(args(workload, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                diff = set(got.items()) ^ set(wanted[trace].items())
                failures.append(f"{workload} trace {trace}: metric names or "
                                f"units differ from BENCHMARK.json: {diff}")
            if code != 0 or not result["correct"]:
                failures.append(f"{workload} trace {trace}: run incorrect")
            if trace:
                check_spans(workload, failures)


def check_spans(workload: str, failures: list[str]) -> None:
    """Recompute self times from the raw spans of the last traced run."""
    files = sorted((run.WORK / f"{workload}-{SEED}").glob("trace*/*.spans.json"))
    if not files:
        failures.append(f"{workload}: the traced run wrote no spans")
    for path in files:
        spans = json.loads(path.read_text())["spans"]
        dur = [end - start - paused for _, start, end, _, paused in spans]
        children = [0.0] * len(spans)
        for k, span in enumerate(spans):
            if span[3] >= 0:
                children[span[3]] += dur[k]
        bad = sum(c > d + 1e-9 for c, d in zip(children, dur))
        if bad:
            failures.append(f"{path.name}: {bad} spans shorter than their "
                            "children")


def check_generator(failures: list[str]) -> None:
    first = points.generate(SEED, TINY_POINTS)
    if points.generate(SEED, TINY_POINTS) != first:
        failures.append("generator: same seed, different points")
    if points.generate(SEED + 1, TINY_POINTS) == first:
        failures.append("generator: different seeds, same points")
    planted = first[1]
    for share, what in ((sum(p.torsion_free for p in planted), "torsion-free"),
                        (sum(p.bianchi for p in planted), "Bianchi"),
                        (sum(p.thm_a for p in planted), "thm-a")):
        if not 0 < share < TINY_POINTS:
            failures.append(f"generator: no mix of {what} answers")


def check_broken_answers(failures: list[str]) -> None:
    ids = run.CATALOG_IDS
    run.CATALOG_IDS = ids[:-1] + ["3.9"]
    try:
        code, result = quiet_main(args("catalog", 0))
    finally:
        run.CATALOG_IDS = ids
    if code != 1 or result["correct"]:
        failures.append("catalog: a wrong known answer went unnoticed")

    generate = points.generate

    def flipped(seed, n):
        records, planted = generate(seed, n)
        p = planted[0]
        planted[0] = type(p)(**{**vars(p), "bianchi": not p.bianchi})
        return records, planted
    points.generate = flipped
    try:
        code, result = quiet_main(args("points", 0))
    finally:
        points.generate = generate
    if code != 1 or result["correct"]:
        failures.append("points: a wrong planted answer went unnoticed")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py"]
                          + args("catalog", 0), cwd=bare, capture_output=True,
                          timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout:
        failures.append("bare directory: the run did not fail cleanly")


def main() -> int:
    run.N_POINTS = TINY_POINTS
    failures: list[str] = []
    check_generator(failures)
    check_metrics(failures)
    check_broken_answers(failures)
    for line in failures:
        print("FAIL", line)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
