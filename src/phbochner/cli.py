"""Command-line front end.

Commands:
  verify [ids|all] [--mutate]    replay identity derivations from the catalog
  check <points.json> --cond C   evaluate rigidity conditions on point data
  scaletest <points.json> --k L  contact-form scaling battery
  equiv --samples N --seed S     determinant-equivalence sampling battery
  sylvester --samples N          Sylvester vs eigenvalue oracle battery
  trace <id>                     export the derivation trace for one identity
  ops [name]                     show operator templates from the registry

The PHB_SEED environment variable overrides --seed.  Identical configuration
(including the seed) produces byte-identical JSON output.  Exit status is 0
when every requested verification or condition passed, 1 when one failed,
2 on a usage or input error (an unknown identity, operator or condition
name included), reported as one line on stderr, and 141 (128 + SIGPIPE) when
the reader closes stdout early, as in `phbochner ops | head -1`; that ends
without a traceback.

Each command imports only what it runs: `rigidity` and numpy are loaded by
`check`, `scaletest`, `equiv` and `sylvester`, and none of the symbolic
modules are; `verify` and `trace` load the symbolic engine and `rigidity`'s
exact kernel, never numpy; `ops` loads `operators` and the parser, and
`calculus` only to build an operator derived by it.
`--samples` and `--seed` act on `equiv` and `sylvester`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

DEFAULT_SEED = 20240814


class RunConfig(NamedTuple):
    eps: float | None = None         # None: rigidity.DEFAULT_EPS
    samples: int = 100_000
    seed: int = DEFAULT_SEED
    output_format: str = "text"


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return
    for line in _text_lines(report):
        print(line)


def _text_lines(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_text_lines(val, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {val}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(prefix + "-")
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append(f"{prefix}- {item}")
    else:
        lines.append(f"{prefix}{obj}")
    return lines


def _input_error(message: str):
    """Report an input error as one stderr line and exit with status 2."""
    print(f"phbochner: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _eps(cfg: RunConfig) -> float:
    """--eps, or the rigidity default when it is not given."""
    from .rigidity import DEFAULT_EPS

    return DEFAULT_EPS if cfg.eps is None else cfg.eps


def _load_points(path: str) -> list[PointData]:
    from .rigidity import PointData

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        _input_error(f"{path}: {exc}")
    if not isinstance(data, list) or not data:
        _input_error(f"{path}: expected a non-empty JSON array of points")
    try:
        return [PointData.from_mapping(rec) for rec in data]
    except ValueError as exc:
        _input_error(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, ids: list[str], mutate: bool) -> int:
    from . import identities

    wanted = identities.catalog_ids() if ids == ["all"] else ids
    for ident in wanted:
        if ident not in identities.catalog_ids():
            _input_error(f"unknown identity id: {ident}")
    report = {"command": "verify", "results": []}
    failed = False
    for ident in wanted:
        if mutate:
            if ident not in identities.MUTABLE_IDS:
                report["results"].append(
                    {"id": ident, "status": "SKIP",
                     "note": "mutation not applicable"})
                continue
            m = identities.mutation_test(ident)
            ok = m["kill_rate"] == 1
            failed |= not ok
            report["results"].append(
                {"id": ident, "status": "PASS" if ok else "FAIL",
                 "mutants": m["total"], "killed": m["killed"],
                 "survivors": m["survivors"]})
        else:
            result = identities.run_script(ident)
            failed |= result.status == "FAIL"
            entry = result.to_dict()
            report["results"].append({"id": ident, "status": result.status,
                                      "residual": entry["residual"],
                                      "details": entry["details"]})
    report["ok"] = not failed
    _emit(report, cfg.output_format)
    return 1 if failed else 0


def cmd_check(cfg: RunConfig, path: str, conditions: list[str]) -> int:
    from . import rigidity

    for name in conditions:
        if name not in rigidity.CONDITIONS:
            _input_error(f"unknown condition {name!r}; "
                         f"known: {list(rigidity.CONDITIONS)}")
    points = _load_points(path)
    try:
        evaluated = rigidity.evaluate_conditions(points, conditions, _eps(cfg))
    except ValueError as exc:
        _input_error(f"{path}: {exc}")
    reports = [r.to_dict() for r in evaluated]
    ok = all(r.ok() for r in evaluated)
    summary = {
        "command": "check",
        "conditions": conditions,
        "points": reports,
        "n_points": len(points),
        "ok": ok,
    }
    _emit(summary, cfg.output_format)
    return 0 if ok else 1


def cmd_scaletest(cfg: RunConfig, path: str, ks: list[float]) -> int:
    from . import rigidity

    points = _load_points(path)
    try:
        rows = rigidity.scaling_report(points, ks, _eps(cfg))
    except ValueError as exc:
        _input_error(f"{path}: {exc}")
    ok = all(r["ok"] for r in rows)
    _emit({"command": "scaletest", "k": ks, "points": rows, "ok": ok},
          cfg.output_format)
    return 0 if ok else 1


def cmd_equiv(cfg: RunConfig) -> int:
    from . import rigidity

    report = rigidity.equivalence_battery(cfg.samples, cfg.seed)
    report["command"] = "equiv"
    _emit(report, cfg.output_format)
    return 0 if report["ok"] else 1


def cmd_sylvester(cfg: RunConfig) -> int:
    from . import rigidity

    report = rigidity.sylvester_battery(cfg.samples, cfg.seed)
    report["command"] = "sylvester"
    _emit(report, cfg.output_format)
    return 0 if report["ok"] else 1


def cmd_trace(cfg: RunConfig, ident: str) -> int:
    from . import identities

    if ident not in identities.catalog_ids():
        _input_error(f"unknown identity id: {ident}")
    result = identities.run_script(ident)
    if cfg.output_format == "json":
        payload = result.to_dict()
        payload["trace"] = (json.loads(result.trace.to_json())
                            if result.trace else None)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"[{result.name}] {result.status}")
        for label, value in result.steps:
            print(f"-- {label}:\n   {value}")
        if result.trace is not None:
            print(result.trace.to_text())
    return 0 if result.status != "FAIL" else 1


def cmd_ops(cfg: RunConfig, name: str | None) -> int:
    from .operators import REGISTRY

    if name is None:
        _emit({"command": "ops", "operators": sorted(REGISTRY)},
              cfg.output_format)
        return 0
    if name not in REGISTRY:
        _input_error(f"unknown operator {name!r}; known: {sorted(REGISTRY)}")
    _emit({"command": "ops", "name": name,
           "definition": str(REGISTRY[name]())}, cfg.output_format)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phbochner",
        description="Exact identity verification and pointwise rigidity checks "
                    "for 3-dimensional pseudohermitian geometry.")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")
    ap.add_argument("--eps", type=float, default=None,
                    help="verdict boundary tolerance")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of equiv and sylvester (PHB_SEED overrides)")
    ap.add_argument("--samples", type=int, default=100_000,
                    help="sample count of equiv and sylvester")
    sub = ap.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="replay identity derivations")
    p_verify.add_argument("ids", nargs="+",
                          help="identity ids from the catalog, or 'all'")
    p_verify.add_argument("--mutate", action="store_true",
                          help="run coefficient-mutation sensitivity instead")

    p_check = sub.add_parser("check", help="evaluate conditions on point data")
    p_check.add_argument("points", help="JSON array of point records")
    p_check.add_argument("--cond", action="append", required=True,
                         help="condition to evaluate (repeatable)")

    p_scale = sub.add_parser("scaletest", help="contact-form scaling battery")
    p_scale.add_argument("points", help="JSON array of point records")
    p_scale.add_argument("--k", default="1/7,1/2,3,100",
                         help="comma-separated scale factors (fractions allowed)")

    sub.add_parser("equiv", help="determinant-equivalence sampling battery")
    sub.add_parser("sylvester", help="Sylvester vs eigenvalue oracle battery")

    p_trace = sub.add_parser("trace", help="export a derivation trace")
    p_trace.add_argument("id", help="identity id")

    p_ops = sub.add_parser("ops", help="show operator templates")
    p_ops.add_argument("name", nargs="?", default=None)
    return ap


def _parse_k_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        num, _, den = piece.strip().partition("/")
        try:
            k = float(num) / float(den or 1)
        except (ValueError, ZeroDivisionError):
            _input_error(f"--k: {piece.strip()!r} is not a number or fraction")
        if not (math.isfinite(k) and k > 0):
            _input_error(f"--k: scale factors must be positive and finite, "
                         f"got {piece.strip()!r}")
        out.append(k)
    return out


# subcommand -> runner of (config, parsed arguments)
_COMMANDS = {
    "verify": lambda cfg, a: cmd_verify(cfg, a.ids, a.mutate),
    "check": lambda cfg, a: cmd_check(cfg, a.points, a.cond),
    "scaletest": lambda cfg, a: cmd_scaletest(cfg, a.points,
                                              _parse_k_list(a.k)),
    "equiv": lambda cfg, a: cmd_equiv(cfg),
    "sylvester": lambda cfg, a: cmd_sylvester(cfg),
    "trace": lambda cfg, a: cmd_trace(cfg, a.id),
    "ops": lambda cfg, a: cmd_ops(cfg, a.name),
}


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`); send the interpreter's final
        # flush to devnull so it cannot fail again (Python's "Note on
        # SIGPIPE" recipe), and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    return code


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    if args.samples < 1:
        _input_error(f"--samples must be at least 1, got {args.samples}")
    if args.eps is not None and not (math.isfinite(args.eps)
                                     and args.eps >= 0):
        _input_error(f"--eps must be finite and nonnegative, got {args.eps}")
    seed, seed_name = args.seed, "--seed"
    if os.environ.get("PHB_SEED"):
        seed_name = "PHB_SEED"
        try:
            seed = int(os.environ["PHB_SEED"])
        except ValueError:
            _input_error(f"PHB_SEED must be an integer, "
                         f"got {os.environ['PHB_SEED']!r}")
    if seed is None:
        seed = DEFAULT_SEED
    elif seed < 0:
        _input_error(f"{seed_name} must be nonnegative, got {seed}")
    cfg = RunConfig(eps=args.eps, samples=args.samples, seed=seed,
                    output_format=args.format)
    return _COMMANDS[args.command](cfg, args)


if __name__ == "__main__":
    sys.exit(main())
