"""Command-line front end.

Commands:
  verify [ids|all] [--mutate]    replay identity derivations from the catalog
  check <points.json> --cond C   evaluate rigidity conditions on point data
  scaletest <points.json> --k L  contact-form scaling battery
  equiv --samples N --seed S     determinant-equivalence sampling battery
  sylvester --samples N          Sylvester vs eigenvalue oracle battery
  trace <id>                     export the derivation trace for one identity
  ops [name]                     show operator templates from the registry

Identical arguments (the seed included) produce byte-identical JSON output.
Exit status is 0 when every requested verification or condition passed, 1
when one failed, 2 on a usage or input error (an unknown identity, operator
or condition name included), reported as one line on stderr, and 141
(128 + SIGPIPE) when the reader closes stdout early, as in
`phbochner ops | head -1`; that ends without a traceback.

Each command imports only what it runs: `rigidity` and numpy are loaded by
`check`, `scaletest`, `equiv` and `sylvester`, with the formula `kernel`
they evaluate, and none of the symbolic modules are; `verify` and `trace`
load the symbolic engine and the `kernel` it proves, never `rigidity` or
numpy; `ops` loads `operators` and the parser, and `calculus` only to
build an operator derived by it.
`--samples` and `--seed` (default `DEFAULT_SEED`) act on `equiv` and
`sylvester`.  Each command is a function of the parsed `argparse`
namespace, which `_run` validates first; `_COMMANDS` maps each subcommand to
its function.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

DEFAULT_SEED = 20240814


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

def cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    wanted = identities.catalog_ids() if args.ids == ["all"] else args.ids
    for ident in wanted:
        if ident not in identities.catalog_ids():
            _input_error(f"unknown identity id: {ident}")
    report = {"command": "verify", "results": []}
    failed = False
    for ident in wanted:
        if args.mutate:
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
            report["results"].append({"id": ident, "status": result.status,
                                      **result.outcome()})
    report["ok"] = not failed
    _emit(report, args.format)
    return 1 if failed else 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import rigidity

    for name in args.cond:
        if name not in rigidity.CONDITIONS:
            _input_error(f"unknown condition {name!r}; "
                         f"known: {list(rigidity.CONDITIONS)}")
    points = _load_points(args.points)
    eps = rigidity.DEFAULT_EPS if args.eps is None else args.eps
    try:
        reports = rigidity.evaluate_conditions(points, args.cond, eps)
    except ValueError as exc:
        _input_error(f"{args.points}: {exc}")
    ok = all(not r["errors"] and all(r["passed"].values()) for r in reports)
    summary = {
        "command": "check",
        "conditions": args.cond,
        "points": reports,
        "n_points": len(points),
        "ok": ok,
    }
    _emit(summary, args.format)
    return 0 if ok else 1


def cmd_scaletest(args: argparse.Namespace) -> int:
    from . import rigidity

    ks = _parse_k_list(args.k)
    points = _load_points(args.points)
    eps = rigidity.DEFAULT_EPS if args.eps is None else args.eps
    try:
        rows = rigidity.scaling_report(points, ks, eps)
    except ValueError as exc:
        _input_error(f"{args.points}: {exc}")
    ok = all(r["ok"] for r in rows)
    _emit({"command": "scaletest", "k": ks, "points": rows, "ok": ok},
          args.format)
    return 0 if ok else 1


def cmd_battery(args: argparse.Namespace) -> int:
    """`equiv` or `sylvester`: one sampling battery, named by the command."""
    from . import rigidity

    battery = {"equiv": rigidity.equivalence_battery,
               "sylvester": rigidity.sylvester_battery}[args.command]
    report = battery(args.samples, args.seed)
    report["command"] = args.command
    _emit(report, args.format)
    return 0 if report["ok"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from . import identities

    if args.id not in identities.catalog_ids():
        _input_error(f"unknown identity id: {args.id}")
    result = identities.run_script(args.id)
    if args.format == "json":
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


def cmd_ops(args: argparse.Namespace) -> int:
    from .operators import REGISTRY

    name = args.name
    if name is None:
        _emit({"command": "ops", "operators": sorted(REGISTRY)}, args.format)
        return 0
    if name not in REGISTRY:
        _input_error(f"unknown operator {name!r}; known: {sorted(REGISTRY)}")
    _emit({"command": "ops", "name": name,
           "definition": str(REGISTRY[name]())}, args.format)
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
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed of equiv and sylvester")
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


# subcommand -> its function of the parsed arguments
_COMMANDS = {
    "verify": cmd_verify,
    "check": cmd_check,
    "scaletest": cmd_scaletest,
    "equiv": cmd_battery,
    "sylvester": cmd_battery,
    "trace": cmd_trace,
    "ops": cmd_ops,
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
    if args.seed < 0:
        _input_error(f"--seed must be nonnegative, got {args.seed}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
