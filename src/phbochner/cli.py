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
and 2 on a usage or input error, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import identities, rigidity
from .operators import registry
from .rigidity import PointData

DEFAULT_SEED = 20240814


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    conditions: list[str] = field(default_factory=list)
    eps: float = rigidity.DEFAULT_EPS
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
    print(f"phbochner: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_points(path: str) -> list[PointData]:
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
    wanted = identities.catalog_ids() if ids == ["all"] else ids
    for ident in wanted:
        if ident not in identities.catalog_ids():
            print(f"unknown identity id: {ident}", file=sys.stderr)
            return 2
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
            ok = m["kill_rate"] == 1.0
            failed |= not ok
            report["results"].append(
                {"id": ident, "status": "PASS" if ok else "FAIL",
                 "mutants": m["total"], "killed": m["killed"],
                 "survivors": m["survivors"]})
        else:
            if ident == "3.7":
                result = identities.run_script(
                    ident, samples=cfg.samples, seed=cfg.seed)
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
    points = _load_points(path)
    try:
        evaluated = rigidity.evaluate_conditions(points, conditions, cfg.eps)
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
    points = _load_points(path)
    try:
        rows = rigidity.scaling_report(points, ks, cfg.eps)
    except ValueError as exc:
        _input_error(f"{path}: {exc}")
    ok = all(r["ok"] for r in rows)
    _emit({"command": "scaletest", "k": ks, "points": rows, "ok": ok},
          cfg.output_format)
    return 0 if ok else 1


def cmd_equiv(cfg: RunConfig) -> int:
    report = rigidity.equivalence_battery(cfg.samples, cfg.seed)
    report["command"] = "equiv"
    _emit(report, cfg.output_format)
    return 0 if report["ok"] else 1


def cmd_sylvester(cfg: RunConfig) -> int:
    report = rigidity.sylvester_battery(cfg.samples, cfg.seed)
    report["command"] = "sylvester"
    _emit(report, cfg.output_format)
    return 0 if report["ok"] else 1


def cmd_trace(cfg: RunConfig, ident: str) -> int:
    if ident not in identities.catalog_ids():
        print(f"unknown identity id: {ident}", file=sys.stderr)
        return 2
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
    reg = registry()
    if name is None:
        _emit({"command": "ops", "operators": sorted(reg)}, cfg.output_format)
        return 0
    if name not in reg:
        print(f"unknown operator {name!r}; known: {sorted(reg)}",
              file=sys.stderr)
        return 2
    _emit({"command": "ops", "name": name, "definition": str(reg[name])},
          cfg.output_format)
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
    ap.add_argument("--eps", type=float, default=rigidity.DEFAULT_EPS,
                    help="verdict boundary tolerance")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for randomized checks (PHB_SEED overrides)")
    ap.add_argument("--samples", type=int, default=100_000,
                    help="sample count for randomized checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="replay identity derivations")
    p_verify.add_argument("ids", nargs="+",
                          help="identity ids from the catalog, or 'all'")
    p_verify.add_argument("--mutate", action="store_true",
                          help="run coefficient-mutation sensitivity instead")

    p_check = sub.add_parser("check", help="evaluate conditions on point data")
    p_check.add_argument("points", help="JSON array of point records")
    p_check.add_argument("--cond", action="append", required=True,
                         choices=list(rigidity.CONDITIONS),
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.samples < 1:
        _input_error(f"--samples must be at least 1, got {args.samples}")
    if not (math.isfinite(args.eps) and args.eps >= 0):
        _input_error(f"--eps must be finite and nonnegative, got {args.eps}")
    seed = args.seed
    if os.environ.get("PHB_SEED"):
        seed = int(os.environ["PHB_SEED"])
    if seed is None:
        seed = DEFAULT_SEED
    cfg = RunConfig(command=args.command, eps=args.eps, samples=args.samples,
                    seed=seed, output_format=args.format)
    if args.command == "verify":
        return cmd_verify(cfg, args.ids, args.mutate)
    if args.command == "check":
        return cmd_check(cfg, args.points, args.cond)
    if args.command == "scaletest":
        return cmd_scaletest(cfg, args.points, _parse_k_list(args.k))
    if args.command == "equiv":
        return cmd_equiv(cfg)
    if args.command == "sylvester":
        return cmd_sylvester(cfg)
    if args.command == "trace":
        return cmd_trace(cfg, args.id)
    if args.command == "ops":
        return cmd_ops(cfg, args.name)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
