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
Every report is written with one `sys.stdout.write`.  Its JSON bytes are
those of `json.dumps(report, indent=2, sort_keys=True, default=str)`, written
by `_json_into`: each container whose members are all leaves is encoded in
one call to the stdlib's C encoder, and Python walks only the containers that
hold other containers (with `indent`, `json.dumps` runs the pure-Python
encoder on every value).  Point files are read into columns by
`rigidity.point_columns`.
A completed run freezes the garbage collector's objects before `main`
returns, as the process exits next: the interpreter's last collection would
walk every module, cache and report only for the exit to free them.
Each command takes the parsed `argparse` namespace and returns `(report,
ok)`, `trace`'s text report being one string, and `main` emits the report
once: exit 0 when ok, 1 when a verification or condition failed.  Every
usage or input error is one `phbochner: error:` line on stderr and exit 2
(`_input_error`): argparse's own, and a catalog record or field that is
missing, unparsable or of the wrong kind, named (`_from_catalog`), included.  Each argument
is checked by its argparse `type` (`--samples` at most `MAX_SAMPLES`), and a
name that needs a module (identity id, operator, `--cond`) by the command
importing it, and `check` evaluates each `--cond` name once and `verify`
each id once.  No option sets a tolerance: the verdict bands are the `band`
of each `rigidity.CONDITIONS` row (1e-12 for thm-a and corollaryC, 1e-9 for
bianchi) and `rigidity._BOUNDARY_BAND` (1e-9) for the batteries.  A reader
closing stdout early (`phbochner ops | head -1`) ends the run without a
traceback, with exit 141, 128 + SIGPIPE.

Each command imports only what it runs: `rigidity` and numpy are loaded by
`check`, `scaletest`, `equiv` and `sylvester`, with the formula `kernel`
they evaluate, and none of the symbolic modules are; `verify` and `trace`
load the symbolic engine and the `kernel` it proves, never `rigidity` or
numpy; `ops` loads `operators` and the parser, and `calculus` only to
build an operator derived by it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys

DEFAULT_SEED = 20240814
# Largest `--samples`: the `equiv` battery peaks at about 700 bytes per
# sample and `sylvester` at about 475 (tracemalloc, 10^4 and 10^5 samples),
# so a battery at the ceiling stays under 1 GB.
MAX_SAMPLES = 1_000_000


def _emit(report: dict | str, fmt: str) -> None:
    """Write a report to stdout in one call: JSON, or indented text."""
    out: list[str] = []
    if fmt == "json":
        _json_into(report, 0, out)
        out.append("\n")
    else:
        _text_into(report, "", out)
    sys.stdout.write("".join(out))


# the types json encodes as one leaf without calling `default`
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(depth: int):
    """The stdlib's C encoder for a container at `depth` whose members are
    all leaves.  Its item separator carries the newline and indent of those
    members, as `indent=2` puts them; the newlines after the opening bracket
    and before the closing one are left to the caller.  It encodes a single
    leaf at any depth too."""
    # markers (no cycle check), default, string encoder, indent (none: the
    # item separator carries it), key separator, item separator, sort_keys,
    # skipkeys, allow_nan
    return json.encoder.c_make_encoder(
        None, str, json.encoder.encode_basestring_ascii, None, ": ",
        ",\n" + "  " * (depth + 1), True, False, True)


def _json_into(obj, depth: int, out: list[str]) -> None:
    """Append the chunks of `json.dumps(obj, indent=2, sort_keys=True,
    default=str)` for obj at `depth` to out.  A container whose members are
    all leaves is one call to the C encoder; Python walks only the others."""
    encode = _flat_encoder(depth)
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        out += encode(obj, 0)    # a leaf or an empty container
        return
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + ("}" if is_dict else "]")
    if _LEAF_TYPES.issuperset(map(type, obj.values() if is_dict else obj)):
        text = "".join(encode(obj, 0))
        out += (text[0], inner, text[1:-1], close)
        return
    out.append("{" if is_dict else "[")
    sep = inner
    for item in sorted(obj.items()) if is_dict else obj:
        out.append(sep)
        sep = "," + inner
        if is_dict:
            key, item = item
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {type(key).__name__}")
                key = "".join(encode(key, 0))
            out += (json.encoder.encode_basestring_ascii(key), ": ")
        if type(item) in _LEAF_TYPES:
            out += encode(item, 0)
        else:
            _json_into(item, depth + 1, out)
    out.append(close)


def _text_into(obj, prefix: str, out: list[str]) -> None:
    """Append the text lines of obj, each ending in a newline, to out: one
    key or list dash per line, nested containers indented by two spaces."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                out.append(f"{prefix}{key}:\n")
                _text_into(val, prefix + "  ", out)
            else:
                out.append(f"{prefix}{key}: {val}\n")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                out.append(prefix + "-\n")
                _text_into(item, prefix + "  ", out)
            else:
                out.append(f"{prefix}- {item}\n")
    else:
        out.append(f"{prefix}{obj}\n")


def _input_error(message: str):
    """Report an input error as one stderr line and exit with status 2; a
    newline the message quotes from argv or a path is escaped."""
    print("phbochner: error: " + message.replace("\n", "\\n"),
          file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own usage errors are input errors too."""

    def error(self, message: str):
        _input_error(message)

    def parse_args(self, args=None, namespace=None):
        """Fail first on an option before the command that is unknown: argparse
        sets it aside and reads its value as the command (`--eps 0 ops`)."""
        tokens = iter(sys.argv[1:] if args is None else args)
        for token in tokens:
            if not token.startswith("-"):
                break  # the command
            name, eq, _ = token.partition("=")
            known = [a for o, a in self._option_string_actions.items()
                     if o.startswith(name)]  # a prefix names an option too
            if not known:
                self.error(f"unrecognized arguments: {token}")
            if not eq and known[0].nargs != 0:
                next(tokens, None)  # its value
        return super().parse_args(args, namespace)


def _load_points(path: str) -> dict:
    """The point file at path as `rigidity.point_columns` gives it."""
    from .rigidity import point_columns

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        _input_error(f"{path}: {exc}")
    if not isinstance(data, list) or not data:
        _input_error(f"{path}: expected a non-empty JSON array of points")
    try:
        return point_columns(data)
    except ValueError as exc:
        _input_error(f"{path}: {exc}")


def _on_points(args: argparse.Namespace, evaluate, *params):
    """`evaluate(points, *params)` on the point file of args; a ValueError
    of the data is an input error."""
    points = _load_points(args.points)
    try:
        return evaluate(points, *params)
    except ValueError as exc:
        _input_error(f"{args.points}: {exc}")


# ---------------------------------------------------------------------------
# Commands: each takes the parsed arguments and returns (report, ok)
# ---------------------------------------------------------------------------

def _from_catalog(run, *args):
    """run(*args); a catalog that cannot be read is an input error."""
    from .parser import CatalogError
    try:
        return run(*args)
    except CatalogError as exc:
        _input_error(str(exc))


def cmd_verify(args: argparse.Namespace) -> tuple[dict, bool]:
    from . import identities

    wanted = list(dict.fromkeys(args.ids))  # each once, in order first given
    if "all" in wanted and len(wanted) > 1:
        _input_error("'all' must stand alone, without other ids")
    if wanted == ["all"]:
        wanted = identities.catalog_ids()
    for ident in wanted:
        if ident not in identities.catalog_ids():
            _input_error(f"unknown identity id: {ident}")
    report = {"command": "verify", "results": []}
    failed = False
    for ident in wanted:
        if not args.mutate:
            result = _from_catalog(identities.run_script, ident)
            record = {"status": result.status, **result.outcome()}
        elif ident in identities.MUTABLE_IDS:
            record = _from_catalog(identities.mutation_test, ident)
        else:
            record = {"status": "SKIP", "note": "mutation not applicable"}
        failed |= record["status"] == "FAIL"
        report["results"].append({"id": ident, **record})
    report["ok"] = not failed
    return report, not failed


def cmd_check(args: argparse.Namespace) -> tuple[dict, bool]:
    from . import rigidity

    # each condition once, in the order first given
    names = list(dict.fromkeys(args.cond))
    for name in names:
        if name not in rigidity.CONDITIONS:
            _input_error(f"unknown condition {name!r}; "
                         f"known: {list(rigidity.CONDITIONS)}")
    reports = _on_points(args, rigidity.evaluate_conditions, names)
    ok = all(not r["errors"] and all(r["passed"].values()) for r in reports)
    return {"command": "check", "conditions": names, "points": reports,
            "n_points": len(reports), "ok": ok}, ok


def cmd_scaletest(args: argparse.Namespace) -> tuple[dict, bool]:
    from .rigidity import scaling_report

    rows = _on_points(args, scaling_report, args.k)
    ok = all(r["ok"] for r in rows)
    return {"command": "scaletest", "k": args.k, "points": rows, "ok": ok}, ok


def cmd_battery(args: argparse.Namespace) -> tuple[dict, bool]:
    """`equiv` or `sylvester`: the sampling battery its parser names."""
    from . import rigidity

    report = getattr(rigidity, args.battery)(args.samples, args.seed)
    report["command"] = args.command
    return report, report["ok"]


def cmd_trace(args: argparse.Namespace) -> tuple[dict | str, bool]:
    from . import identities

    if args.id not in identities.catalog_ids():
        _input_error(f"unknown identity id: {args.id}")
    result = _from_catalog(identities.run_script, args.id)
    if args.format == "json":
        report = result.to_dict()
        report["trace"] = result.trace.to_dict() if result.trace else None
    else:
        report = result.to_text()
    return report, result.passed


def cmd_ops(args: argparse.Namespace) -> tuple[dict, bool]:
    from .operators import REGISTRY

    name = args.name
    if name is None:
        return {"command": "ops", "operators": sorted(REGISTRY)}, True
    if name not in REGISTRY:
        _input_error(f"unknown operator {name!r}; known: {sorted(REGISTRY)}")
    return {"command": "ops", "name": name,
            "definition": str(_from_catalog(REGISTRY[name]))}, True


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _checked(convert, ok, want: str):
    """An argparse `type`: convert(text) if ok accepts it, else an error."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"{want}, got {text!r}")
    return parse


def _scale_factor(text: str) -> float:
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _scale_factors(text: str) -> list[float]:
    """`--k`: comma-separated positive, finite numbers or fractions."""
    factor = _checked(_scale_factor, lambda k: math.isfinite(k) and k > 0,
                      "scale factors must be positive, finite numbers or "
                      "fractions")
    return [factor(piece.strip()) for piece in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="phbochner",
        description="Exact identity verification and pointwise rigidity checks "
                    "for 3-dimensional pseudohermitian geometry.")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")
    ap.add_argument("--seed", default=DEFAULT_SEED, type=_checked(
                        int, lambda n: n >= 0, "must be a nonnegative integer"),
                    help="seed of equiv and sylvester")
    ap.add_argument("--samples", default=100_000, type=_checked(
                        int, lambda n: 1 <= n <= MAX_SAMPLES,
                        f"must be an integer from 1 to {MAX_SAMPLES}"),
                    help="sample count of equiv and sylvester")
    sub = ap.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="replay identity derivations")
    p_verify.add_argument("ids", nargs="+",
                          help="identity ids from the catalog, or 'all'")
    p_verify.add_argument("--mutate", action="store_true",
                          help="run coefficient-mutation sensitivity instead")
    p_verify.set_defaults(run=cmd_verify)

    p_check = sub.add_parser("check", help="evaluate conditions on point data")
    p_check.add_argument("points", help="JSON array of point records")
    p_check.add_argument("--cond", action="append", required=True,
                         help="condition to evaluate (repeatable)")
    p_check.set_defaults(run=cmd_check)

    p_scale = sub.add_parser("scaletest", help="contact-form scaling battery")
    p_scale.add_argument("points", help="JSON array of point records")
    p_scale.add_argument("--k", default="1/7,1/2,3,100", type=_scale_factors,
                         help="comma-separated scale factors (fractions allowed)")
    p_scale.set_defaults(run=cmd_scaletest)

    p_equiv = sub.add_parser("equiv",
                             help="determinant-equivalence sampling battery")
    p_equiv.set_defaults(run=cmd_battery, battery="equivalence_battery")
    p_sylv = sub.add_parser("sylvester",
                            help="Sylvester vs eigenvalue oracle battery")
    p_sylv.set_defaults(run=cmd_battery, battery="sylvester_battery")

    p_trace = sub.add_parser("trace", help="export a derivation trace")
    p_trace.add_argument("id", help="identity id")
    p_trace.set_defaults(run=cmd_trace)

    p_ops = sub.add_parser("ops", help="show operator templates")
    p_ops.add_argument("name", nargs="?", default=None)
    p_ops.set_defaults(run=cmd_ops)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report, ok = args.run(args)
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`); send the interpreter's final
        # flush to devnull so it cannot fail again (Python's "Note on
        # SIGPIPE" recipe), and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    # the process exits next, and the interpreter's last garbage collection
    # would walk every object the run left (modules, caches, the report)
    # only for the exit to free them anyway; frozen, they are skipped
    gc.freeze()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
