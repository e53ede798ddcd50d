"""Start-up cost: each command loads only the modules it runs, and the
package exports resolve on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phbochner

SRC = str(Path(phbochner.__file__).resolve().parents[1])

# Runs the `phbochner.cli` module as `python -m` does (runpy, as __main__)
# with this process's arguments, then prints its exit status and the names
# in sys.modules at exit as JSON; the command's own stdout is discarded.
_MODULES_PROBE = """
import contextlib, io, json, runpy, sys
code = None
try:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_module("phbochner.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

_SYMBOLIC = {"phbochner.scalar", "phbochner.expr", "phbochner.parser",
             "phbochner.calculus", "phbochner.operators",
             "phbochner.identities"}
_FLOAT_COMMANDS = ["check {points} --cond thm-b --cond bianchi",
                   "scaletest {points}", "--samples 100 equiv",
                   "--samples 100 sylvester"]
# symbolic commands besides `verify all`, which has its own test
_SYMBOLIC_COMMANDS = ["verify 3.8", "trace 3.5", "verify all --mutate",
                      "--samples 100 verify 3.7"]


def _float_modules(modules: set[str]) -> set[str]:
    """The float path among `modules`: `rigidity`, numpy and its
    submodules."""
    return {name for name in modules if name in ("numpy", "phbochner.rigidity")
            or name.startswith("numpy.")}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, set[str]]:
    """command -> the modules in sys.modules when it exits, each command run
    in a fresh interpreter; the interpreters run side by side."""
    points = tmp_path_factory.mktemp("points") / "points.json"
    points.write_text('[{"id": "p", "R": 1.0}]')
    commands = (["ops", "ops DJstar", "verify all"] + _SYMBOLIC_COMMANDS
                + _FLOAT_COMMANDS)
    procs = {c: subprocess.Popen(
        [sys.executable, "-c", _MODULES_PROBE,
         *c.format(points=points).split()],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}) for c in commands}
    out = {}
    for command, proc in procs.items():
        code, modules = json.loads(proc.communicate()[0])
        assert code == 0, command
        out[command] = set(modules)
    return out


@pytest.mark.parametrize("command", ["ops", "ops DJstar"])
def test_ops_loads_no_float_or_identity_modules(loaded, command):
    modules = loaded[command]
    assert "phbochner.operators" in modules
    assert not modules & {"dataclasses", "inspect", "phbochner.kernel",
                          "phbochner.identities"}
    assert not _float_modules(modules)
    # only DJstar, derived by `adjoint`, runs the calculus
    assert ("phbochner.calculus" in modules) == (command == "ops DJstar")


@pytest.mark.parametrize("command", _FLOAT_COMMANDS)
def test_float_commands_load_no_symbolic_modules(loaded, command):
    modules = loaded[command]
    assert {"numpy", "phbochner.kernel", "phbochner.rigidity"} <= modules
    assert not modules & _SYMBOLIC


def test_verify_loads_no_numpy(loaded):
    modules = loaded["verify all"]
    assert _SYMBOLIC | {"phbochner.kernel"} <= modules
    assert not _float_modules(modules)


@pytest.mark.parametrize("command", _SYMBOLIC_COMMANDS)
def test_symbolic_commands_load_no_numpy(loaded, command):
    # the kernel the symbolic engine proves, without the float path
    assert "phbochner.kernel" in loaded[command]
    assert not _float_modules(loaded[command])


def test_no_package_module_imports_dataclasses(loaded):
    # the commands together load every package module but `cli`, which each
    # command runs as __main__
    every = set().union(*loaded.values())
    assert {f"phbochner.{m}" for m in ("scalar", "expr", "parser", "calculus",
                                       "operators", "identities", "kernel",
                                       "rigidity")} <= every
    assert "dataclasses" not in every


_EXPORTS_PROBE = """
import json, sys
import phbochner
before = sorted(m for m in sys.modules if m.startswith("phbochner."))
names = {}
exec("from phbochner import *", names)
print(json.dumps([before, sorted(set(phbochner.__all__) - set(names))]))
"""


def test_package_import_loads_no_submodule_and_star_resolves():
    out = subprocess.run([sys.executable, "-c", _EXPORTS_PROBE], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert json.loads(out) == [[], []]


@pytest.mark.parametrize("name", phbochner.__all__)
def test_every_export_is_its_defining_module_object(name):
    value = getattr(phbochner, name)
    assert value.__module__.startswith("phbochner.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        phbochner.no_such_name


# Runs `verify all --mutate` and prints, as JSON, the sizes of the calculus
# memo tables at its end and the rows of the relation systems they hold.
_MEMO_PROBE = """
import contextlib, io, json
from phbochner import calculus as c
from phbochner.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "all", "--mutate"]) == 0
sizes = {"factors": len(c._canon_cache), "terms": len(c._term_cache),
         "systems": len(c._system_cache),
         "sectors": c._sector.cache_info().currsize,
         "sort_keys": c._monomial_sort_key.cache_info().currsize}
# read after the sizes, since listing a sector's relations sorts monomials
sizes["relation_rows"] = sum(len(c._build_relations(*s))
                             for s in c._system_cache)
print(json.dumps(sizes))
"""


def test_mutation_run_memo_sizes():
    # the memo tables keep every entry for the life of the process, so their
    # sizes after the catalog and all 105 mutants are the whole symbolic
    # traffic of any command
    out = subprocess.run([sys.executable, "-c", _MEMO_PROBE], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert json.loads(out) == {"factors": 43, "terms": 155, "systems": 4,
                               "relation_rows": 58, "sectors": 52,
                               "sort_keys": 143}
