"""Command-line interface behaviour and report determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phbochner import cli
from phbochner.cli import main

SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps([{"id": "p0", "R": 1.0}]))
    return str(path)


@pytest.fixture
def torsion_file(tmp_path):
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps([{
        "id": "t0", "R": 2.0, "R0": 0.06, "R1": [0.1, -0.2], "lapR": 0.4,
        "A11": [0.05, 0.02], "A11_1": [0.01, 0.03], "A11_b": [0.0, 0.01],
        "A11_bb": [0.03, 0.01],
    }]))
    return str(path)


def test_verify_single(capsys):
    assert main(["verify", "2.3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "7.7"])
    assert exc.value.code == 2


def test_verify_mutate(capsys):
    assert main(["verify", "2.ibp", "--mutate"]) == 0
    out = capsys.readouterr().out
    assert "killed" in out


def test_check_sphere(capsys, sphere_file):
    assert main(["check", sphere_file, "--cond", "corollaryC"]) == 0
    out = capsys.readouterr().out
    assert "20.0" in out


def test_check_thm_b(capsys, torsion_file):
    code = main(["--format", "json", "check", torsion_file,
                 "--cond", "thm-b", "--cond", "bianchi"])
    report = json.loads(capsys.readouterr().out)
    assert report["points"][0]["verdicts"]["thm_b"] is True
    assert code == 0


def test_check_corollary_on_torsion_errors(capsys, torsion_file):
    assert main(["check", torsion_file, "--cond", "corollaryC"]) == 1
    assert "A = 0" in capsys.readouterr().out


def test_check_thm_a_strict_point(capsys, tmp_path):
    # strict verdict counts as a pass even though the borderline verdict is off
    path = tmp_path / "neg.json"
    path.write_text(json.dumps([{"id": "n", "R": -1.0, "R0": 1.0}]))
    assert main(["--format", "json", "check", str(path), "--cond", "thm-a"]) == 0
    report = json.loads(capsys.readouterr().out)
    point = report["points"][0]
    assert point["verdicts"]["thm_a"] and not point["verdicts"]["thm_a_borderline"]
    # a positive-curvature point fails the same request
    path2 = tmp_path / "pos.json"
    path2.write_text(json.dumps([{"id": "p", "R": 1.0, "R0": 1.0}]))
    assert main(["check", str(path2), "--cond", "thm-a"]) == 1


def test_check_missing_file():
    with pytest.raises(SystemExit):
        main(["check", "/nonexistent.json", "--cond", "thm-b"])


def test_check_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    with pytest.raises(SystemExit):
        main(["check", str(path), "--cond", "thm-b"])


ONE_POINT = '[{"id": "p0", "R": 1.0}]'


@pytest.mark.parametrize("content, args, names", [
    ('[{"id": "q", "R": 1.0, "lapR": Infinity}]',
     ["check", "{}", "--cond", "3.12"], ["'q'", "'lapR'"]),
    ('[{"id": "q", "R": NaN}]', ["check", "{}", "--cond", "thm-b"],
     ["'q'", "'R'"]),
    ('[{"id": "q", "R": 1.0, "A11": "abc"}]',
     ["check", "{}", "--cond", "thm-b"], ["'q'", "'A11'"]),
    ('[{"id": "q", "R": 1.0, "R1": [1.0, 2.0, 3.0]}]',
     ["scaletest", "{}"], ["'q'", "'R1'"]),
    ('[{"id": "q", "R": 1e200}]', ["check", "{}", "--cond", "thm-b"],
     ["'q'", "overflow"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "1e-200"], ["'p0'", "1e-200"]),
    ("[5]", ["check", "{}", "--cond", "thm-b"], []),
    ("[]", ["check", "{}", "--cond", "thm-b"], []),
    ("not json", ["check", "{}", "--cond", "thm-b"], []),
    (ONE_POINT, ["scaletest", "{}", "--k", "1/0"], ["1/0"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "abc"], ["abc"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "1/2,-3"], ["-3"]),
    (ONE_POINT, ["--samples", "-3", "equiv"], ["--samples"]),
    (ONE_POINT, ["--samples", "0", "equiv"], ["--samples"]),
    (ONE_POINT, ["--samples", "0", "verify", "3.7"], ["--samples"]),
    (ONE_POINT, ["--eps=-1e-12", "check", "{}", "--cond", "thm-b"],
     ["--eps"]),
    (ONE_POINT, ["--seed", "-5", "--samples", "100", "sylvester"],
     ["--seed", "-5"]),
    (ONE_POINT, ["--seed", "-5", "--samples", "100", "verify", "3.7"],
     ["--seed", "-5"]),
    (ONE_POINT, ["verify", "9.9"], ["9.9"]),
    (ONE_POINT, ["trace", "9.9"], ["9.9"]),
    (ONE_POINT, ["ops", "nosuch"], ["'nosuch'"]),
    (ONE_POINT, ["check", "{}", "--cond", "nosuch"], ["'nosuch'", "thm-b"]),
], ids=["infinite-field", "nan-field", "string-field", "long-pair",
        "value-overflow", "k-overflow", "not-a-record", "empty-array",
        "not-json", "k-divides-by-zero", "k-not-a-number", "k-negative",
        "samples-negative", "samples-zero", "samples-zero-verify",
        "eps-negative", "seed-negative", "seed-negative-verify",
        "verify-unknown-id",
        "trace-unknown-id", "ops-unknown-name", "cond-unknown-name"])
def test_input_error_exits_2(capsys, tmp_path, content, args, names):
    path = tmp_path / "points.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([a.format(path) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("phbochner: error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err


@pytest.mark.parametrize("args", [["--format", "json", "ops"],
                                  ["trace", "2.8"]])
def test_closed_stdout_exits_quietly(args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "phbochner.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC})
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err and err == ""


def test_scaletest(capsys, torsion_file):
    assert main(["scaletest", torsion_file, "--k", "1/7,1/2,3,100"]) == 0
    assert "verdicts_invariant: True" in capsys.readouterr().out


def test_equiv_json_deterministic(capsys):
    assert main(["--format", "json", "--samples", "2000",
                 "--seed", "5", "equiv"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "--samples", "2000",
                 "--seed", "5", "equiv"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["ok"] is True


def test_seed_default(capsys):
    assert main(["--format", "json", "--samples", "1000", "sylvester"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == cli.DEFAULT_SEED


def test_sylvester_command(capsys):
    assert main(["--samples", "1000", "sylvester"]) == 0


def test_trace(capsys):
    assert main(["trace", "2.ibp"]) == 0
    out = capsys.readouterr().out
    assert "relation" in out and "PASS" in out


def test_trace_json(capsys):
    assert main(["--format", "json", "trace", "3.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "PASS"
    assert payload["trace"]["entries"]


def test_ops_listing_and_lookup(capsys):
    assert main(["ops"]) == 0
    out = capsys.readouterr().out
    assert "DJstar" in out
    assert main(["ops", "Q11"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["ops", "nope"])
    assert exc.value.code == 2


def test_verify_all_smoke(capsys):
    assert main(["--samples", "5000", "verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 12


def test_verify_all_json_independent_of_seed(capsys):
    # every catalog identity is proven exactly; nothing is sampled
    outs = []
    for seed in ("1", "2"):
        assert main(["--format", "json", "--seed", seed, "verify", "all"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert [r["status"] for r in json.loads(outs[0])["results"]] \
        == ["PASS"] * 12


def _python(*args, **env) -> str:
    """Stdout of a fresh interpreter run on this checkout's package."""
    return subprocess.run(
        [sys.executable, *args], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC, **env}).stdout


# Runs cli.main on argv in a fresh interpreter, then prints whether any numpy
# submodule was imported (a lazily loaded numpy leaves none).
_NUMPY_PROBE = """
import contextlib, io, sys
from phbochner import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("args, loads_numpy", [
    ("ops", False),
    ("verify all", False),
    ("check {points} --cond bianchi", True),
])
def test_numpy_loaded_only_by_float_commands(args, loads_numpy, sphere_file):
    out = _python("-c", _NUMPY_PROBE, *args.format(points=sphere_file).split())
    assert out.split() == ["0", str(loads_numpy)]


@pytest.mark.parametrize("ident",["2.11", "3.4", "3.5", "3.8"])
def test_trace_bytes_independent_of_hash_seed(ident):
    outs = {_python("-m", "phbochner.cli", "--format", "json", "trace", ident,
                    PYTHONHASHSEED=seed) for seed in ("1", "2", "3")}
    assert len(outs) == 1


# sha256 of the `--format json` stdout of each command; any change to these
# bytes must be intended and listed in CHANGES.md
_PINNED_JSON = {
    "verify all":
        "b0deefa93b7d4a7998d98ac2aa38f9b8cdadc97a789e9f219df1a92e0ebc45d2",
    "verify all --mutate":
        "e597dfa63f808bc1c0a473cd54ac910cc40899258c95e990cdfd6bd6373d680a",
    "trace 2.3":
        "053144410979bb9a4392df61f46e4a7418c0c726e0da19446a16d033b645b69f",
    "trace 2.7":
        "f7e95c71fd69c3a708c3ee724e38f57559ad11aa585e750c88fc9dcedd1dcad5",
    "trace 2.8":
        "f2e92a7fde41446b795ce889f4ccb2a9fb1c962e2aa225ee51f88f72473f5890",
    "trace 2.ibp":
        "710a20f3bd749c51014816f9cce9010cb6a6ea56c70cdcddea73d66c348c27dc",
    "trace 2.11":
        "7953055b6bc190d6c8ac9186eb18ba39e6e2605db06c6bd8a9a0496557bd6058",
    "trace 3.2":
        "1535035d0e6c8febd7bbbd2d975cf6a17ce7c5324dcb57038d9577eb985d70a0",
    "trace 3.3":
        "5ae649ffd559c7bba99b263471cbbc21904bdc66b17acfa60f9ba1f49889a1ae",
    "trace 3.4":
        "9c7139170411e61551fec22358e363456bffee78b080a5cfe5f4308461923234",
    "trace 3.5":
        "2cc0245e1263d7419d03d41682fc44893e43ff7bf501cffd69d31bf70b51eecf",
    "trace 3.6":
        "ceb077f459179da8e8344708a64cc950ec0f17e9f3dfe1e08b07fc50497c6f99",
    "trace 3.7":
        "a1b4a302f16d16f6a5a1d532f02d467211b6be76828e3a7385dfeaaf19d5725e",
    "trace 3.8":
        "db10c3bd5b06432af0172b786b92f1a720c068672ccd71b0de23a24e8ca14633",
}


@pytest.mark.parametrize("args", list(_PINNED_JSON))
def test_json_output_bytes_pinned(args, capsys):
    main(["--format", "json", *args.split()])
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _PINNED_JSON[args]
