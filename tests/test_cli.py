"""Command-line interface behaviour and report determinism."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_verify_decides_each_id_once(capsys):
    # in the order first given
    assert main(["--format", "json", "verify", "3.2", "2.3", "3.2"]) == 0
    ids = [r["id"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert ids == ["3.2", "2.3"]
    assert main(["--format", "json", "verify", "2.ibp", "2.ibp",
                 "--mutate"]) == 0
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert result["id"] == "2.ibp" and result["killed"] == result["mutants"]


def test_verify_mutate(capsys):
    assert main(["verify", "2.ibp", "--mutate"]) == 0
    out = capsys.readouterr().out
    assert "killed" in out


# catalog fields changed so that the identity no longer holds: a 3.6 term
# that vanishes at every point of the 3 x 3 grid {0, 1, 2}^2 and at
# lam = rho = 1/4, and the first coefficient of 3.5 bumped by +1
_TAMPERED = {
    "3.6": ("rhs", lambda text: text + " + INT[ (LAM*LAM*LAM - 3*LAM*LAM"
            " + 2*LAM)*(4*RHO - 1)*R*E11*Eb1b1 ]"),
    "3.5": ("integrand", lambda text: text.replace(
        "(2/3)*E11_{b1}*Eb1b1_{1b}", "(5/3)*E11_{b1}*Eb1b1_{1b}", 1)),
}


@pytest.mark.parametrize("ident", list(_TAMPERED))
def test_failed_identity_exits_1(ident, capsys, monkeypatch):
    from phbochner.parser import Corpus

    record = Corpus.load().records[ident]
    fld, tamper = _TAMPERED[ident]
    original = record[fld]
    monkeypatch.setitem(record, fld, tamper(original))
    assert record[fld] != original
    assert main(["--format", "json", "verify", ident]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    (result,) = report["results"]
    assert result["status"] == "FAIL" and result["residual"] not in (None, "0")
    assert main(["trace", ident]) == 1
    assert capsys.readouterr().out.startswith(f"[{ident}] FAIL\n")


def _drop_bracket(records, monkeypatch):
    # the 2.8 integral INT[ 2*A11*Ab1b1*f*f ] loses its closing bracket
    text = records["2.8"]["integrals"]
    broken = text.replace("Ab1b1*f*f ] +", "Ab1b1*f*f +", 1)
    assert broken != text
    monkeypatch.setitem(records["2.8"], "integrals", broken)


_BROKEN_2_8 = ("phbochner: error: catalog [2.8] integrals: cannot add a plain "
               "sum and an integral (at position 89)\n")


# a catalog that cannot be read is an input error, not a failed proof
@pytest.mark.parametrize("tamper, args, err", [
    (_drop_bracket, ["verify", "2.8"], _BROKEN_2_8),
    (_drop_bracket, ["trace", "2.11"], _BROKEN_2_8),
    (_drop_bracket, ["verify", "all", "--mutate"], _BROKEN_2_8),
    (lambda records, mp: mp.setitem(records, "3.2x", records.pop("3.2")),
     ["verify", "3.4"], "phbochner: error: catalog [3.2] lhs: missing\n"),
    (lambda records, mp: mp.delitem(records["3.1"], "rhs"),
     ["ops", "DQJ_rhs"], "phbochner: error: catalog [3.1] rhs: missing\n"),
], ids=["verify-bracket", "trace-bracket", "mutate-bracket", "renamed-record",
        "missing-field"])
def test_unreadable_catalog_exits_2(tamper, args, err, capsys, monkeypatch):
    from phbochner.parser import Corpus

    records = Corpus.load().records
    monkeypatch.setattr(Corpus.load(), "records", dict(records))
    tamper(Corpus.load().records, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


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


def test_check_repeated_cond_evaluates_once(capsys, torsion_file,
                                            monkeypatch):
    # each --cond name is listed and evaluated once, in first-given order
    from phbochner import rigidity

    evaluated = []
    evaluate = rigidity._evaluate

    def spy(s, x, rows):
        rows = list(rows)
        evaluated.append(len(rows))
        return evaluate(s, x, rows)

    monkeypatch.setattr(rigidity, "_evaluate", spy)
    outs = []
    for conds in (["3.11", "thm-b", "3.11", "thm-b"], ["3.11", "thm-b"]):
        argv = ["--format", "json", "check", torsion_file]
        for cond in conds:
            argv += ["--cond", cond]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["conditions"] == ["3.11", "thm-b"]
    assert evaluated == [2, 2]


def test_check_thm_b_needs_no_lu_minors(capsys, torsion_file, monkeypatch):
    # `check` reports the kernel's closed-form minors; the stacked float
    # forms and their LU minors serve only the `equiv` oracle
    from phbochner import rigidity

    def unused(*args):
        raise AssertionError("check reached the LU minors")

    monkeypatch.setattr(rigidity, "_stacked_forms", unused)
    monkeypatch.setattr(rigidity, "_stacked_minors", unused)
    assert main(["--format", "json", "check", torsion_file,
                 "--cond", "thm-b"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["points"][0]["minors"]["form_5"]) == 5


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


def test_check_strict_verdicts_at_exact_zero(capsys, tmp_path):
    # a value of exactly 0 fails every strict inequality
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([{"id": "z", "R": 0.0}]))
    assert main(["--format", "json", "check", str(path), "--cond", "thm-b",
                 "--cond", "corollaryC", "--cond", "3.11",
                 "--cond", "3.12"]) == 1
    point = json.loads(capsys.readouterr().out)["points"][0]
    assert point["values"] == {"3.11": 0.0, "3.12": 0.0, "corollaryC": 0.0}
    assert point["verdicts"] == {"3.11": False, "3.12": False,
                                 "corollaryC": False, "thm_b": False}


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
    # finite values whose M, and so whose band, overflows
    ('[{"id": "t", "R": -1.0, "R0": 1.0e308, "A11_bb": [0.0, 0.5e308]}]',
     ["check", "{}", "--cond", "thm-a"], ["'t'", "overflow"]),
    ('[{"id": "big", "R": 1.0, "R0": 1.7e308, "A11_bb": [0.5e308, 0.0]}]',
     ["check", "{}", "--cond", "bianchi"], ["'big'", "overflow"]),
    # values whose digits underflow at k = 1
    ('[{"id": "u", "R": 1e-200}]', ["check", "{}", "--cond", "thm-b"],
     ["'u'", "underflow"]),
    ('[{"id": "u", "R": 1e-200}]', ["scaletest", "{}"], ["'u'", "underflow"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "1e-200"], ["'p0'", "1e-200"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "1e100"],
     ["'p0'", "underflow", "1e+100"]),
    ("[5]", ["check", "{}", "--cond", "thm-b"], []),
    ("[]", ["check", "{}", "--cond", "thm-b"], []),
    ("not json", ["check", "{}", "--cond", "thm-b"], []),
    (ONE_POINT, ["scaletest", "{}", "--k", "1/0"], ["1/0"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "abc"], ["abc"]),
    (ONE_POINT, ["scaletest", "{}", "--k", "1/2,-3"], ["-3"]),
    (ONE_POINT, ["--samples", "-3", "equiv"], ["--samples"]),
    (ONE_POINT, ["--samples", "0", "equiv"], ["--samples"]),
    (ONE_POINT, ["--samples", "0", "verify", "3.7"], ["--samples"]),
    # far above `cli.MAX_SAMPLES`, and above what numpy can allocate
    (ONE_POINT, ["--samples", "100000000000000000000000", "equiv"],
     ["--samples"]),
    (ONE_POINT, ["--samples", "100000000000000000000000", "sylvester"],
     ["--samples"]),
    # the verdict bands are fixed: `--eps` is no option
    (ONE_POINT, ["--eps=1e-12", "check", "{}", "--cond", "thm-b"],
     ["--eps"]),
    (ONE_POINT, ["--eps", "0", "ops"], ["--eps"]),
    (ONE_POINT, ["--seed", "-5", "--samples", "100", "sylvester"],
     ["--seed", "-5"]),
    (ONE_POINT, ["--seed", "-5", "--samples", "100", "verify", "3.7"],
     ["--seed", "-5"]),
    (ONE_POINT, ["verify", "9.9"], ["9.9"]),
    (ONE_POINT, ["verify", "all", "2.3"], ["'all'", "alone"]),
    (ONE_POINT, ["verify", "2.3", "all", "--mutate"], ["'all'", "alone"]),
    (ONE_POINT, ["trace", "9.9"], ["9.9"]),
    (ONE_POINT, ["ops", "nosuch"], ["'nosuch'"]),
    (ONE_POINT, ["check", "{}", "--cond", "nosuch"], ["'nosuch'", "thm-b"]),
    # argparse's own errors
    (ONE_POINT, [], ["command"]),
    (ONE_POINT, ["bogus"], ["'bogus'"]),
    (ONE_POINT, ["verify"], ["ids"]),
    (ONE_POINT, ["check", "{}"], ["--cond"]),
    (ONE_POINT, ["--format", "xml", "ops"], ["'xml'"]),
    (ONE_POINT, ["--samples", "x", "equiv"], ["--samples", "'x'"]),
    (ONE_POINT, ["trace", "2.3", "extra"], ["extra"]),
    (ONE_POINT, ["verify", "2.3", "a\nb"], ["a\\nb"]),
    ("[" * 100000 + "]" * 100000, ["check", "{}", "--cond", "thm-b"],
     ["recursion"]),
], ids=["infinite-field", "nan-field", "string-field", "long-pair",
        "value-overflow", "band-overflow-thm-a", "band-overflow-bianchi",
        "value-underflow-check", "value-underflow-scaletest",
        "k-overflow", "k-underflow", "not-a-record", "empty-array",
        "not-json", "k-divides-by-zero", "k-not-a-number", "k-negative",
        "samples-negative", "samples-zero", "samples-zero-verify",
        "samples-huge-equiv", "samples-huge-sylvester",
        "eps-removed", "eps-removed-ops", "seed-negative", "seed-negative-verify",
        "verify-unknown-id", "verify-all-and-id", "verify-id-and-all",
        "trace-unknown-id", "ops-unknown-name", "cond-unknown-name",
        "no-command", "unknown-command", "verify-no-ids", "check-no-cond",
        "format-unknown", "samples-not-a-number",
        "trace-extra-argument", "newline-in-id", "nested-file"])
def test_input_error_exits_2(capsys, tmp_path, content, args, names):
    path = tmp_path / "points.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([a.format(path) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("phbochner: error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]])
def test_help_exits_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: phbochner") and err == ""


def test_torsion_free_is_scale_invariant(capsys, tmp_path):
    # torsion 1e-13 is torsion, whatever its size: corollaryC, defined only
    # where A = 0, rejects the point and its image under theta -> theta/100
    outs = []
    for R, lap_r, a11 in ((1, 0.5, 1e-13), (100, 5000, 1e-11)):
        path = tmp_path / f"p{R}.json"
        path.write_text(json.dumps(
            [{"id": "p", "R": R, "lapR": lap_r, "A11": [a11, 0]}]))
        assert main(["check", str(path), "--cond", "corollaryC"]) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "A = 0" in outs[0]


# x carries torsion, so it reports no corollaryC value: its value, which
# underflows in the first file and overflows in the second, refuses nothing
UNREPORTED_UNDERFLOW = ('[{"id": "x", "R": 1e-200, "A11": [1.0, 0.0]}, '
                        '{"id": "y", "R": 1.0}]')
UNREPORTED_OVERFLOW = '[{"id": "x", "R": 1e200, "A11": 1.0}]'
TORSION_ERROR = "the torsion-free condition requires A = 0 input"
X_REPORT = {"id": "x", "values": {}, "verdicts": {}, "minors": {},
            "passed": {"corollaryC": False}, "errors": [TORSION_ERROR]}
Y_REPORT = {"id": "y", "values": {"corollaryC": 20.0},
            "verdicts": {"corollaryC": True}, "minors": {},
            "passed": {"corollaryC": True}, "errors": []}


@pytest.mark.parametrize("content, reports", [
    (UNREPORTED_UNDERFLOW, [X_REPORT, Y_REPORT]),
    (UNREPORTED_OVERFLOW, [X_REPORT]),
], ids=["underflow", "overflow"])
def test_check_refuses_no_value_a_point_does_not_report(capsys, tmp_path,
                                                        content, reports):
    path = tmp_path / "points.json"
    path.write_text(content)
    args = ["check", str(path), "--cond", "corollaryC"]
    assert main(["--format", "json", *args]) == 1
    assert json.loads(capsys.readouterr().out)["points"] == reports
    assert main(args) == 1
    out = capsys.readouterr().out
    assert out.count(TORSION_ERROR) == 1
    assert ("corollaryC: 20.0" in out) == (len(reports) == 2)


def test_scaletest_refuses_no_value_a_point_does_not_report(capsys,
                                                            tmp_path):
    path = tmp_path / "points.json"
    path.write_text(UNREPORTED_UNDERFLOW)
    ks = [1 / 7, 1 / 2, 3.0, 100.0]
    assert main(["--format", "json", "scaletest", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["k"] == ks
    for point, keys in zip(report["points"], (
            {"thm_a", "3.11", "3.12"},
            {"thm_a", "3.11", "3.12", "corollaryC"})):
        assert point["ok"] and [row["k"] for row in point["rows"]] == ks
        assert all(row["verdicts_invariant"] and set(row["errors"]) == keys
                   for row in point["rows"])
    assert [point["id"] for point in report["points"]] == ["x", "y"]
    assert main(["scaletest", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("corollaryC") == len(ks) and "ok: False" not in out
    # the overflow file's x reports its 3.11 and 3.12 values, which overflow
    path.write_text(UNREPORTED_OVERFLOW)
    with pytest.raises(SystemExit) as exc:
        main(["scaletest", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "point 'x': values overflow double precision\n")


EXTREMES = (0.0, 5e-324, 1e-200, 1e-154, 1e154, 1e200, 1.7e308)
TORSION = ("A11", "A11_1", "A11_b", "A11_bb")


def _extreme_record(rng: random.Random, k: int, torsion: bool) -> dict:
    """A point record, each field but R present with chance 1/4, and the
    torsion fields only if `torsion`; a value is 1 or one of `EXTREMES`,
    with chance 1/2 each, and either sign."""
    def value():
        size = 1.0 if rng.random() < 0.5 else rng.choice(EXTREMES)
        return rng.choice((1.0, -1.0)) * size

    record = {"id": f"p{k}", "R": value()}
    for name in ("R0", "R1", "lapR", *TORSION):
        if (torsion or name not in TORSION) and rng.random() < 0.25:
            complex_field = name == "R1" or name in TORSION
            record[name] = [value(), value()] if complex_field else value()
    return record


def test_check_and_scaletest_refuse_by_one_rule(capsys, tmp_path):
    # `scaletest --k 1` judges the rows `check` runs here, at k = 1 twice:
    # a file refused by one is refused by the other, with the same line
    rng = random.Random(5)
    path = tmp_path / "points.json"
    check = ["check", str(path), "--cond", "thm-a", "--cond", "thm-b",
             "--cond", "corollaryC", "--cond", "3.11", "--cond", "3.12"]
    refused = 0
    for _ in range(100):
        path.write_text(json.dumps(
            [_extreme_record(rng, k, rng.random() < 0.5)
             for k in range(rng.randint(1, 3))]))
        errors = []
        for args in (check, ["scaletest", str(path), "--k", "1"]):
            try:
                assert main(args) in (0, 1)
                errors.append(None)
            except SystemExit as exc:
                assert exc.code == 2
                errors.append(capsys.readouterr().err)
            capsys.readouterr()
        assert errors[0] == errors[1], path.read_text()
        refused += errors[0] is not None
    assert 10 <= refused <= 90


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
        "5fa0dbf4b3d10fa0f700c71612af2a23202c252e7781072ab303c4203da6cc37",
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
        "5a91e05d4965cae28077f66d5cd122ad598cea6fb797e5c17d50e37731f9c752",
    "trace 3.5":
        "f1d0684b320d67753779b3d9e7ae1ff3e2636afc7dd39b70b9ab5c625590c4e1",
    "trace 3.6":
        "f53cbe058565b50fde8647ccac535a6214e29f1fd54a5ad1548ea088c63d1160",
    "trace 3.7":
        "a1b4a302f16d16f6a5a1d532f02d467211b6be76828e3a7385dfeaaf19d5725e",
    "trace 3.8":
        "db10c3bd5b06432af0172b786b92f1a720c068672ccd71b0de23a24e8ca14633",
    "ops":
        "5f87c205b62c6a5eccedfa75479c893d3948f51ef404910c858fc5ae3313f063",
    "ops DJ":
        "a4f54bff4472b2c8e63102bb49bceef4eccd4b7780c59e931ca7223ee5ca6df8",
    "ops DJstar":
        "037073124e71e6b89f4828191e81788a3faf128a20b58a07ff74e57e431a2c76",
    "ops DQJ_rhs":
        "9f6284191b326440aa9a3fc3680217595fdf8f1304253057bdfbc17caf7ea8eb",
    "ops L[4+i*s3]":
        "f56dbfc29f3a427c8c501c3ab9328a86e957991ec20bdb607e761285e11a43fd",
    "ops L[i*s3]":
        "6eb336432eb868831ff7728e730623c185ec90cfe80a6396d83698796b60529e",
    "ops Q11":
        "ab5c1b77ac814c0e6356ba1e6a4f7428f39845b029f883fe8d0308d85c528ee9",
    "ops gradsq_b":
        "55e338fac0c7f6dac397fe9ef9d50eb2aa72711d08bb40b149286007950cfb15",
    "ops lap_b":
        "50245c2e57fab9cf97eef02e15594d65a8f9df3fae9a367f1b9cd98bf00780c4",
}


@pytest.mark.parametrize("args", list(_PINNED_JSON))
def test_json_output_bytes_pinned(args, capsys):
    main(["--format", "json", *args.split()])
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _PINNED_JSON[args]


# sha256 of the `--format text` stdout of the symbolic reports; any change
# to these bytes must be intended and listed in CHANGES.md
_PINNED_TEXT = {
    "verify all":
        "452d14226866d0f81cf925ff84a3cd3993d967aa68b829142b7116bb932ca250",
    "verify all --mutate":
        "2e1ed4c282b11fc5fa66ada9286c26c39798a9fb6e683d3fbcabd465b319e601",
    "trace 2.3":
        "35a7473b43186593fd94aa4766c16794de9c042c4d7d1e311c6005bf533c40a9",
    "trace 2.7":
        "841fc30cf3532ad8f157d09bb7846855f39cfa696a0e7da55d788b74f16f3c77",
    "trace 2.8":
        "3973aea1b45c45905950791c7de7a581a61338e04b870d0912c9d5b975ed0db2",
    "trace 2.ibp":
        "f74e7afaf1167f89593072f337706c106cc489947b74bc3122f95d9c2c427841",
    "trace 2.11":
        "51b7ae40a596710a8f85b591739a8777e57105dcfe3eae12399fd76db2b1e65f",
    "trace 3.2":
        "485e3abe54adef1fa84863770b11245005161694728bc777544af1e105c5433a",
    "trace 3.3":
        "62053d54fa0730cdfbdbd93f271151382a3ff7d0330f39b115ed1fa97e8fc960",
    "trace 3.4":
        "48de13c31f12c9a0157e00827b8d7b7a343a8877dcbe3adfab72511b69d0aaa5",
    "trace 3.5":
        "17846221e356b5eb65b2360c83d8ac07f78ce280873db60a0ceb1314b171bf10",
    "trace 3.6":
        "5057345610b4e636aebd00626a4d6b9b32fb98b7b1decf4a3e9c28c0d8da3761",
    "trace 3.7":
        "687bfc0605c0eefe34fea907838dd1fe0a6a7ad627c996241e310faf6232ee0b",
    "trace 3.8":
        "004ca97ea8d6c5f79d52a7e96aa03fb3d4ee73a1ce8fbabf1a35d03233dd39c9",
}


@pytest.mark.parametrize("args", list(_PINNED_TEXT))
def test_text_output_bytes_pinned(args, capsys):
    main(["--format", "text", *args.split()])
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _PINNED_TEXT[args]


def test_completed_run_freezes_the_collected_objects(capsys):
    # the process exits after `main`, so its objects are kept out of the
    # interpreter's last garbage collection
    gc.unfreeze()
    try:
        assert main(["ops"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    capsys.readouterr()


def test_pinned_outputs_independent_of_command_order(capsys):
    """The engine's per-process caches are shared by every command of a
    process: from cold caches, the pinned commands in reverse order
    (traces before `verify all --mutate`, that before `verify all`) keep
    their pins."""
    from test_identities import _clear_ibp_caches

    _clear_ibp_caches()
    for args in reversed(list(_PINNED_JSON)):
        main(["--format", "json", *args.split()])
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == _PINNED_JSON[args], args


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(indent=2, sort_keys=True, default=str) bytes
# ---------------------------------------------------------------------------

class _Opaque:
    """A leaf that only `default=str` can print."""

    def __str__(self):
        return 'opaque "leaf"\n'


def _trees():
    st = pytest.importorskip("hypothesis").strategies
    text = st.text(max_size=6) | st.sampled_from(
        ['"', "\\", "\x00\x1f\n\t", "é€\U0001f600", "\ud800"])
    leaves = (st.none() | st.booleans() | st.integers()
              | st.sampled_from([2 ** 64, -(2 ** 64) - 1, 3 ** 200])
              | st.floats() | st.sampled_from([-0.0, float("nan")])
              | text | st.just(_Opaque()))
    # the keys of one dict are of one kind that sort_keys can order
    numbers = st.integers() | st.floats(allow_nan=False) | st.booleans()
    return st.recursive(leaves, lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(text, kids, max_size=4)
        | st.dictionaries(numbers, kids, max_size=3)
        | st.dictionaries(st.none(), kids)), max_leaves=12)


def test_json_writer_matches_json_dumps():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(_trees())
    def check(obj):
        out = []
        cli._json_into(obj, 0, out)
        assert "".join(out) == json.dumps(obj, indent=2, sort_keys=True,
                                          default=str)
    check()


def test_json_writer_refuses_keys_json_refuses():
    for obj in ({(1, 2): [1]}, {_Opaque(): {}}):
        with pytest.raises(TypeError):
            json.dumps(obj, default=str)
        with pytest.raises(TypeError):
            cli._json_into(obj, 0, [])


# ---------------------------------------------------------------------------
# the point loader: the first bad record in file order, today's messages
# ---------------------------------------------------------------------------

_GOOD = [{"id": f"g{k}", "R": 1.0 + k, "R1": [0.5, -0.25],
          "A11": [0.0, 0.0]} for k in range(3)]


@pytest.mark.parametrize("bad, message", [
    ({"id": "b", "R": 1.0, "R0": True},
     "point 'b': field 'R0' is not a finite number: True"),
    ({"id": "b", "R": 1.0, "A11": [True, 0.0]},
     "point 'b': field 'A11' is not a finite number: [True, 0.0]"),
    ({"id": "b", "R": 10 ** 400},
     f"point 'b': field 'R' is not a finite number: {10 ** 400!r}"),
    ({"id": "b", "R": 1.0, "R1": [1, 2, 3]},
     "point 'b': field 'R1' is not a finite number: [1, 2, 3]"),
    ({"id": "b", "R": 1.0, "A11_b": [[1, 2], 3]},
     "point 'b': field 'A11_b' is not a finite number: [[1, 2], 3]"),
    ({"id": "b", "R": 1.0, "lapR": "2.0"},
     "point 'b': field 'lapR' is not a finite number: '2.0'"),
    ({"id": "b", "R": 1.0, "R0": [1.0, 0.0]},
     "point 'b': field 'R0' is not a finite number: [1.0, 0.0]"),
    ([1.0], "point record is not an object with the field 'R': [1.0]"),
    ({"id": "b", "R0": 1.0},
     "point record is not an object with the field 'R': "
     "{'id': 'b', 'R0': 1.0}"),
    # within a record, real fields are read before complex ones
    ({"id": 3, "R": 1.0, "A11": "x", "lapR": None},
     "point '3': field 'lapR' is not a finite number: None"),
    # a misspelt field is no field that defaults to 0
    ({"id": "t", "R": 1.0, "a11": [0.5, 0.0]},
     "point 't': unknown field 'a11'"),
    # within a record, an unknown key is named before a bad value
    ({"id": "b", "R": "x", "lapR": None, "Z": 1, "Y": 2},
     "point 'b': unknown field 'Z'"),
], ids=["bool", "bool-part", "int-overflow", "long-pair", "nested-pair",
        "string", "pair-for-real", "not-an-object", "no-R", "read-order",
        "unknown-field", "unknown-before-bad"])
def test_load_points_names_the_bad_record(bad, message, capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(_GOOD + [bad] + _GOOD))
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path), "--cond", "thm-b"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"phbochner: error: {path}: {message}\n"


@pytest.mark.parametrize("records, named", [
    # the bad R of the later record is read first, but the earlier is named
    ([{"id": "first", "R": 1.0, "A11_bb": "x"}, {"id": "second", "R": None}],
     "'first'"),
    ([{"id": "first", "R": 1.0, "lapR": True}, 7], "'first'"),
    ([7, {"id": "second", "R": "x"}], ": 7"),
    ([{"id": "first", "R": 1.0, "R0": "x"}, {"id": "second", "R": 1.0,
                                              "r0": 0.0}], "'first'"),
    ([{"id": "first", "R": 1.0, "r0": 0.0}, {"id": "second", "R": "x"}],
     "'first'"),
])
def test_load_points_names_the_first_bad_record(records, named, capsys,
                                                tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(_GOOD + records))
    with pytest.raises(SystemExit):
        main(["scaletest", str(path)])
    err = capsys.readouterr().err
    assert named in err and "second" not in err


def test_point_ids_are_json_text(capsys, tmp_path):
    """A non-string id is written as its JSON text, not as Python's."""
    from phbochner.rigidity import PointData
    records = [{"id": pid, "R": 1.0}
               for pid in ("s", None, True, 3, 2.5, [1, "a"], {"k": None})]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(records))
    assert main(["--format", "json", "check", str(path), "--cond",
                 "bianchi"]) == 0
    ids = [p["id"] for p in json.loads(capsys.readouterr().out)["points"]]
    assert ids == ["s", "null", "true", "3", "2.5", '[1, "a"]',
                   '{"k": null}']
    assert [PointData.from_mapping(rec).id for rec in records] == ids


def test_load_points_keeps_signed_zeros(tmp_path):
    from phbochner.rigidity import PointData
    records = [{"id": "a", "R": -0.0, "A11": [-0.0, 1.0]},
               {"id": "b", "R": 1, "A11": [-0.0, -0.0], "R1": 2}]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(records))
    columns = cli._load_points(str(path))
    assert columns["id"] == ["a", "b"]
    assert list(np.signbit(columns["R"])) == [True, False]
    assert list(np.signbit(columns["A11"].real)) == [True, True]
    assert list(np.signbit(columns["A11"].imag)) == [False, True]
    assert columns["R1"].tolist() == [0j, 2 + 0j]
    # one record at a time, through the same validator
    for k, rec in enumerate(records):
        p = PointData.from_mapping(rec)
        assert [getattr(p, name) for name in ("R", "A11", "R1")] == [
            columns[name][k] for name in ("R", "A11", "R1")]
        assert np.signbit(p.A11.real) and np.signbit(p.R) == (k == 0)


# ---------------------------------------------------------------------------
# fuzzing: argv from a small token set, on malformed point files
# ---------------------------------------------------------------------------

# global flags with good or bad values, a command with its arguments, then a
# few more tokens
_FLAG_VALUES = {"--format": ["text", "json", "xml"],
                "--seed": ["0", "3", "-1", "x"],
                "--samples": ["3", "0", "x", "10" * 12]}
_COMMAND_HEADS = [[], ["bogus"], ["verify"], ["verify", "all"],
                  ["verify", "3.7", "--mutate"], ["verify", "9.9"],
                  ["trace"], ["trace", "2.3"], ["ops"], ["ops", "Q11"],
                  ["equiv"], ["sylvester"], ["check", "{points}"],
                  ["check", "{points}", "--cond", "thm-b"],
                  ["check", "{points}", "--cond", "corollaryC"],
                  ["check", "{points}", "--cond", "nosuch"],
                  ["scaletest", "{points}"], ["scaletest", "/nonexistent"]]
_TOKENS = ["--cond", "bianchi", "--k", "1/2,3", "1/0", "-1", "x", "--mutate",
           "--help", "--", "{points}", "--format", "a\nb"]


def _argv():
    """Half of the argv: flags, a command head and tokens; the other half: a
    valid `check` or `scaletest` on the point file."""
    st = pytest.importorskip("hypothesis").strategies
    flag = st.sampled_from(list(_FLAG_VALUES)).flatmap(
        lambda name: st.tuples(st.just(name),
                               st.sampled_from(_FLAG_VALUES[name])))
    tokens = st.builds(
        lambda flags, head, tail: [t for pair in flags for t in pair]
        + head + tail,
        st.lists(flag, max_size=2), st.sampled_from(_COMMAND_HEADS),
        st.lists(st.sampled_from(_TOKENS), max_size=2))
    on_points = st.builds(
        lambda fmt, command: fmt + command,
        st.sampled_from([[], ["--format", "json"]]),
        st.sampled_from([["check", "{points}", "--cond", cond] for cond in (
            "thm-a", "thm-b", "corollaryC", "3.11", "3.12", "bianchi")]
            + [["scaletest", "{points}"],
               ["scaletest", "{points}", "--k", "1/100"]]))
    return tokens | on_points


def _point_texts():
    st = pytest.importorskip("hypothesis").strategies
    good = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.3, 1e-13])
    bad = st.sampled_from([1e200, 1e308, 10 ** 400, float("nan"),
                           float("inf"), -float("inf"), True, None, "1.0",
                           {}])
    number = good | bad
    value = number | st.lists(number, max_size=3)
    record = st.fixed_dictionaries(
        {"id": st.sampled_from(["p", 3, None]), "R": number},
        optional={name: value for name in ("R0", "R1", "lapR", "A11",
                                           "A11_1", "A11_b", "A11_bb")})
    records = st.lists(record | st.dictionaries(st.just("id"), value)
                       | number, min_size=1, max_size=4)
    nested = st.sampled_from([3, 200, 100000]).map(
        lambda d: "[" * d + "]" * d)
    return (records.map(json.dumps) | nested
            | nested.map(lambda v: f'[{{"id": "n", "R": {v}}}]')
            | st.sampled_from(["", "[]", "not json", "{}", "[1, 2"]))


def test_fuzzed_argv_exits_0_1_or_2(capsys, tmp_path):
    """Every run exits 0, 1 or 2, raises nothing else, and on exit 2 prints
    exactly one `phbochner: error:` line."""
    hyp = pytest.importorskip("hypothesis")
    path = tmp_path / "points.json"

    @hyp.settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(_argv(), _point_texts())
    def check(args, content):
        path.write_text(content)
        # a small battery: a later --samples in args overrides it
        argv = ["--samples", "7"] + [a.format(points=path) for a in args]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("phbochner: error: "), argv
            assert err.count("\n") == 1, argv
        else:
            assert err == "", argv
    check()
