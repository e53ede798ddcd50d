"""Command-line interface behaviour and report determinism."""

import json

import pytest

from phbochner.cli import main


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
    assert main(["verify", "7.7"]) == 2


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
], ids=["infinite-field", "nan-field", "string-field", "long-pair",
        "value-overflow", "k-overflow", "not-a-record", "empty-array",
        "not-json", "k-divides-by-zero", "k-not-a-number", "k-negative",
        "samples-negative", "samples-zero", "samples-zero-verify",
        "eps-negative"])
def test_input_error_exits_2(capsys, tmp_path, content, args, names):
    path = tmp_path / "points.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([a.format(path) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("phbochner: error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err


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


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PHB_SEED", "123")
    assert main(["--format", "json", "--samples", "1000", "equiv"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 123


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
    assert main(["ops", "nope"]) == 2


def test_verify_all_smoke(capsys):
    assert main(["--samples", "5000", "verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 12
