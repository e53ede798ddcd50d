"""The shape of a `check` report: keys and their order, booleans, errors and
values of every condition on three hand-made points, in text and JSON."""

import json

import pytest

from phbochner.cli import main

POINTS = [
    # torsion-free, passes corollaryC
    {"id": "tf", "R": 1.0, "R1": [0.25, -0.5], "lapR": 0.5},
    # with torsion: corollaryC is an input error
    {"id": "tor", "R": 2.0, "R0": 0.06, "R1": [0.1, -0.2], "lapR": 0.4,
     "A11": [0.05, 0.02], "A11_1": [0.01, 0.03], "A11_b": [0.0, 0.01],
     "A11_bb": [0.03, 0.01]},
    # torsion-free with R < 0: corollaryC rejects it, thm-a is borderline
    {"id": "neg", "R": -1.0, "R1": [0.5, 0.0]},
]

CONDITIONS = ["thm-a", "thm-b", "corollaryC", "3.11", "3.12", "bianchi"]

_TOP = [0.6041666666666666, 0.20833333333333334]

# the report in the order the text output prints it
EXPECTED = {
    "command": "check",
    "conditions": CONDITIONS,
    "points": [
        {"id": "tf",
         "values": {"thm_a": 0.0, "3.11": 0.375, "3.12": 0.01716317070855035,
                    "corollaryC": 24.125, "bianchi_residual": 0.0},
         "verdicts": {"thm_a": False, "thm_a_borderline": False,
                      "thm_b": True, "corollaryC": True, "3.11": True,
                      "3.12": True, "bianchi": True},
         "minors": {"form_4": _TOP + [0.06944444444444445,
                                      0.008680555555555556],
                    "form_5": _TOP + [0.06944444444444445,
                                      0.008680555555555556,
                                      0.0019070189676167054]},
         "passed": {"thm-a": False, "thm-b": True, "corollaryC": True,
                    "3.11": True, "3.12": True, "bianchi": True},
         "errors": []},
        {"id": "tor",
         "values": {"thm_a": 0.08392304845413262, "3.11": 1.0275,
                    "3.12": 0.10902916341145835, "bianchi_residual": 0.0},
         "verdicts": {"thm_a": False, "thm_a_borderline": False,
                      "thm_b": True, "3.11": True, "3.12": True,
                      "bianchi": True},
         "minors": {"form_4": _TOP + [0.1388888888888889,
                                      0.023784722222222224],
                    "form_5": _TOP + [0.1388888888888889,
                                      0.023784722222222224,
                                      0.012114351490162038]},
         "passed": {"thm-a": False, "thm-b": True, "corollaryC": False,
                    "3.11": True, "3.12": True, "bianchi": True},
         "errors": ["the torsion-free condition requires A = 0 input"]},
        {"id": "neg",
         "values": {"thm_a": 0.0, "3.11": 0.375,
                    "3.12": 0.009641859266493054, "corollaryC": -21.5,
                    "bianchi_residual": 0.0},
         "verdicts": {"thm_a": False, "thm_a_borderline": True,
                      "thm_b": False, "corollaryC": False, "3.11": True,
                      "3.12": True, "bianchi": True},
         "minors": {"form_4": _TOP + [-0.06944444444444445,
                                      0.008680555555555556],
                    "form_5": _TOP + [-0.06944444444444445,
                                      0.008680555555555556,
                                      0.001071317696277006]},
         "passed": {"thm-a": True, "thm-b": False, "corollaryC": False,
                    "3.11": True, "3.12": True, "bianchi": True},
         "errors": []},
    ],
    "n_points": 3,
    "ok": False,
}


def _from_text(lines: list[str]):
    """The nested value the text format printed, with its leaves as text:
    "key: v" and "key:" are dict entries, "- v" and "-" list items, nested
    by two spaces.  An empty container prints as a bare "key:" and reads
    back as None."""
    pos = 0

    def block(indent):
        nonlocal pos
        out = None
        while pos < len(lines) and len(lines[pos]) - len(
                lines[pos].lstrip(" ")) == indent:
            line = lines[pos][indent:]
            pos += 1
            if line.startswith("-"):
                out = [] if out is None else out
                out.append(block(indent + 2) if line == "-" else line[2:])
            else:
                key, _, value = line.partition(":")
                out = {} if out is None else out
                out[key] = block(indent + 2) if not value else value[1:]
        return out

    value = block(0)
    assert pos == len(lines), lines[pos:]
    return value


def _assert_same(actual, expected, text: bool, where="report"):
    """Keys in print order for text and sorted for JSON; floats to rel
    1e-14; every other leaf exactly, its JSON type included."""
    if isinstance(expected, (dict, list)):
        if text and not expected and actual is None:
            return
        assert type(actual) is type(expected), where
        assert len(actual) == len(expected), where
        if isinstance(expected, dict):
            assert list(actual) == (list(expected) if text
                                    else sorted(expected)), where
            pairs = [(actual[key], expected[key], key) for key in expected]
        else:
            pairs = [(a, e, i) for i, (a, e) in
                     enumerate(zip(actual, expected))]
        for a, e, key in pairs:
            _assert_same(a, e, text, f"{where}[{key!r}]")
    elif isinstance(expected, float):
        value = float(actual) if text else actual
        assert type(value) is float, where
        assert value == pytest.approx(expected, rel=1e-14, abs=0), where
    elif text:
        assert actual == str(expected), where
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_report_shape(fmt, capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(POINTS))
    args = ["--format", fmt, "check", str(path)]
    for name in CONDITIONS:
        args += ["--cond", name]
    assert main(args) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        _assert_same(json.loads(out), EXPECTED, text=False)
    else:
        _assert_same(_from_text(out.splitlines()), EXPECTED, text=True)
