"""Byte pins of the float commands' stdout on a seeded point file.

The file is built here: 1,000 seeded points, a tenth of them torsion-free,
and a few hand-made records (signed zeros, int values, a complex field given
as a real number, the exact-zero thm-a borderline, ids that are not strings
or are missing).  Each pin is the sha256 of stdout, in both formats, with the
exit status.  Any change to these bytes must be intended and listed in
CHANGES.md.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from phbochner import rigidity as rg
from phbochner.cli import main
from phbochner.kernel import thm_b_minors

_TORSION = ("A11", "A11_1", "A11_b", "A11_bb")

# (record, whether it is torsion-free)
_HAND_MADE = [
    ({"id": "signed-zero", "R": -0.0, "R0": -0.0, "R1": [-0.0, 1.0],
      "lapR": -0.0, "A11": [-0.0, -0.0], "A11_1": [0.5, -0.0],
      "A11_b": [-0.0, 0.25], "A11_bb": [-0.0, -0.5]}, False),
    ({"id": "ints", "R": 2, "R0": -1, "R1": [1, 0], "lapR": 3, "A11": 1,
      "A11_1": [0, 1], "A11_b": [2, -1], "A11_bb": [0, 2]}, False),
    ({"id": "borderline", "R": -1.0}, True),
    ({"id": "borderline-zeros", "R": -2.0, "R0": 0.0, "R1": [0.5, -0.25],
      "lapR": 1.0, "A11": [0.0, 0.0], "A11_1": [-0.0, 0.0],
      "A11_b": [0.0, -0.0], "A11_bb": 0}, True),
    ({"id": 7, "R": 1, "R1": 0.5, "lapR": 2}, True),
    ({"R": 0.5, "R0": 1e-3}, True),
]


def _records(seed: int = 19, n: int = 1000) -> tuple[list[dict], list[dict]]:
    """(every record, the torsion-free ones), a function of the seed."""
    rng = random.Random(seed)

    def pair(scale):
        return [scale * rng.gauss(0.0, 1.0), scale * rng.gauss(0.0, 1.0)]

    records, free = [], []
    for k in range(n):
        mag = 10.0 ** rng.uniform(-1.5, 1.0)
        rec = {"id": f"p{k}", "R": mag * rng.gauss(0.0, 1.0),
               "R0": mag * rng.gauss(0.0, 1.0), "R1": pair(mag),
               "lapR": mag * rng.gauss(0.0, 1.0)}
        torsion_free = rng.random() < 0.1
        for name in _TORSION:
            rec[name] = [0.0, 0.0] if torsion_free else pair(0.3 * mag)
        records.append(rec)
        if torsion_free:
            free.append(rec)
    for rec, torsion_free in _HAND_MADE:
        records.insert(rng.randrange(len(records) + 1), rec)
        if torsion_free:
            free.insert(rng.randrange(len(free) + 1), rec)
    return records, free


_CONDITIONS = ["--cond", "thm-a", "--cond", "thm-b", "--cond", "corollaryC",
               "--cond", "3.11", "--cond", "3.12", "--cond", "bianchi"]

# (command, format) -> (exit status, sha256 of stdout)
_PINS = {
    ("check {full}", "text"): (1, "e0285a117ca2416819da784d990f4c2e"
                                  "f608af0c5f78e69ddcfa31569ff0730b"),
    ("check {full}", "json"): (1, "d599cc407b83ae759c6c0d196d7bb484"
                                  "783e1dd9334fe52ddc95ecac8bfd1811"),
    ("check {free}", "text"): (1, "e4164c1c802a6b7b4740976454fa8a97"
                                  "4b2ac0daee8104345a98e1ddbbdc8caf"),
    ("check {free}", "json"): (1, "265c080ca32dbb3afc8833c4eea5eedd"
                                  "9941fa6e7c80506fd6de1b8a14f46256"),
    ("scaletest {full}", "text"): (0, "22e145c6ff1ada41bdfb11b0128266d4"
                                      "306cee712c93e1630dd8746ea5809a33"),
    ("scaletest {full}", "json"): (0, "0633629bd1350afccbe8ebfdf427f761"
                                      "28410800d3ef0578d14181e66d87584d"),
    ("--samples 1000 equiv", "text"): (0, "cbf45e9e25192248947c5255b579f5ea"
                                          "fadb48d3e17d02c6f6f72c7e83462909"),
    ("--samples 1000 equiv", "json"): (0, "1f78b555ac6e6fdb1a91afd137e577df"
                                          "39b9a6294dc430309cf8e93274852780"),
    ("--samples 1000 sylvester", "text"): (
        0, "207fe9264b742c00791c756bde209eaa05eec9a423eb4b1b6acd57e8ac27e4fb"),
    ("--samples 1000 sylvester", "json"): (
        0, "77e79c00d52ec430ac4410989cf037f4cdbb9389130b7b090daa239c5eb532b7"),
}

@pytest.fixture(scope="module")
def point_files(tmp_path_factory):
    records, free = _records()
    root = tmp_path_factory.mktemp("pins")
    paths = {}
    for name, recs in (("full", records), ("free", free)):
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(recs, fh)
    return paths


@pytest.mark.parametrize("command, fmt", list(_PINS))
def test_float_output_bytes_pinned(command, fmt, point_files, capsys):
    args = ["--format", fmt, *command.format(**point_files).split()]
    if args[2] == "check":
        args += _CONDITIONS
    code = main(args)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == _PINS[command, fmt]


def test_check_reports_the_proven_minors(point_files, capsys):
    """At every point, `check` reports as form 5's minors the closed forms
    that 3.8 proves, evaluated in floats, bit for bit; form 4's are the
    first four, and thm-b holds exactly where all five are positive."""
    main(["--format", "json", "check", point_files["full"], "--cond", "thm-b"])
    reports = json.loads(capsys.readouterr().out)["points"]
    with open(point_files["full"]) as fh:
        x = rg._float_inputs(rg.point_columns(json.load(fh)))
    got = np.array([rep["minors"]["form_5"] for rep in reports])
    for k, want in enumerate(thm_b_minors(x, rg._float)):
        want = np.broadcast_to(want, len(got))
        assert np.array_equal(got[:, k].view(np.int64), want.view(np.int64)), k
    for rep in reports:
        form_5 = rep["minors"]["form_5"]
        assert rep["minors"]["form_4"] == form_5[:4]
        assert rep["verdicts"]["thm_b"] == all(m > 0 for m in form_5)
