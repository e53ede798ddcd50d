"""The benchmark tracer still finds every name it wraps or reads, so a
renamed or deleted target shows up in a local test run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, path) for _, module, path, _ in tracer.TARGETS]
    names += tracer.AUX
    assert len(names) > 30
    absent = [f"{module}.{path}" for module, path in names
              if tracer.Patcher.resolve(module, path) is None]
    assert absent == []
