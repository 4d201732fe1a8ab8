"""The benchmark's traced run wraps raftsim names by attribute; a renamed
or deleted target makes `perfbench/run.py --trace 1` fail at tracer install
with a KeyError.  This keeps that failure in the test suite."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in layers.targets()
               if attr not in vars(owner)]
    assert not missing
