"""The layer functions that perfbench/passes.py wraps by name still resolve,
so renaming one fails tier-1 and not only a traced benchmark run.  The
module is loaded by path; nothing under perfbench/ is changed."""

import importlib.util
import json
from pathlib import Path

import pytest

from diagvar import cli, diagvariety, intlattice

ROOT = Path(__file__).resolve().parent.parent


def _load_passes():
    spec = importlib.util.spec_from_file_location("perfbench_passes", ROOT / "perfbench" / "passes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ResolvingTracer:
    """Stands in for the benchmark's tracer: asserts that each wrapped
    attribute is callable and leaves it in place."""

    def __init__(self):
        self.names = set()

    def wrap(self, owner, attr, name, **_):
        fn = getattr(owner, attr)
        assert callable(fn), name
        self.names.add(name)
        return fn


@pytest.mark.parametrize("workload", ["suite", "killed"])
def test_every_traced_layer_function_resolves(monkeypatch, workload):
    # install_tracing also replaces these three directly
    monkeypatch.setattr(cli, "_run_cell", cli._run_cell)
    monkeypatch.setattr(intlattice.ZLattice, "add", intlattice.ZLattice.add)
    monkeypatch.setattr(diagvariety, "fedder_check", diagvariety.fedder_check)
    tracer = ResolvingTracer()
    _load_passes().install_tracing(tracer, workload)

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    declared = {m["name"].removesuffix(".calls") for m in per_layer if m["name"].endswith(".calls")}
    assert len(declared) == 23
    assert tracer.names == declared
