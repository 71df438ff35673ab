"""The benchmark under ``perfbench/`` drives the program by module and
function name, and its traced run patches functions by name.  These tests
fail when a rename in the program would break either."""
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``tracing`` and ``workloads`` modules, imported from
    ``perfbench/`` and removed from ``sys.modules`` afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_every_traced_target_resolves(perfbench):
    tracing, _ = perfbench
    targets = tracing.TARGETS + tracing.estimator_targets()
    missing = [
        f"{module}.{name}" for module, name, _, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing
    assert {bucket for _, _, bucket, _ in targets} <= set(tracing.BUCKETS)


def test_workloads_match_the_benchmark_declaration(perfbench):
    _, workloads = perfbench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)
