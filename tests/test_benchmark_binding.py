"""The benchmark under ``perfbench/`` drives the program by module and
function name, and its traced run patches functions by name.  These tests
fail when a rename in the program would break either."""
import importlib
import json
import shutil
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


def test_cast_counter_reads_real_records(perfbench):
    """The traced run's transect counter reads the records of a real cast."""
    from granvar.fields import ProcessParams, generate_field
    from granvar.intercept import cast_transects
    from granvar.model import ClassTable

    tracing, _ = perfbench
    table = ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0], [0.002, 0.004])
    params = ProcessParams(variant="hardcore", width=1.0, height=1.0, mixing=(0.5, 0.5),
                           intensity=600.0, min_gap=0.002)
    field = generate_field(params, table, seed=3)
    args = (field, 40, "random", 1.0, 5)
    records = cast_transects(*args)
    counts = tracing._cast_counts(args, {}, records)
    assert counts["intercept.cast_calls"] == 1
    assert counts["intercept.transects"] == 40
    assert counts["intercept.hits"] == sum(len(rec.particle_ids) for rec in records) > 0
    assert counts["intercept.length"] == pytest.approx(40.0)
    assert 0.0 < counts["intercept.in_domain_length"] <= counts["intercept.length"]


WORKLOADS = ["window_cluster", "pairwise_oracle", "transect_hardcore", "null_ensemble"]


def run_operation(workload, ctx):
    """One operation on ``ctx`` as the benchmark's worker runs it, into a
    fresh output directory."""
    if ctx.out_dir.exists():
        shutil.rmtree(ctx.out_dir)
    return workload.run(ctx)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_check_passes_on_the_program(perfbench, tmp_path, name):
    """Each workload's check reads the program's output (files, or the
    fields of ``WindowEnsemble.outcomes``) and finds it correct, on every
    input of seed 10."""
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    for i, ctx in enumerate(workloads.load(workload, 10, tmp_path)):
        assert workload.check(ctx, run_operation(workload, ctx)) == [], i


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_operation_counts(perfbench, tmp_path, name):
    """A traced operation passes its check, and its spans reduce to the
    counts the traced run reports: the aggregated replicates (the rows
    ``inclusion_from_fractions`` gets) on the workloads that aggregate."""
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    ctx = workloads.load(workload, 10, tmp_path)[0]
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        result = run_operation(workload, ctx)
    finally:
        tracer.uninstall()
    assert workload.check(ctx, result) == []
    self_s, counts = tracing.reduce_spans(tracer.take())
    assert set(self_s) == set(tracing.BUCKETS)
    if name in ("null_ensemble", "pairwise_oracle"):
        assert counts["selection.replicates"] > 0
        assert counts["selection.compared"] >= counts["selection.empty"] >= 0
