"""One workload process: set up, run operations for a fixed time, check them.

Started by ``run.py``, never by hand.  It prints one JSON line with its raw
measurements; ``run.py`` turns those into the benchmark's metrics.

``--setup-only`` stops at the point where the first timed operation would
start, so ``run.py`` can sample set-up time in several fresh processes.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

MAX_REPORTED_FAILURES = 5


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _written(out_dir: Path) -> tuple[int, int]:
    """(data rows, bytes) of the CSV files the cli writer produced."""
    rows = size = 0
    for path in out_dir.glob("*.csv"):
        if path.name == "field.csv":  # written by fields.save_field_csv
            continue
        with path.open("rb") as f:
            # one provenance line and one header line per file
            rows += sum(1 for _ in f) - 2
        size += path.stat().st_size
    return rows, size


def main() -> int:
    args = _parse()
    t0 = time.perf_counter()
    import granvar.cli  # noqa: F401  (timed: the program's import cost)
    import_s = time.perf_counter() - t0

    import numpy as np
    import scipy

    import hostref
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install([workloads])
    contexts = workloads.load(workload, args.seed, workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    load_s = 0.0
    if tracer:
        # set-up parses every generated scenario, so this sums their loads
        load_s = sum(s.end - s.start for s in tracer.take() if s.name == "scenario.load_scenario")
        tracer.uninstall()

    untraced: list[float] = []
    reference: list[float] = []
    traced: list[float] = []
    layer_s: list[dict[str, float]] = []
    counts: dict[str, float] = {}
    failures: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    # The traced run gives each input one untraced and then one traced
    # operation, so tracing overhead is measured on the same inputs in the
    # same process; it needs one of each at least.  No operation starts that
    # would likely end after the measuring time.
    min_ops = 2 if tracer else 1
    while attempted < min_ops or (time.perf_counter() - start
                                  + _median(untraced + traced) <= args.seconds):
        traced_op = bool(tracer) and attempted % 2 == 1
        ctx = contexts[(attempted // 2 if tracer else attempted) % len(contexts)]
        if ctx.out_dir.exists():
            shutil.rmtree(ctx.out_dir)
        if traced_op:
            tracer.take()  # drop spans left by an operation that raised
            tracer.install([workloads])
        else:  # run.py rescales by the host speed seen next to each operation
            reference.append(hostref.reference_s())
        attempted += 1
        try:
            t = time.perf_counter()
            result = workload.run(ctx)
            elapsed = time.perf_counter() - t
        except Exception:  # an operation that raises is a failed operation
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            continue
        finally:
            if traced_op:
                tracer.uninstall()
        try:
            problems = workload.check(ctx, result)
        except Exception:  # unreadable or missing outputs fail the operation
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failed += 1
            failures.extend(problems)
        if not traced_op:
            untraced.append(elapsed)
            continue
        traced.append(elapsed)
        self_s, op_counts = tracing.reduce_spans(tracer.take())
        layer_s.append(self_s)
        rows, size = _written(ctx.out_dir)
        op_counts["cli.rows_written"] = rows
        op_counts["cli.bytes_written"] = size
        if ctx.config.field is not None and ctx.config.field.variant == "hardcore":
            x, y, radius = workloads.read_field(ctx.out_dir / "field.csv")
            op_counts["fields.hardcore_seam_violations"] = workloads.close_pairs(
                x, y, radius, ctx.config.field.min_gap,
                box=(ctx.config.field.width, ctx.config.field.height))
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value

    report = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "run_s": untraced,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    if tracer:
        report["layers"] = _layer_metrics(
            traced, untraced, layer_s, counts, import_s, load_s,
            _thread_speedup(workloads, args.seed, workdir))
    print(json.dumps(report))
    return 0


def _thread_speedup(workloads, seed: int, workdir: Path) -> float:
    """null_ensemble time at threads=1 / time at threads=2, untraced."""
    config = workloads.load(workloads.WORKLOADS["null_ensemble"], seed, workdir)[0].config
    times = {}
    for threads in (1, 2):
        t = time.perf_counter()
        workloads.null_ensemble_op(config, threads=threads)
        times[threads] = time.perf_counter() - t
    return times[1] / times[2]


def _layer_metrics(traced, untraced, layer_s, counts, import_s, load_s, speedup) -> dict:
    """Per-layer metrics: per-operation means over the traced operations."""
    import tracing

    n = max(len(traced), 1)
    per_op = {key: value / n for key, value in counts.items()}
    metrics = {bucket: _mean([op[bucket] for op in layer_s]) for bucket in tracing.BUCKETS}
    run_s = _mean(traced)
    attributed = sum(metrics.values())
    metrics.update({
        "cli.import_s": import_s,
        "scenario.load_s": load_s,
        "trace.run_s": run_s,
        "trace.untraced_run_s": _mean(untraced),
        "trace.overhead_frac": _ratio(run_s, _mean(untraced)) - 1.0 if untraced else 0.0,
        "trace.unattributed_s": run_s - attributed,
        "util.ordered_map_speedup_2t": speedup,
    })
    for key in ("cli.rows_written", "cli.bytes_written", "fields.generate_calls",
                "fields.particles", "fields.save_csv_bytes", "selection.replicates",
                "selection.window_tests", "selection.subsets_enumerated",
                "intercept.cast_calls", "intercept.transects", "intercept.hits",
                "estimators.calls", "fields.hardcore_seam_violations"):
        metrics[key] = per_op.get(key, 0)
    metrics["fields.particles_per_s"] = _ratio(
        metrics["fields.particles"], metrics["fields.generate_s"])
    metrics["intercept.hits_per_s"] = _ratio(
        metrics["intercept.hits"], metrics["intercept.cast_s"])
    metrics["selection.window_hit_ratio"] = _ratio(
        counts.get("selection.window_hits", 0), counts.get("selection.window_tests", 0))
    metrics["selection.empty_fraction"] = _ratio(
        counts.get("selection.empty", 0), counts.get("selection.compared", 0))
    metrics["intercept.in_domain_fraction"] = _ratio(
        counts.get("intercept.in_domain_length", 0.0), counts.get("intercept.length", 0.0))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
