"""Paired benchmark runs of two source checkouts, written as BENCH_<pr>.json.

Runs ``perfbench/run.py --trace 0`` in a parent checkout and in a change
checkout, alternately: pair i of a workload runs both sides at seed 10 + i,
and the side that runs first alternates from pair to pair.  Each checkout
needs ``src/``, ``perfbench/`` and ``BENCHMARK.json``; make the parent one
with ``git archive``, for example

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 5 --pairs window_cluster=10 --claim window_cluster:run_s \\
        --out BENCH_<pr>.json

``--pairs N`` sets the pairs of every workload and ``--pairs W=N`` those of
one workload.  For each end-to-end metric of ``BENCHMARK.json`` the output
holds, per side, the runs, their median and the quartiles (numpy's linear
interpolation), the pairs the change won, that is where it reads better, out
of the pairs with a result on both sides, the parent's interquartile range,
the change of the median as a fraction of the parent's, the metric's
``bound`` and a verdict (see :func:`verdict`).  ``--claim W:M`` (repeatable)
names a metric M the change claims to improve on workload W.
A run that prints no result counts as one failed operation out of one
attempted on its side.  Each side's ``failed_share`` is its failed over its
attempted operations.
Every run that exits non-zero is listed under the workload's
``nonzero_exits``: side, seed, whether it was traced, exit code and the
first ``# FAILED`` line it printed.
With ``--traced-seed S``, each side of each workload also runs once with
``--trace 1`` at seed S, after its pairs, and the workload entry holds that
run's per-layer metrics under ``traced``.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 10


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict | None, dict | None]:
    """The result line of one ``run.py`` run, or None when it printed none,
    and, when the run exited non-zero, its exit code and first ``# FAILED``
    line (None when it printed none)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    failed = None
    if done.returncode:
        first = next((line for line in lines if line.startswith("# FAILED")), None)
        failed = {"code": done.returncode, "first_failed": first}
    try:
        return json.loads(lines[-1]), failed
    except (IndexError, json.JSONDecodeError):
        return None, failed


def quartiles(runs: list[float]) -> tuple[float, float]:
    if len(runs) < 2:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q3


def summary(runs: list[float]) -> dict:
    q1, q3 = quartiles(runs)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in runs]}


def verdict(parent: list[float], change: list[float], wins: int, pairs_run: int,
            lower: bool, bound: float, claimed: bool, higher_failed_share: bool) -> str:
    """How one metric of one workload moved, from the runs of the pairs.

    ``gain``: the metric is claimed, the change won (``wins``) at least nine
    tenths of the ``pairs_run`` pairs, ties counting for neither, its median
    is better than the parent's by more than the parent's interquartile
    range, and no larger share of its operations failed than at the parent
    (``higher_failed_share`` false).  ``worse``: the change's
    median is worse than the parent's by more than ``bound``, a fraction of
    the parent's median.  ``unresolved``: the parent's interquartile range
    is wider than ``bound`` of its median, and not every run of the change
    reads better than every run of the parent.  ``within bound`` otherwise.
    """
    sign = 1.0 if lower else -1.0  # positive: the change reads better
    q1, q3 = quartiles(parent)
    base = statistics.median(parent)
    gained = sign * (base - statistics.median(change))
    if claimed and not higher_failed_share and wins >= 0.9 * pairs_run and gained > q3 - q1:
        return "gain"
    if -gained > bound * abs(base):
        return "worse"
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > bound * abs(base) and not separated:
        return "unresolved"
    return "within bound"


def compare(results: dict, metrics: list[dict], claimed: set[str] = frozenset()) -> dict:
    """The workload entry of BENCH_<pr>.json from each side's run results;
    ``claimed`` names the metrics the change claims to improve here."""
    entry = {"pairs": len(results["parent"]), "metrics": {}}
    entry["failed_operations"] = {
        side: sum(r["failed"] if r else 1 for r in results[side]) for side in SIDES}
    entry["attempted_operations"] = {
        side: sum(r["attempted"] if r else 1 for r in results[side]) for side in SIDES}
    share = {side: entry["failed_operations"][side] / max(entry["attempted_operations"][side], 1)
             for side in SIDES}
    entry["failed_share"] = {side: round(v, 4) for side, v in share.items()}
    higher_failed_share = share["change"] > share["parent"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"]) if p and c]
        if not pairs:
            continue
        parent, change = ([v[s] for v in pairs] for s in (0, 1))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        q1, q3 = quartiles(parent)
        entry["metrics"][name] = {
            "parent": summary(parent), "change": summary(change), "change_wins": wins,
            "pairs": len(pairs), "parent_iqr": round(q3 - q1, 4),
            "median_change_frac": round(statistics.median(change) / statistics.median(parent)
                                        - 1.0, 4),
            "bound": m["bound"],
            "verdict": verdict(parent, change, wins, entry["pairs"], lower, m["bound"],
                               name in claimed, higher_failed_share),
        }
    return entry


def traced_entry(results: dict, seed: int) -> dict:
    """The ``traced`` part of a workload entry from each side's traced run."""
    entry = {"seed": seed}
    for side in SIDES:
        result = results[side]
        entry[side] = None if result is None else {
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    return entry


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--pairs", action="append", default=[],
                   help="N for every workload, or W=N for workload W (repeatable)")
    p.add_argument("--traced-seed", type=int,
                   help="also run each side of each workload once with --trace 1 at this seed")
    p.add_argument("--claim", action="append", default=[], metavar="W:M",
                   help="end-to-end metric M the change claims to improve on workload W "
                        "(repeatable)")
    args = p.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pairs = {w["name"]: 0 for w in spec["workloads"]}
    for item in args.pairs:
        name, _, count = item.rpartition("=")
        for workload in ([name] if name else pairs):
            if workload not in pairs:
                p.error(f"unknown workload {workload!r}")
            pairs[workload] = int(count)
    claims = {workload: set() for workload in pairs}
    for item in args.claim:
        workload, _, metric = item.partition(":")
        if workload not in pairs or metric not in {m["name"] for m in spec["end_to_end"]}:
            p.error(f"--claim {item!r} names no workload:metric of BENCHMARK.json")
        claims[workload].add(metric)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    out = {
        "description": (
            f"Paired benchmark runs, parent against change: `python3 perfbench/run.py "
            f"--workload W --seed S --seconds {seconds:g} --trace 0`, pair i at seed "
            f"{FIRST_SEED} + i, the side that runs first alternating. run_s and setup_s "
            "are seconds at the host's reference speed (perfbench/hostref.py). Quartiles "
            "are linear-interpolation percentiles 25 and 75. A pair is won when the change "
            "reads better. The verdict of a metric is `gain` (claimed; won at least 9 in "
            "10 pairs, the median better by more than the parent's interquartile range, "
            "no larger share of failed operations), `worse` (the median worse by more than "
            "the bound), `unresolved` (the parent's interquartile range wider than the bound "
            "and the sides' runs overlapping) or `within bound`." + (
                "" if args.traced_seed is None else
                f" `traced` holds one `--trace 1` run per side at seed {args.traced_seed}, "
                "after the pairs: per-layer metrics, raw seconds per operation.")),
        "machine": f"{os.cpu_count()} cores, {platform.system()}, "
                   f"python {platform.python_version()}",
        "claims": sorted(args.claim),
        "workloads": {},
    }
    for workload, count in pairs.items():
        if not count:
            continue
        results = {side: [] for side in SIDES}
        nonzero = []

        def run(side: str, seed: int, trace: int = 0) -> dict | None:
            result, failed = run_once(roots[side], workload, seed, seconds, trace)
            if failed:
                nonzero.append({"side": side, "seed": seed, "trace": trace, **failed})
                print(f"{workload} {side} seed {seed} exited {failed['code']}: "
                      f"{failed['first_failed']}", file=sys.stderr)
            return result

        for i in range(count):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run(side, FIRST_SEED + i)
                results[side].append(result)
                print(f"{workload} pair {i} {side}: "
                      f"{result['metrics'] if result else 'no result'}", file=sys.stderr)
        out["workloads"][workload] = compare(results, spec["end_to_end"], claims[workload])
        if args.traced_seed is not None:
            traced = {}
            for side in SIDES:
                traced[side] = run(side, args.traced_seed, trace=1)
                print(f"{workload} traced {side}: "
                      f"{traced[side]['metrics'] if traced[side] else 'no result'}",
                      file=sys.stderr)
            out["workloads"][workload]["traced"] = traced_entry(traced, args.traced_seed)
        out["workloads"][workload]["nonzero_exits"] = nonzero
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
