"""Verdicts of ``scripts/bench_pairs.py`` on synthetic paired runs."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
METRICS = [{"name": "run_s", "better": "lower", "bound": 0.25},
           {"name": "rate", "better": "higher", "bound": 0.1}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(run_s, rate=1.0, failed=0, attempted=10):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"run_s": {"value": run_s}, "rate": {"value": rate}}}


def runs(parent, change, failed=(0, 0), attempted=(10, 10)):
    return {"parent": [result(v, failed=failed[0], attempted=attempted[0]) for v in parent],
            "change": [result(v, failed=failed[1], attempted=attempted[1]) for v in change]}


PARENT = [0.100, 0.102, 0.098, 0.101, 0.099, 0.100, 0.103, 0.097, 0.100, 0.101]


@pytest.mark.parametrize("change, claimed, failed, want", [
    # 10/10 wins, median 20% lower, parent IQR about 2%
    ([v * 0.8 for v in PARENT], True, (0, 0), "gain"),
    # the same runs, unclaimed
    ([v * 0.8 for v in PARENT], False, (0, 0), "within bound"),
    # claimed, but the change failed more operations
    ([v * 0.8 for v in PARENT], True, (0, 1), "within bound"),
    # claimed, 8 wins in 10 pairs
    ([v * 0.8 for v in PARENT[:8]] + [0.2, 0.2], True, (0, 0), "within bound"),
    # claimed, 10/10 wins by less than the parent's IQR
    ([v - 0.0005 for v in PARENT], True, (0, 0), "within bound"),
    ([v * 1.3 for v in PARENT], False, (0, 0), "worse"),
    ([v * 1.2 for v in PARENT], False, (0, 0), "within bound"),
])
def test_run_time_verdicts(bench_pairs, change, claimed, failed, want):
    entry = bench_pairs.compare(runs(PARENT, change, failed), METRICS,
                                {"run_s"} if claimed else set())
    m = entry["metrics"]["run_s"]
    assert m["verdict"] == want
    assert m["pairs"] == 10 and m["bound"] == 0.25
    q1, q3 = np.percentile(PARENT, [25, 75])
    assert m["parent_iqr"] == round(q3 - q1, 4)


@pytest.mark.parametrize("change_attempted, want", [(14, "gain"), (9, "within bound")])
def test_failures_are_compared_as_shares(bench_pairs, change_attempted, want):
    """A faster change attempts more operations: more failures at a lower
    failed share keep the gain, a higher share withholds it."""
    results = runs(PARENT, [v * 0.8 for v in PARENT], failed=(1, 2),
                   attempted=(7, change_attempted))
    entry = bench_pairs.compare(results, METRICS, {"run_s"})
    assert entry["failed_operations"] == {"parent": 10, "change": 20}
    assert entry["failed_share"] == {"parent": round(1 / 7, 4),
                                     "change": round(2 / change_attempted, 4)}
    assert entry["metrics"]["run_s"]["verdict"] == want


def test_wide_spread_is_unresolved(bench_pairs):
    """A parent IQR wider than the bound leaves an equal median unresolved,
    unless every change run reads better than every parent run."""
    parent = [0.05, 0.15, 0.06, 0.14, 0.07, 0.13, 0.10, 0.10, 0.08, 0.12]
    entry = bench_pairs.compare(runs(parent, parent[::-1]), METRICS)
    assert entry["metrics"]["run_s"]["verdict"] == "unresolved"
    entry = bench_pairs.compare(runs(parent, [0.049] * 10), METRICS)
    assert entry["metrics"]["run_s"]["verdict"] == "within bound"


def test_higher_is_better(bench_pairs):
    results = runs(PARENT, PARENT)
    for side, rate in (("parent", 2.0), ("change", 1.7)):
        for r in results[side]:
            r["metrics"]["rate"]["value"] = rate
    entry = bench_pairs.compare(results, METRICS, {"rate"})
    assert entry["metrics"]["rate"]["verdict"] == "worse"
    assert entry["metrics"]["rate"]["change_wins"] == 0
    for r in results["change"]:
        r["metrics"]["rate"]["value"] = 2.5
    entry = bench_pairs.compare(results, METRICS, {"rate"})
    assert entry["metrics"]["rate"]["verdict"] == "gain"
    assert entry["metrics"]["run_s"]["verdict"] == "within bound"


def test_missing_runs_count_against_the_claim(bench_pairs):
    """A pair without a result on one side is a pair run but not won, and a
    missing run is a failed operation of its side."""
    results = runs(PARENT, [v * 0.8 for v in PARENT])
    results["parent"][0] = None
    entry = bench_pairs.compare(results, METRICS, {"run_s"})
    m = entry["metrics"]["run_s"]
    assert (m["pairs"], m["change_wins"], m["verdict"]) == (9, 9, "gain")
    assert entry["failed_operations"] == {"parent": 1, "change": 0}
    assert entry["attempted_operations"] == {"parent": 91, "change": 100}
    results["parent"][1] = None
    m = bench_pairs.compare(results, METRICS, {"run_s"})["metrics"]["run_s"]
    assert (m["pairs"], m["change_wins"], m["verdict"]) == (8, 8, "within bound")
    results = runs(PARENT, [v * 0.8 for v in PARENT])
    results["change"][0] = None
    m = bench_pairs.compare(results, METRICS, {"run_s"})["metrics"]["run_s"]
    assert (m["change_wins"], m["verdict"]) == (9, "within bound")


def test_nonzero_exit_reports_code_and_first_failure(bench_pairs, tmp_path):
    """A run that exits non-zero is reported with its exit code and its
    first ``# FAILED`` line, whether or not it printed a result."""
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        "import sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "print('# FAILED: pi2[2,2]: 0.0 is inf SE from the exact 9e-07')\n"
        "print('# FAILED: second')\n"
        "if seed == 1:\n"
        "    print('{\"attempted\": 3, \"failed\": 1, \"metrics\": {}}')\n"
        "sys.exit(seed)\n")
    result, failed = bench_pairs.run_once(tmp_path, "w", 1, 1.0)
    assert result == {"attempted": 3, "failed": 1, "metrics": {}}
    assert failed == {"code": 1, "first_failed":
                      "# FAILED: pi2[2,2]: 0.0 is inf SE from the exact 9e-07"}
    result, failed = bench_pairs.run_once(tmp_path, "w", 3, 1.0)
    assert result is None and failed["code"] == 3
    assert bench_pairs.run_once(tmp_path, "w", 0, 1.0)[1] is None
