"""Acceptance suite: one test per release criterion, run at reference scale.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) in addition
to asserting, so a full run doubles as a report.  Statistical criteria use
fixed master seeds; they are deterministic reruns, not flaky samplers.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from granvar import estimators as est
from granvar.cli import main
from granvar.experiments import (
    binary_table,
    clustered_params,
    gy_null_ensemble,
    hardcore_params,
    monotonicity_sweep,
    oracle_agreement_experiment,
    size_bias_experiment,
    window_ensemble,
)
from granvar.model import BatchSpec
from granvar.util import derived_rng
from granvar.verify import (
    grid_matches_reference,
    random_single_class_case,
    random_summary_scenario,
)

ONE_SIDED_95 = 1.6448536269514722


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")


def test_criterion_01_reference_grid():
    start = time.perf_counter()
    ok, worst = grid_matches_reference()
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0,
           f"all 24 grid cells within 2 significant figures "
           f"(worst {worst:.2f} figure-units, {elapsed:.3f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_round_trip():
    start = time.perf_counter()
    rng = derived_rng(202)
    worst = 0.0
    for _ in range(1000):
        c_s, c_k, m_k, mass, n_k, v_e = random_single_class_case(rng)
        v_gy = est.gy_reference_variance(c_s, c_k, m_k, mass)
        sol = est.solve_single_class_dependence(
            est.EmpiricalVarianceInput(v_e=v_e, n_k=n_k), v_gy
        )
        back = est.ht_single_class(c_s, c_k, m_k, mass, n_k, sol.value)
        worst = max(worst, abs(back - v_e) / v_e)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, ok, f"solver round-trip worst relative error {worst:.2e} "
                  f"over 1000 draws ({elapsed:.3f}s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_appendix_chain():
    start = time.perf_counter()
    rng = derived_rng(303)
    worst_eq = 0.0
    bound_ok = True
    for _ in range(1000):
        table, sample, batch, dep, q = random_summary_scenario(rng)
        pi = np.full(table.k, q)
        pij = q * q * (1.0 - dep.values)
        general = est.variance_ht_general(sample, table, pi, pij, batch)
        finite = est.variance_ht_finite_batch(sample, table, dep, batch)
        scale = max(abs(general), abs(finite))
        if scale > 0:
            worst_eq = max(worst_eq, abs(general - finite) / scale)
    rng = derived_rng(304)
    for _ in range(100):
        table, sample, _, dep, _ = random_summary_scenario(rng)
        infinite = est.variance_ht(sample, table, dep).value
        diag = float(
            np.sum(sample.counts_array * table.masses**2 * table.concentrations**2)
        ) / sample.mass**2
        for exponent in range(2, 10):
            ratio = 10.0**-exponent
            batch = BatchSpec.correct(sample.mass / ratio, sample.mass, table.k)
            finite = est.variance_ht_finite_batch(sample, table, dep, batch)
            bound_ok = bound_ok and abs(finite - infinite) <= 10.0 * ratio * diag
    elapsed = time.perf_counter() - start
    ok = worst_eq <= 1e-10 and bound_ok and elapsed < 5.0
    report(3, ok,
           f"general = finite-batch to {worst_eq:.2e} (1000 draws); "
           f"finite-batch -> infinite-batch inside stated bound over "
           f"batch ratios 1e2..1e9 ({elapsed:.3f}s)")
    assert worst_eq <= 1e-10
    assert bound_ok
    assert elapsed < 5.0


def test_criterion_04_enumeration_oracle():
    start = time.perf_counter()
    result = oracle_agreement_experiment(
        n_designs=20, replicates=100_000, master_seed=404
    )
    elapsed = time.perf_counter() - start
    ok = (
        result.cell_fraction >= 0.99
        and result.variance_passed == result.variance_checks
        and elapsed < 120.0
    )
    report(4, ok,
           f"{result.cells_passed}/{result.cells_checked} inclusion cells within "
           f"4 SE; {result.variance_passed}/{result.variance_checks} variance "
           f"checks within 4 SE ({elapsed:.1f}s)")
    assert result.cell_fraction >= 0.99
    assert result.variance_passed == result.variance_checks
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def null_ensemble():
    # window area 9% of the domain: enough particles per window that the
    # plug-in estimator's 1/n bias stays inside the 4-SE band while the
    # per-seed dependence CIs keep their nominal width
    return gy_null_ensemble(
        intensity=500.0, window=(0.3, 0.3), replicates=200, n_seeds=50,
        master_seed=505,
    )


def test_criterion_05_gy_regime_null(null_ensemble):
    cells = [(0, 0), (0, 1), (1, 1)]
    coverage = null_ensemble.coverage_fraction(cells)
    z = null_ensemble.gy_null_z()
    ok = coverage >= 0.90 and abs(z) <= 4.0
    report(5, ok,
           f"dependence CIs cover 0 for {coverage:.1%} of seed-pair cells "
           f"(need >= 90%); independence-model variance within {abs(z):.2f} SE "
           f"of the empirical variance (need <= 4)")
    assert coverage >= 0.90
    assert abs(z) <= 4.0


@pytest.fixture(scope="module")
def cluster_ensemble():
    # window (0.1) below the cluster diameter (0.16); single-class clusters
    return window_ensemble(
        clustered_params(cluster_radius=0.08, class_correlation=1.0,
                         parent_intensity=60.0, offspring_mean=8.0),
        binary_table(), window=(0.1, 0.1), replicates=200, n_seeds=50,
        master_seed=606,
    )


def test_criterion_06_sign_laws(cluster_ensemble):
    z_cluster = [cluster_ensemble.cell_z(0, 0), cluster_ensemble.cell_z(1, 1)]
    hard = window_ensemble(
        hardcore_params(intensity=100.0, min_gap=0.02), binary_table(),
        window=(0.1, 0.1), replicates=200, n_seeds=50, master_seed=607,
    )
    z_hard = [hard.cell_z(0, 0), hard.cell_z(1, 1)]
    cluster_ok = all(z < -ONE_SIDED_95 for z in z_cluster)
    hard_ok = all(z > ONE_SIDED_95 for z in z_hard)
    report(6, cluster_ok and hard_ok,
           f"co-clustered pairs negative (z = {z_cluster[0]:.1f}, "
           f"{z_cluster[1]:.1f}); hard-core same-class positive "
           f"(z = {z_hard[0]:.1f}, {z_hard[1]:.1f}); both at 95% one-sided")
    assert cluster_ok
    assert hard_ok


def test_criterion_07_generalization_beats_independence(cluster_ensemble):
    fraction = cluster_ensemble.improvement_fraction()
    ok = fraction >= 0.80
    report(7, ok,
           f"moment estimator with measured dependence beats the independence "
           f"baseline in {fraction:.0%} of seeds (need >= 80%)")
    assert fraction >= 0.80


def test_criterion_08_size_bias_law():
    res = size_bias_experiment(n_seeds=200, master_seed=77_01)
    raw_ok = res.raw_ci[0] <= 2.0 <= res.raw_ci[1]
    corrected_ok = res.corrected_ci[0] <= 1.0 <= res.corrected_ci[1]
    report(8, raw_ok and corrected_ok,
           f"raw hit ratio {res.raw_ratio:.3f} CI {np.round(res.raw_ci, 3)} covers 2; "
           f"width-corrected {res.corrected_ratio:.3f} CI "
           f"{np.round(res.corrected_ci, 3)} covers 1 (200 seeds)")
    assert raw_ok
    assert corrected_ok


def test_criterion_09_adjacency_oracle_monotonicity():
    res = monotonicity_sweep(master_seed=88_02)
    ok = res.spearman > 0.8
    report(9, ok,
           f"Spearman(adjacency dependence, window-oracle dependence) = "
           f"{res.spearman:.2f} over a 5-point cluster-tightness sweep (need > 0.8)")
    assert res.spearman > 0.8


def test_criterion_10_determinism(tmp_path):
    scenario = {
        "seed": 1010,
        "classes": [
            {"mass": 1.0, "concentration": 1.0, "radius": 0.01},
            {"mass": 1.0, "concentration": 0.0, "radius": 0.01},
        ],
        "replicates": 300,
        "field": {
            "variant": "matern_cluster", "mixing": [0.5, 0.5],
            "parent_intensity": 60, "offspring_mean": 8,
            "cluster_radius": 0.08, "class_correlation": 1.0,
        },
        "design": {"variant": "window", "width": 0.1, "height": 0.1},
        "transects": {"count": 20, "length": 1.0, "orientation": "random"},
        "calibration": {"cluster_radius": [0.08, 0.04], "n_seeds": 3,
                        "replicates": 50, "window": [0.05, 0.05]},
    }
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    outs = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        for command in ("simulate", "intercept"):
            rc = main([command, "--config", str(config), "--out",
                       str(out / command), "--threads", threads])
            assert rc == 0
        outs[name] = tree(out)
    rerun_ok = outs["a"] == outs["b"]
    threads_ok = outs["a"] == outs["c"]
    report(10, rerun_ok and threads_ok,
           "simulate+intercept outputs byte-identical across reruns "
           f"({'ok' if rerun_ok else 'mismatch'}) and across --threads 1 vs 8 "
           f"({'ok' if threads_ok else 'mismatch'})")
    assert rerun_ok
    assert threads_ok
