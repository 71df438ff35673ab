"""Reusable simulation experiments.

Each driver wires fields, selection designs and estimators into one
statistical experiment with a documented readout.  The acceptance test
suite runs them at their reference sizes; the scripts/ entry points
expose them for exploratory runs with other parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import ProcessParams, generate_field
from .intercept import TransectSpec, calibrate_against_oracle, cast_transects, class_weights
from .model import ClassTable
from .selection import (
    ReplicateStats,
    SelectionDesign,
    compare_estimators,
    empirical_dependence,
    enumerate_design,
    inclusion_from_fractions,
    pair_fractions,
    replicate_counts,
    run_replicates,
)
from .util import derived_rng, derived_seeds, normal_half_width, ordered_map

def binary_table(radius: float = 0.01, radius_ratio: float = 1.0) -> ClassTable:
    """Two classes of unit mass; class 0 carries the analyte."""
    return ClassTable.from_arrays(
        masses=[1.0, 1.0],
        concentrations=[1.0, 0.0],
        radii=[radius, radius * radius_ratio],
    )


# ---------------------------------------------------------------------------
# Enumeration-oracle equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleAgreement:
    """Cell-level agreement between Monte Carlo and exact enumeration."""

    cells_checked: int
    cells_passed: int
    variance_checks: int
    variance_passed: int

    @property
    def cell_fraction(self) -> float:
        return self.cells_passed / self.cells_checked if self.cells_checked else np.nan


def random_pairwise_design(
    rng: np.random.Generator, max_particles: int = 16
) -> tuple[SelectionDesign, ClassTable]:
    k = int(rng.integers(1, 5))  # 1 to 4 classes
    n = int(rng.integers(6, max_particles + 1))
    class_of = rng.integers(0, k, size=n)
    q = rng.uniform(0.2, 0.8, size=k)
    phi = rng.uniform(0.3, 2.2, size=(k, k))
    phi = np.triu(phi) + np.triu(phi, 1).T
    table = ClassTable.from_arrays(
        masses=rng.uniform(0.5, 2.0, size=k),
        concentrations=rng.uniform(0.0, 1.5, size=k),
    )
    return SelectionDesign.pairwise_pmf(q, phi, class_of), table


def oracle_agreement_experiment(
    n_designs: int = 20,
    replicates: int = 100_000,
    master_seed: int = 2024_04,
    sigma: float = 4.0,
    max_particles: int = 16,
    threads: int = 1,
) -> OracleAgreement:
    """Monte Carlo inclusion estimates vs exact enumeration over random
    pairwise designs; a cell passes when the estimate falls within
    ``sigma`` standard errors of the exact value (zero-error cells must
    match exactly)."""

    def one(design_index: int) -> tuple[int, int, int]:
        rng = derived_rng(master_seed, design_index, 0)
        design, table = random_pairwise_design(rng, max_particles=max_particles)
        exact = enumerate_design(design, table)
        mc_seed = derived_seeds(master_seed, design_index, count=2)[1]
        stats, est = run_replicates(design, table, replicates, mc_seed)
        checked = passed = 0
        k = table.k
        for u in range(k):
            if np.isnan(exact.pi1[u]):
                continue
            checked += 1
            passed += _within(est.pi1[u], exact.pi1[u], est.pi1_se[u], sigma)
        for u in range(k):
            for v in range(u, k):
                if np.isnan(exact.pi2[u, v]) or np.isnan(est.pi2[u, v]):
                    continue
                checked += 1
                passed += _within(est.pi2[u, v], exact.pi2[u, v], est.pi2_se[u, v], sigma)
        # the enumerated variance is E[c^2]-E[c]^2 and carries rounding of
        # that scale; without the floor, designs whose true variance is
        # exactly zero compare two numerical zeros at astronomical z
        atol = 1e-12 * (exact.var_cs + exact.mean_cs**2)
        var_ok = int(_within(stats.v_e, exact.var_cs, stats.v_e_se, sigma, atol))
        return checked, passed, var_ok

    results = ordered_map(one, list(range(n_designs)), threads)
    checked = sum(r[0] for r in results)
    passed = sum(r[1] for r in results)
    var_passed = sum(r[2] for r in results)
    return OracleAgreement(checked, passed, n_designs, var_passed)


def _within(estimate: float, exact: float, se: float, sigma: float, atol: float = 0.0) -> bool:
    if np.isnan(estimate) or np.isnan(se):
        return False
    if se == 0.0 and atol == 0.0:
        return estimate == exact
    return abs(estimate - exact) <= sigma * se + atol


# ---------------------------------------------------------------------------
# Window-sampling experiments on spatial fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedOutcome:
    """Per-seed readout of one window-sampling run."""

    c_hat: np.ndarray
    covers_zero: np.ndarray
    v_e: float
    v_e_se: float
    moment_zero: float
    moment_empirical: float


@dataclass(frozen=True)
class WindowEnsemble:
    outcomes: tuple[SeedOutcome, ...]

    def coverage_fraction(self, cells: Sequence[tuple[int, int]]) -> float:
        """Fraction of (seed, cell) combinations whose CI covers zero."""
        flags = [
            o.covers_zero[a, b]
            for o in self.outcomes
            for (a, b) in cells
            if not np.isnan(o.c_hat[a, b])
        ]
        return float(np.mean(flags)) if flags else np.nan

    def cell_values(self, a: int, b: int) -> np.ndarray:
        return np.array([o.c_hat[a, b] for o in self.outcomes])

    def cell_z(self, a: int, b: int) -> float:
        """Mean / SE-of-mean of a dependence cell across seeds."""
        vals = self.cell_values(a, b)
        vals = vals[np.isfinite(vals)]
        if len(vals) < 2:
            return np.nan
        return float(vals.mean() / (vals.std(ddof=1) / np.sqrt(len(vals))))

    def gy_null_z(self) -> float:
        """Paired z of (independence-model estimate - empirical variance)."""
        diffs = np.array([o.moment_zero - o.v_e for o in self.outcomes])
        diffs = diffs[np.isfinite(diffs)]
        return float(diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs))))

    def improvement_fraction(self) -> float:
        """Fraction of seeds where plugging the empirical dependence matrix
        into the moment estimator beats the independence baseline."""
        wins = [
            abs(o.moment_empirical - o.v_e) < abs(o.moment_zero - o.v_e)
            for o in self.outcomes
            if np.isfinite(o.moment_empirical) and np.isfinite(o.v_e)
        ]
        return float(np.mean(wins)) if wins else np.nan


def _aggregate_seeds(
    draws: Sequence[tuple[np.ndarray, np.ndarray]], table: ClassTable
) -> WindowEnsemble:
    """The ensemble of every seed's (R, K) (populations, window counts),
    stacked and summarized in one pass with each seed a group."""
    pops, counts = (np.concatenate(parts) for parts in zip(*draws))
    seeds = len(draws)
    stats = ReplicateStats.from_counts(counts, table, groups=seeds)
    mean_pop = pops.reshape(seeds, -1, table.k).mean(axis=1).round().astype(int)
    est = inclusion_from_fractions(*pair_fractions(counts, pops), mean_pop, groups=seeds)
    report = compare_estimators(stats, est, table)
    return WindowEnsemble(tuple(map(
        SeedOutcome, est.c_hat, empirical_dependence(est).covers_zero(),
        stats.v_e.tolist(), stats.v_e_se.tolist(),
        *(report.row("moment", dep, "replicate_mean").value.tolist()
          for dep in ("zero", "empirical")),
    )))


def window_ensemble(
    params: ProcessParams,
    table: ClassTable,
    window: tuple[float, float],
    replicates: int,
    n_seeds: int,
    master_seed: int,
    threads: int = 1,
) -> WindowEnsemble:
    """Window-sample ``n_seeds`` independent fields, each from its own
    derived streams, and collect per-seed dependence estimates and
    estimator comparisons."""

    def one(seed_index: int) -> tuple[np.ndarray, np.ndarray]:
        field_seed, mc_seed = derived_seeds(master_seed, seed_index, count=2)
        fld = generate_field(params, table, field_seed)
        design = SelectionDesign.window(fld, window[0], window[1])
        counts = replicate_counts(design, table, replicates, mc_seed)
        pop = np.bincount(design.class_of, minlength=table.k)
        return np.broadcast_to(pop, counts.shape), counts

    return _aggregate_seeds(ordered_map(one, list(range(n_seeds)), threads), table)


def poisson_null_params(intensity: float = 500.0) -> ProcessParams:
    return ProcessParams(
        variant="poisson", width=1.0, height=1.0, mixing=(0.5, 0.5), intensity=intensity
    )


def poisson_window_counts(
    params: ProcessParams,
    window: tuple[float, float],
    replicates: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(R, K) class populations and window counts of ``replicates`` fresh
    Poisson fields, each sampled by one uniformly anchored toroidal window.

    Drawn from the exact law of that process rather than by generating the
    fields: class u's population is Poisson(intensity * W * H * mixing_u),
    and its window count is Binomial(population, w * h / (W * H)).
    """
    if params.variant != "poisson":
        raise ValueError(f"the window-count law holds for poisson fields, not {params.variant}")
    width, height = params.width, params.height
    if not (0 < window[0] <= width and 0 < window[1] <= height):
        raise ValueError(f"window {window} must be positive and fit inside the domain")
    rates = params.expected_count() * np.asarray(params.mixing, dtype=float)
    pops = rng.poisson(rates, size=(replicates, len(rates)))
    return pops, rng.binomial(pops, window[0] * window[1] / (width * height))


def gy_null_ensemble(
    intensity: float = 500.0,
    window: tuple[float, float] = (0.3, 0.3),
    replicates: int = 200,
    n_seeds: int = 50,
    master_seed: int = 5_05,
    threads: int = 1,
) -> WindowEnsemble:
    """Independence-regime null: every replicate samples one window from a
    fresh homogeneous Poisson field.

    Regenerating the field per replicate realizes sampling from an
    effectively infinite batch, so pair selections are independent at the
    ensemble level (the dependence matrix is exactly zero) and the
    independence model should match the empirical variance.  Replicates
    over a single fixed field instead estimate that field's own realized
    dependence, which fluctuates around zero from field to field; that
    conditional estimand is what the clustered/hard-core experiments use.

    The replicates are drawn from the exact law of that process (see
    :func:`poisson_window_counts`), not by generating fields.  A homogeneous
    Poisson field with i.i.d. labels is K independent Poisson processes, so
    the class populations are independent Poisson counts.  Given them, each
    particle is uniform on the domain and so lies in the half-open toroidal
    window with probability w * h / (W * H) whatever the anchor,
    independently of the others, which makes each window count binomial.
    Fresh fields make the replicates independent.  Each seed draws from
    its own derived stream, and the seeds are summarized together.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    params = poisson_null_params(intensity)

    def one(seed_index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = derived_rng(master_seed, seed_index)
        return poisson_window_counts(params, window, replicates, rng)

    return _aggregate_seeds(ordered_map(one, list(range(n_seeds)), threads), binary_table())


def clustered_params(
    cluster_radius: float = 0.03,
    class_correlation: float = 1.0,
    parent_intensity: float = 25.0,
    offspring_mean: float = 16.0,
) -> ProcessParams:
    return ProcessParams(
        variant="matern_cluster",
        width=1.0,
        height=1.0,
        mixing=(0.5, 0.5),
        parent_intensity=parent_intensity,
        offspring_mean=offspring_mean,
        cluster_radius=cluster_radius,
        class_correlation=class_correlation,
    )


def hardcore_params(
    intensity: float = 100.0, min_gap: float = 0.02
) -> ProcessParams:
    return ProcessParams(
        variant="hardcore", width=1.0, height=1.0, mixing=(0.5, 0.5),
        intensity=intensity, min_gap=min_gap,
    )


# ---------------------------------------------------------------------------
# Line-intercept size-bias experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeBiasResult:
    """Raw and width-corrected class-1:class-0 abundance ratios with CIs."""

    raw_ratio: float
    raw_ci: tuple[float, float]
    corrected_ratio: float
    corrected_ci: tuple[float, float]
    total_hits: tuple[float, float]


def _ratio_ci(num: np.ndarray, den: np.ndarray, level: float = 0.95) -> tuple[float, tuple[float, float]]:
    """Delta-method CI of mean(num)/mean(den) from per-seed pairs."""
    n = len(num)
    mn, md = num.mean(), den.mean()
    ratio = mn / md
    cov = np.cov(np.vstack([num, den]), ddof=1) / n
    grad = np.array([1.0 / md, -mn / (md * md)])
    se = float(np.sqrt(max(grad @ cov @ grad, 0.0)))
    z = normal_half_width(level)
    return float(ratio), (float(ratio - z * se), float(ratio + z * se))


def size_bias_experiment(
    n_seeds: int = 200,
    intensity: float = 600.0,
    radius: float = 0.004,
    radius_ratio: float = 2.0,
    transects: TransectSpec = TransectSpec(count=20, length=1.0),
    master_seed: int = 77_01,
    threads: int = 1,
) -> SizeBiasResult:
    """Two-class Poisson fields with equal number density and a radius
    ratio; measures the width bias of raw intersection frequencies and its
    removal by inverse-width weighting."""
    table = binary_table(radius=radius, radius_ratio=radius_ratio)
    params = poisson_null_params(intensity=intensity)

    def one(seed_index: int) -> tuple[float, float, float, float]:
        field_seed, transect_seed = derived_seeds(master_seed, seed_index, count=2)
        fld = generate_field(params, table, field_seed)
        batch = cast_transects(
            fld, transects.count, transects.orientation, transects.length, transect_seed
        )
        raw = class_weights(batch, 2, correct=False)
        corrected = class_weights(batch, 2)
        return raw[0], raw[1], corrected[0], corrected[1]

    rows = np.array(ordered_map(one, list(range(n_seeds)), threads))
    raw_ratio, raw_ci = _ratio_ci(rows[:, 1], rows[:, 0])
    corrected_ratio, corrected_ci = _ratio_ci(rows[:, 3], rows[:, 2])
    return SizeBiasResult(
        raw_ratio, raw_ci, corrected_ratio, corrected_ci,
        (float(rows[:, 0].sum()), float(rows[:, 1].sum())),
    )


# ---------------------------------------------------------------------------
# Adjacency-vs-oracle monotonicity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityResult:
    cluster_radii: tuple[float, ...]
    oracle_series: tuple[float, ...]
    adjacency_series: tuple[float, ...]
    spearman: float


def monotonicity_sweep(
    cluster_radii: Sequence[float] = (0.10, 0.08, 0.06, 0.045, 0.03),
    n_seeds: int = 25,
    replicates: int = 200,
    window: tuple[float, float] = (0.04, 0.04),
    transects: TransectSpec = TransectSpec(count=30, length=1.0),
    master_seed: int = 88_02,
    threads: int = 1,
) -> MonotonicityResult:
    """Sweep cluster tightness; compare the mean same-class dependence from
    the adjacency estimator against the window-sampling oracle.

    Tightness grows as the cluster radius shrinks; both estimators should
    move together (strongly negative same-class dependence for tight
    clusters), giving a high rank correlation across the sweep."""
    table = binary_table()
    processes = [
        (f"cluster_radius={r:g}", clustered_params(cluster_radius=r))
        for r in cluster_radii
    ]
    report = calibrate_against_oracle(
        processes, table, window, replicates, transects,
        master_seed=master_seed, n_seeds=n_seeds, threads=threads,
    )
    oracle_series = []
    adjacency_series = []
    for case in report.cases:
        oracle_series.append(float(np.nanmean(np.diag(case.oracle_c))))
        adjacency_series.append(float(np.nanmean(np.diag(case.adjacency_c))))
    from scipy.stats import spearmanr  # deferred: scipy.stats is slow to import

    rho = float(spearmanr(oracle_series, adjacency_series).statistic)
    return MonotonicityResult(
        tuple(float(r) for r in cluster_radii),
        tuple(oracle_series),
        tuple(adjacency_series),
        rho,
    )
