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
from .intercept import (
    TransectSpec, adjacency_dependence_for_field, cast_transects, class_weights,
)
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
    window_dependence,
)
from .util import derived_rng, derived_seeds, normal_half_width

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
        # the enumerated variance is the two-pass sum of w (c - mean)^2; when
        # every non-empty state has the same c, it and v_e are both rounding of
        # c's scale, which the floor absorbs instead of comparing at huge z
        atol = 1e-12 * (exact.var_cs + exact.mean_cs**2)
        var_ok = int(_within(stats.v_e, exact.var_cs, stats.v_e_se, sigma, atol))
        return checked, passed, var_ok

    results = [one(i) for i in range(n_designs)]
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
class WindowEnsemble:
    """Per-seed readouts of a window-sampling ensemble.

    ``outcomes`` holds one record per seed: ``c_hat`` and ``covers_zero``
    (K, K), and the floats ``v_e``, ``v_e_se``, ``moment_zero`` and
    ``moment_empirical``.  Each field is also an array over the seeds.
    """

    outcomes: np.recarray

    def coverage_fraction(self, cells: Sequence[tuple[int, int]]) -> float:
        """Fraction of (seed, cell) combinations whose CI covers zero."""
        a, b = np.asarray(cells, dtype=np.intp).reshape(-1, 2).T
        flags = self.outcomes.covers_zero[:, a, b][~np.isnan(self.outcomes.c_hat[:, a, b])]
        return float(flags.mean()) if flags.size else np.nan

    def cell_values(self, a: int, b: int) -> np.ndarray:
        return self.outcomes.c_hat[:, a, b]

    def cell_z(self, a: int, b: int) -> float:
        """Mean / SE-of-mean of a dependence cell across seeds."""
        return _mean_z(self.cell_values(a, b))

    def gy_null_z(self) -> float:
        """Paired z of (independence-model estimate - empirical variance)."""
        return _mean_z(self.outcomes.moment_zero - self.outcomes.v_e)

    def improvement_fraction(self) -> float:
        """Fraction of seeds where plugging the empirical dependence matrix
        into the moment estimator beats the independence baseline."""
        o = self.outcomes
        wins = (abs(o.moment_empirical - o.v_e) < abs(o.moment_zero - o.v_e))[
            np.isfinite(o.moment_empirical) & np.isfinite(o.v_e)]
        return float(wins.mean()) if wins.size else np.nan


def _mean_z(values: np.ndarray) -> float:
    """Mean / SE-of-mean of the finite ``values``; NaN when fewer than two
    are finite."""
    values = values[np.isfinite(values)]
    if len(values) < 2:
        return np.nan
    return float(values.mean() / (values.std(ddof=1) / np.sqrt(len(values))))


def _aggregate_seeds(
    draws: Sequence[tuple[np.ndarray, np.ndarray]], table: ClassTable
) -> WindowEnsemble:
    """The ensemble of every seed's (R, K) (populations, window counts),
    stacked and summarized in one pass with each seed a group."""
    if not draws:
        raise ValueError("need at least one seed")
    pops, counts = (np.concatenate(parts) for parts in zip(*draws))
    est = inclusion_from_fractions(*pair_fractions(counts, pops), groups=len(draws))
    stats = ReplicateStats.from_counts(counts, table, groups=len(draws))
    report = compare_estimators(stats, est, table)
    k = table.k
    return WindowEnsemble(np.rec.fromarrays(
        [est.c_hat, empirical_dependence(est).covers_zero(), stats.v_e, stats.v_e_se,
         *(report.row("moment", dep, "replicate_mean").value for dep in ("zero", "empirical"))],
        dtype=[("c_hat", float, (k, k)), ("covers_zero", bool, (k, k)), ("v_e", float),
               ("v_e_se", float), ("moment_zero", float), ("moment_empirical", float)],
    ))


def window_ensemble(
    params: ProcessParams,
    table: ClassTable,
    window: tuple[float, float],
    replicates: int,
    n_seeds: int,
    master_seed: int,
) -> WindowEnsemble:
    """Window-sample ``n_seeds`` independent fields, each from its own
    derived streams, and collect per-seed dependence estimates and
    estimator comparisons."""

    def one(seed_index: int) -> tuple[np.ndarray, np.ndarray]:
        field_seed, window_seed = derived_seeds(master_seed, seed_index, count=2)
        design = SelectionDesign.window(generate_field(params, table, field_seed), *window)
        counts = replicate_counts(design, table, replicates, window_seed)
        pop = np.bincount(design.class_of, minlength=table.k)
        return np.broadcast_to(pop, counts.shape), counts

    return _aggregate_seeds([one(s) for s in range(n_seeds)], table)


def poisson_null_params(intensity: float = 500.0) -> ProcessParams:
    return ProcessParams(
        variant="poisson", width=1.0, height=1.0, mixing=(0.5, 0.5), intensity=intensity
    )


def _window_count_rates(params: ProcessParams, window: tuple[float, float]) -> np.ndarray:
    """(2, K) Poisson rates of each class's count inside one toroidal
    ``window`` of a Poisson field (row 0) and outside it (row 1), after
    checking that the law applies and that the window fits the domain."""
    if params.variant != "poisson":
        raise ValueError(f"the window-count law holds for poisson fields, not {params.variant}")
    if not (0 < window[0] <= params.width and 0 < window[1] <= params.height):
        raise ValueError(f"window {window} must be positive and fit inside the domain")
    inside = window[0] * window[1]
    return params.intensity * np.outer((inside, params.area - inside), params.mixing)


def _draw_window_counts(
    rates: np.ndarray, replicates: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(R, K) populations and window counts from one Poisson draw of every
    replicate's inside and outside counts at the (2, K) ``rates``."""
    split = rng.poisson(rates, size=(replicates, *rates.shape))
    return split[:, 0] + split[:, 1], split[:, 0]


def poisson_window_counts(
    params: ProcessParams,
    window: tuple[float, float],
    replicates: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(R, K) class populations and window counts of ``replicates`` fresh
    Poisson fields, each sampled by one uniformly anchored toroidal window.

    Drawn from the exact law of that process rather than by generating the
    fields.  Class u's particles form a Poisson process of intensity
    intensity * mixing_u, and the window and the rest of the domain are
    disjoint, so by the colouring theorem the counts inside (rate
    intensity * mixing_u * w * h) and outside (rate intensity * mixing_u *
    (W * H - w * h)) are independent Poisson variates whatever the anchor.
    The population is their sum; the window count is the inside count.
    """
    return _draw_window_counts(_window_count_rates(params, window), replicates, rng)


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
    Poisson field with i.i.d. labels is K independent Poisson processes,
    and each one's counts in the disjoint window and remainder of the
    domain are independent Poisson variates, so every class's window count
    and outside count are 2K independent Poisson counts.  Fresh fields make
    the replicates independent.  The window is checked and the (2, K) rates
    set once; each seed then makes one draw from its own derived stream,
    and the seeds are summarized together.

    ``threads`` is accepted for compatibility and ignored: the seeds run
    serially, because a thread pool made every ensemble slower.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    rates = _window_count_rates(poisson_null_params(intensity), window)

    def one(seed_index: int) -> tuple[np.ndarray, np.ndarray]:
        return _draw_window_counts(rates, replicates, derived_rng(master_seed, seed_index))

    return _aggregate_seeds([one(s) for s in range(n_seeds)], binary_table())


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

    rows = np.array([one(s) for s in range(n_seeds)])
    raw_ratio, raw_ci = _ratio_ci(rows[:, 1], rows[:, 0])
    corrected_ratio, corrected_ci = _ratio_ci(rows[:, 3], rows[:, 2])
    return SizeBiasResult(
        raw_ratio, raw_ci, corrected_ratio, corrected_ci,
        (float(rows[:, 0].sum()), float(rows[:, 1].sum())),
    )


# ---------------------------------------------------------------------------
# Adjacency-vs-oracle calibration and monotonicity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationCase:
    label: str
    oracle_c: np.ndarray
    oracle_se: np.ndarray
    adjacency_c: np.ndarray
    adjacency_se: np.ndarray


@dataclass(frozen=True)
class CalibrationReport:
    """Agreement between the adjacency estimator and the window oracle.

    Each case holds per-process means over fields with their standard
    errors between fields.  The oracle is exact on each field (its window
    C from pair overlaps), so ``oracle_se`` is the field-to-field spread
    alone; ``adjacency_se`` holds that spread and the transects' noise.
    ``spearman`` is the rank correlation across ensemble cases of the two
    dependence series; ``sign_agreement`` the fraction of informative
    cells with matching sign.  ``null_regime`` flags ensembles whose
    oracle values are statistically indistinguishable from zero, where
    sign agreement carries no information.  ``notes`` records the fixed
    conventions under audit (symmetrized transitions; inter-particle gaps
    carry no state).
    """

    cases: tuple[CalibrationCase, ...]
    spearman: float
    sign_agreement: float
    null_regime: bool
    notes: tuple[str, ...] = (
        "transitions symmetrized (directional counts folded)",
        "gaps between particles carry no chain state",
    )


def _mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean over two or more seeds (the leading axis) of the finite
    ``values`` and its SE, NaN for a cell of one value.  ``np.nanmean`` and
    ``np.nanstd`` would warn on cells of no or one value: the mean is taken as
    ``nansum`` over the count, and zeros stand in for those cells in the SE."""
    counted = np.sum(~np.isnan(values), axis=0)
    thin, n = counted < 2, np.sum(np.isfinite(values), axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.nanstd(np.where(thin, 0.0, values), axis=0, ddof=1) / np.sqrt(np.maximum(n, 1))
        return np.nansum(values, axis=0) / counted, np.where(thin, np.nan, se)


def calibrate_against_oracle(
    processes: Sequence[tuple[str, ProcessParams]],
    table: ClassTable,
    window: tuple[float, float],
    transects: TransectSpec,
    master_seed: int,
    n_seeds: int,
) -> CalibrationReport:
    """Compare adjacency-based and window-oracle dependence estimates over
    an ensemble of field processes.

    For every process and seed a field is generated and measured both
    ways, from the field's one cell index, which is sorted once: the
    oracle is the field's exact window C (:func:`window_dependence`), the
    adjacency estimate comes from transects cast on it.  Per-process means
    are compared by Spearman rank correlation and sign agreement.  When the
    oracle means are all within two standard errors of zero the ensemble
    is flagged as a null regime where sign agreement is not meaningful.
    The standard errors are taken between fields, so ``n_seeds`` must be at
    least 2; the oracle's is then the field-to-field spread alone.  Each
    field keeps its three derived seeds (field, an unused window stream,
    transects), so the adjacency estimates do not depend on the oracle.
    """
    if n_seeds < 2:
        raise ValueError(f"n_seeds must be >= 2: a between-field standard error needs "
                         f"two fields, got {n_seeds}")

    def one_case(case_index: int, label: str, params: ProcessParams) -> CalibrationCase:
        oracle, adjacency = [], []
        for s in range(n_seeds):
            field_seed, _, transect_seed = derived_seeds(master_seed, case_index, s, count=3)
            field = generate_field(params, table, field_seed)
            oracle.append(window_dependence(field, *window, table.k).c_exact)
            adjacency.append(
                adjacency_dependence_for_field(field, table, transects, transect_seed)[0])
        return CalibrationCase(label, *_mean_and_se(np.stack(oracle)),
                               *_mean_and_se(np.stack(adjacency)))

    cases = [one_case(i, *process) for i, process in enumerate(processes)]

    # every case's upper-triangle cells, case by case, where both are finite
    iu = np.triu_indices(table.k)
    oracle, oracle_se, adjacency = (
        np.array([getattr(case, name)[iu] for case in cases]).ravel()
        for name in ("oracle_c", "oracle_se", "adjacency_c")
    )
    finite = np.isfinite(oracle) & np.isfinite(adjacency)
    oracle, oracle_se, adjacency = oracle[finite], oracle_se[finite], adjacency[finite]
    if len(oracle) >= 2 and np.ptp(oracle) > 0 and np.ptp(adjacency) > 0:
        from scipy.stats import spearmanr  # deferred: scipy.stats is slow to import

        rho = float(spearmanr(oracle, adjacency).statistic)
    else:
        rho = np.nan
    # a cell is informative when its oracle mean clears its own noise floor
    informative = np.abs(oracle) > 2.0 * np.where(np.isfinite(oracle_se), oracle_se, np.inf)
    if informative.any():
        agree = float(np.mean(np.sign(oracle[informative]) == np.sign(adjacency[informative])))
    else:
        agree = np.nan
    return CalibrationReport(tuple(cases), rho, agree, not informative.any())


@dataclass(frozen=True)
class MonotonicityResult:
    cluster_radii: tuple[float, ...]
    oracle_series: tuple[float, ...]
    adjacency_series: tuple[float, ...]
    spearman: float


def monotonicity_sweep(
    cluster_radii: Sequence[float] = (0.10, 0.08, 0.06, 0.045, 0.03),
    n_seeds: int = 25,
    window: tuple[float, float] = (0.04, 0.04),
    transects: TransectSpec = TransectSpec(count=30, length=1.0),
    master_seed: int = 88_02,
) -> MonotonicityResult:
    """Sweep cluster tightness; compare the mean same-class dependence from
    the adjacency estimator against the exact window oracle.

    Tightness grows as the cluster radius shrinks; both estimators should
    move together (strongly negative same-class dependence for tight
    clusters), giving a high rank correlation across the sweep."""
    table = binary_table()
    processes = [
        (f"cluster_radius={r:g}", clustered_params(cluster_radius=r))
        for r in cluster_radii
    ]
    report = calibrate_against_oracle(
        processes, table, window, transects, master_seed=master_seed, n_seeds=n_seeds,
    )
    oracle_series, adjacency_series = (
        tuple(float(np.nanmean(np.diag(getattr(case, name)))) for case in report.cases)
        for name in ("oracle_c", "adjacency_c")
    )
    from scipy.stats import spearmanr  # deferred: scipy.stats is slow to import

    rho = float(spearmanr(oracle_series, adjacency_series).statistic)
    return MonotonicityResult(
        tuple(float(r) for r in cluster_radii), oracle_series, adjacency_series, rho,
    )
