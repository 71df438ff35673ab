"""Built-in consistency checks.

Each check is a named, self-contained verification of an algebraic
identity or an oracle agreement.  The ``verify`` CLI subcommand runs them
and reports one pass/fail line per check; with ``quick`` every check uses
fewer draws and the run finishes in a few seconds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import estimators as est
from .experiments import oracle_agreement_experiment
from .model import BatchSpec, ClassTable, DependenceMatrix, derive_summary
from .selection import SelectionDesign, enumerate_design
from .util import derived_rng, sig_figure_ulp

#: Reference values for the canonical single-class dependence grid,
#: quoted to two significant figures (rows: N_k in GRID_N_K, columns:
#: variance ratio in GRID_RATIO).
REFERENCE_GRID = (
    (9.1e-2, 8.1e-2, 6.3e-2, 0.0, -1.3e-1, -5.0e-1),
    (9.0e-3, 8.0e-3, 6.0e-3, 0.0, -1.0e-2, -3.1e-2),
    (9.0e-4, 8.0e-4, 6.0e-4, 0.0, -1.0e-3, -3.0e-3),
    (9.0e-5, 8.0e-5, 6.0e-5, 0.0, -1.0e-4, -3.0e-4),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def grid_matches_reference() -> tuple[bool, float]:
    """Compare the computed dependence grid against REFERENCE_GRID within
    one unit of the second significant figure; returns (ok, worst excess)."""
    grid = est.dependence_grid()
    worst = 0.0
    for a, row in enumerate(REFERENCE_GRID):
        for b, ref in enumerate(row):
            got = grid[a, b]
            tol = sig_figure_ulp(ref, 2) if ref != 0 else 1e-15
            excess = abs(got - ref) / tol
            worst = max(worst, excess)
    return worst <= 1.0, worst


def _check_grid(seed: int, quick: bool) -> CheckResult:
    ok, worst = grid_matches_reference()
    return CheckResult(
        "dependence_grid_reference", ok,
        f"worst deviation {worst:.3f} units of the 2nd significant figure",
    )


def random_single_class_case(rng: np.random.Generator) -> tuple[float, float, float, float, int, float]:
    """(c_s, c_k, m_k, sample_mass, n_k, v_e) with a solvable, feasible case."""
    c_s = rng.uniform(0.05, 2.0)
    c_k = rng.uniform(0.05, 2.0)
    m_k = rng.uniform(0.1, 5.0)
    sample_mass = rng.uniform(1.0, 100.0)
    n_k = int(rng.integers(2, 10_000))
    v_gy = c_s * c_k * m_k / sample_mass
    # keep the solution below 1 and the solver well conditioned
    r = rng.uniform(0.05, 0.8 * n_k)
    return c_s, c_k, m_k, sample_mass, n_k, r * v_gy


def _check_round_trip(seed: int, quick: bool) -> CheckResult:
    rng = derived_rng(seed, 1)
    draws = 200 if quick else 1000
    worst = 0.0
    for _ in range(draws):
        c_s, c_k, m_k, mass, n_k, v_e = random_single_class_case(rng)
        v_gy = est.gy_reference_variance(c_s, c_k, m_k, mass)
        sol = est.solve_single_class_dependence(
            est.EmpiricalVarianceInput(v_e=v_e, n_k=n_k), v_gy
        )
        back = est.ht_single_class(c_s, c_k, m_k, mass, n_k, sol.value)
        worst = max(worst, abs(back - v_e) / v_e)
    return CheckResult(
        "single_class_round_trip", worst <= 1e-12,
        f"worst relative error {worst:.3e} over {draws} draws",
    )


def random_summary_scenario(rng: np.random.Generator, allow_positive_c: bool = True):
    """Random (table, sample, batch, dependence, q) with feasible dependence."""
    k = int(rng.integers(1, 5))
    table = ClassTable.from_arrays(
        masses=rng.uniform(0.5, 3.0, size=k),
        concentrations=rng.uniform(0.0, 2.0, size=k),
    )
    counts = rng.integers(1, 60, size=k)
    sample = derive_summary(counts, table)
    q = float(rng.uniform(0.01, 0.5))
    batch = BatchSpec.correct(sample.mass / q, sample.mass, k)
    hi = 0.9 if allow_positive_c else 0.0
    lo = max(1.0 - 1.0 / q, -3.0)
    c = rng.uniform(lo, hi, size=(k, k))
    c = (c + c.T) / 2.0
    dep = DependenceMatrix(c, q=[q] * k)
    return table, sample, batch, dep, q


def _check_ht_chain_equality(seed: int, quick: bool) -> CheckResult:
    """General-probability and finite-batch Horvitz-Thompson forms agree
    when the pair probabilities follow the dependence model and first-order
    probabilities equal the sampling ratio."""
    rng = derived_rng(seed, 2)
    draws = 200 if quick else 1000
    worst = 0.0
    for _ in range(draws):
        table, sample, batch, dep, q = random_summary_scenario(rng)
        k = table.k
        pi = np.full(k, q)
        pij = q * q * (1.0 - dep.values)
        general = est.variance_ht_general(sample, table, pi, pij, batch)
        finite = est.variance_ht_finite_batch(sample, table, dep, batch)
        scale = max(abs(general), abs(finite))
        if scale == 0.0:
            continue
        worst = max(worst, abs(general - finite) / scale)
    return CheckResult(
        "ht_chain_general_vs_finite_batch", worst <= 1e-10,
        f"worst relative difference {worst:.3e} over {draws} draws",
    )


def _check_ht_chain_limit(seed: int, quick: bool) -> CheckResult:
    """The finite-batch form converges to the infinite-batch form as the
    batch grows, with the error bounded by the sampling-ratio term."""
    rng = derived_rng(seed, 3)
    draws = 50 if quick else 200
    ratios = [10.0 ** (-e) for e in range(2, 10)]
    ok = True
    worst_excess = 0.0
    for _ in range(draws):
        table, sample, _, dep, _ = random_summary_scenario(rng)
        infinite = est.variance_ht(sample, table, dep).value
        diag = float(
            np.sum(sample.counts_array * table.masses**2 * table.concentrations**2)
        ) / sample.mass**2
        for ratio in ratios:
            batch = BatchSpec.correct(sample.mass / ratio, sample.mass, table.k)
            finite = est.variance_ht_finite_batch(sample, table, dep, batch)
            bound = 10.0 * ratio * diag
            excess = abs(finite - infinite) / bound if bound > 0 else 0.0
            worst_excess = max(worst_excess, excess)
            ok = ok and excess <= 1.0
    return CheckResult(
        "ht_chain_finite_batch_limit", ok,
        f"worst error/bound ratio {worst_excess:.3f} over {draws} draws x {len(ratios)} ratios",
    )


def _check_enumeration_oracle(seed: int, quick: bool) -> CheckResult:
    if quick:
        result = oracle_agreement_experiment(
            n_designs=3, replicates=20_000, master_seed=seed, max_particles=10
        )
    else:
        result = oracle_agreement_experiment(n_designs=20, replicates=100_000, master_seed=seed)
    ok = result.cell_fraction >= 0.99 and result.variance_passed == result.variance_checks
    return CheckResult(
        "enumeration_oracle_agreement", ok,
        f"{result.cells_passed}/{result.cells_checked} cells, "
        f"{result.variance_passed}/{result.variance_checks} variance checks",
    )


def _check_bernoulli_independence(seed: int, quick: bool) -> CheckResult:
    rng = derived_rng(seed, 4)
    ok = True
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        q = rng.uniform(0.1, 1.0, size=k)
        class_of = rng.integers(0, k, size=n)
        table = ClassTable.from_arrays(
            masses=rng.uniform(0.5, 2.0, size=k),
            concentrations=rng.uniform(0.0, 1.0, size=k),
        )
        design = SelectionDesign.bernoulli(q, class_of)
        exact = enumerate_design(design, table)
        for u in range(k):
            if not np.any(class_of == u):
                continue
            ok = ok and exact.pi1[u] == q[u]
            for v in range(k):
                if np.isnan(exact.pi2[u, v]):
                    continue
                ok = ok and exact.pi2[u, v] == q[u] * q[v]
                ok = ok and exact.c_exact[u, v] == 0.0
    return CheckResult(
        "bernoulli_exact_independence", ok,
        "pair probabilities factor exactly; dependence identically zero",
    )


def _check_constant_dependence_null(seed: int, quick: bool) -> CheckResult:
    """A constant dependence matrix contributes nothing to the moment
    estimator: the correction collapses to kappa * (sum_i N_i m_i dev_i)^2
    and the deviation weights sum to zero by the definition of the sample
    concentration (to 1e-10 * M_s), which bounds the correction by
    kappa * 1e-20 plus summation rounding."""
    rng = derived_rng(seed, 5)
    ok = True
    worst = 0.0
    for _ in range(200):
        table, sample, _, _, _ = random_summary_scenario(rng)
        kappa = float(rng.uniform(-2.0, 0.9))
        c = np.full((table.k, table.k), kappa)
        result = est.variance_sample(sample, table, c)
        dev = table.concentrations - sample.concentration
        abs_dev = float(
            np.sum(sample.counts_array * table.masses * np.abs(dev))
        ) / sample.mass
        tol = abs(kappa) * (1e-20 + 1e-12 * abs_dev * abs_dev)
        worst = max(worst, abs(result.correction_term) / max(tol, 1e-300))
        ok = ok and abs(result.correction_term) <= tol
    return CheckResult(
        "constant_dependence_null", ok,
        f"worst |correction|/tolerance {worst:.3g}",
    )


def _check_linearity(seed: int, quick: bool) -> CheckResult:
    """The moment estimator is linear in the dependence matrix."""
    rng = derived_rng(seed, 6)
    ok = True
    for _ in range(200):
        table, sample, _, dep, _ = random_summary_scenario(rng)
        base = est.variance_sample(sample, table, np.zeros((table.k, table.k)))
        one = est.variance_sample(sample, table, dep.values)
        two = est.variance_sample(sample, table, 0.5 * dep.values)
        lhs = one.value - base.value
        rhs = 2.0 * (two.value - base.value)
        scale = max(abs(lhs), abs(rhs), abs(base.value), 1e-300)
        ok = ok and abs(lhs - rhs) <= 1e-10 * scale
        ok = ok and abs(one.correction_term - 2.0 * two.correction_term) <= 1e-10 * max(
            abs(one.correction_term), 1e-300
        )
    return CheckResult("dependence_linearity", ok, "doubling C doubles the correction term")


def _check_shift_invariance(seed: int, quick: bool) -> CheckResult:
    """The moment estimator ignores a constant concentration offset; the
    Horvitz-Thompson estimator does not."""
    rng = derived_rng(seed, 7)
    ok = True
    saw_ht_shift = False
    for _ in range(100):
        table, sample, _, dep, _ = random_summary_scenario(rng)
        delta = float(rng.uniform(0.1, 2.0))
        shifted_table = ClassTable.from_arrays(
            table.masses, table.concentrations + delta
        )
        shifted = derive_summary(sample.counts, shifted_table)
        a = est.variance_sample(sample, table, dep)
        b = est.variance_sample(shifted, shifted_table, dep)
        scale = max(abs(a.value), abs(b.value), 1e-12)
        ok = ok and abs(a.value - b.value) <= 1e-9 * scale
        ht_a = est.variance_ht(sample, table, dep).value
        ht_b = est.variance_ht(shifted, shifted_table, dep).value
        if abs(ht_a - ht_b) > 1e-6 * max(abs(ht_a), abs(ht_b), 1e-12):
            saw_ht_shift = True
    ok = ok and saw_ht_shift
    return CheckResult(
        "concentration_shift_sensitivity", ok,
        "moment form shift-invariant; Horvitz-Thompson form shifts",
    )


def _check_single_class_embedding(seed: int, quick: bool) -> CheckResult:
    """The closed single-class formula agrees with the full
    Horvitz-Thompson estimator on the embedded two-class problem."""
    rng = derived_rng(seed, 8)
    draws = 200 if quick else 1000
    worst = 0.0
    for _ in range(draws):
        n_k = int(rng.integers(1, 200))
        n_other = int(rng.integers(0, 200))
        m_k = float(rng.uniform(0.1, 5.0))
        m_other = float(rng.uniform(0.1, 5.0))
        c_k = float(rng.uniform(0.05, 2.0))
        table = ClassTable.from_arrays([m_k, m_other], [c_k, 0.0])
        sample = derive_summary([n_k, max(n_other, 1)], table)
        c = rng.uniform(-2.0, 0.9, size=(2, 2))
        c = (c + c.T) / 2.0
        full = est.variance_ht(sample, table, c).value
        single = est.ht_single_class(
            sample.concentration, c_k, m_k, sample.mass, n_k, c[0, 0]
        )
        scale = max(abs(full), abs(single), 1e-300)
        worst = max(worst, abs(full - single) / scale)
    return CheckResult(
        "single_class_embedding", worst <= 1e-10,
        f"worst relative difference {worst:.3e} over {draws} draws",
    )


CHECKS: tuple[tuple[str, Callable[[int, bool], CheckResult]], ...] = (
    ("dependence_grid_reference", _check_grid),
    ("single_class_round_trip", _check_round_trip),
    ("ht_chain_general_vs_finite_batch", _check_ht_chain_equality),
    ("ht_chain_finite_batch_limit", _check_ht_chain_limit),
    ("bernoulli_exact_independence", _check_bernoulli_independence),
    ("constant_dependence_null", _check_constant_dependence_null),
    ("dependence_linearity", _check_linearity),
    ("concentration_shift_sensitivity", _check_shift_invariance),
    ("single_class_embedding", _check_single_class_embedding),
    ("enumeration_oracle_agreement", _check_enumeration_oracle),
)

DEFAULT_VERIFY_SEED = 106_033


def run_checks(seed: int = DEFAULT_VERIFY_SEED, quick: bool = False) -> list[CheckResult]:
    """Run every check; ``quick`` makes each one use fewer draws."""
    return [fn(seed, quick) for _, fn in CHECKS]
