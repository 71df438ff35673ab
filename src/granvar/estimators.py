"""Closed-form variance estimators for particulate sampling.

Two families are implemented.  The moment-based family predicts the
variance of the sample concentration from per-class deviations around the
sample concentration; its first term is the classical Gy model and the
dependence-weighted double sum is a correction for non-independent pair
selection.  The Horvitz-Thompson family weights class totals by inverse
inclusion probabilities and is exact under constant sample mass and
correct sampling; it admits a general form (explicit first/second-order
inclusion probabilities), a finite-batch form, and an infinite-batch form.

Each formula has one kernel over (R, K) class-count rows
(:func:`sample_totals`, :func:`sample_concentration`, :func:`moment_terms`,
:func:`ht_terms`); the scalar estimators call them with R = 1.  The
kernels are row-local: a row's per-class terms are added left to right
from 0, and its quadratic form sum_ij a_i C_ij a_j is one vector-matrix
product of that row alone, ((a @ C) * a).sum(-1), batched over the rows.
A single matrix product over all rows may round a row differently with
the batch it sits in, so a value evaluated once per distinct row, or as a
scalar, would then differ from the same row evaluated in another batch.
The dependence and pair weights may also be per-row stacks, (R, K, K)
with one (K, K) matrix per row (and per-row diagonal weights (R, K)), and
a row then gets the same value as with its own matrix.

Replicate means of these values need no per-row kernel: they are linear
in the per-row moment matrices a aᵀ / M² (see
:func:`granvar.selection.compare_estimators`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDependenceError, FeasibilityError, NonIdentifiableError
from .model import BatchSpec, ClassTable, DependenceMatrix, ExpectationSummary, SampleSummary

#: Canonical grid over which the single-class dependence solution is tabulated.
GRID_N_K = (10, 100, 1000, 10000)
GRID_RATIO = (0.1, 0.2, 0.4, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class VarianceResult:
    """A variance value together with its two constituent terms.

    For the moment-based estimators ``value = gy_term - correction_term``
    where ``gy_term`` is the dependence-free (Gy) part.  For the
    Horvitz-Thompson estimator the same fields hold the diagonal sum and
    the dependence-weighted double sum: ``value = gy_term - correction_term``
    still, but ``gy_term`` is the inverse-probability diagonal term rather
    than the Gy model value.
    """

    value: float
    gy_term: float
    correction_term: float

    def __post_init__(self):
        residual = abs(self.value - (self.gy_term - self.correction_term))
        scale = max(abs(self.gy_term), abs(self.correction_term), abs(self.value))
        if residual > 1e-12 * max(scale, 1e-300):
            raise ValueError("value must equal gy_term - correction_term")


@dataclass(frozen=True)
class EmpiricalVarianceInput:
    """An empirically determined concentration variance and the count of
    analyte-bearing particles it refers to."""

    v_e: float
    n_k: float

    def __post_init__(self):
        if self.v_e < 0:
            raise ValueError(f"empirical variance must be >= 0, got {self.v_e}")
        if self.n_k < 1:
            raise ValueError(f"particle count must be >= 1, got {self.n_k}")


@dataclass(frozen=True)
class DependenceSolution:
    """Solved single-class dependence value; ``infeasible`` marks values >= 1
    (which no selection mechanism can realize but a user may legitimately
    obtain from inconsistent variance inputs)."""

    value: float
    infeasible: bool


def second_order_inclusion(q_i: float, q_j: float, c_ij: float) -> float:
    """Pair inclusion probability q_i * q_j * (1 - c_ij).

    Raises FeasibilityError when the result leaves [0, min(q_i, q_j)]:
    no selection design can give a pair a probability above either
    member's own inclusion probability.
    """
    if not (0.0 < q_i <= 1.0 and 0.0 < q_j <= 1.0):
        raise ValueError(f"first-order probabilities must be in (0, 1], got {q_i}, {q_j}")
    if degenerate_dependence(c_ij):
        raise DegenerateDependenceError(f"dependence value must be < 1, got {c_ij}")
    pi_ij = q_i * q_j * (1.0 - c_ij)
    if pi_ij < 0.0 or pi_ij > min(q_i, q_j):
        raise FeasibilityError(
            f"pair probability {pi_ij} outside [0, {min(q_i, q_j)}] "
            f"for q_i={q_i}, q_j={q_j}, c_ij={c_ij}"
        )
    return pi_ij


def _as_dependence(c, k: int) -> np.ndarray:
    if isinstance(c, DependenceMatrix):
        arr = c.values
    else:
        arr = np.asarray(c, dtype=float)
    if arr.shape != (k, k):
        raise ValueError(f"dependence matrix must be {k}x{k}, got {arr.shape}")
    return arr


def degenerate_dependence(c) -> bool:
    """Whether any dependence value is not below 1 (NaN included), where
    the weights 1 / (1 - C) are undefined."""
    return not np.all(np.asarray(c) < 1.0)


def _ht_dependence(c, k: int) -> np.ndarray:
    cm = _as_dependence(c, k)
    if degenerate_dependence(cm):
        raise DegenerateDependenceError("all dependence values must be < 1")
    return cm


def _row_sums(terms) -> np.ndarray:
    """Elementwise sum of per-row term arrays, added in order from 0."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def _class_sums(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_u N_u weights_u per row of (R, K) counts, for (K,) ``weights``
    or per-row (R, K) ones."""
    return _row_sums(counts[:, u] * weights[..., u] for u in range(counts.shape[1]))


def _quadratic_form(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_ij a_i p_ij a_j of each row of (R, K) ``a``, for a (K, K) ``p``
    or a per-row (R, K, K) stack; each row is its own vector-matrix
    product, so its value does not depend on the other rows."""
    return (np.matmul(a[:, None, :], p)[:, 0] * a).sum(axis=-1)


def sample_totals(counts: np.ndarray, table: ClassTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sample mass sum_u N_u m_u and analyte mass
    sum_u N_u (m_u c_u) of (R, K) class counts."""
    m = table.masses
    return _class_sums(counts, m), _class_sums(counts, m * table.concentrations)


def sample_concentration(
    mass: np.ndarray, analyte: np.ndarray, table: ClassTable, counts: np.ndarray | None = None
) -> np.ndarray:
    """Per-row sample concentration c_s = analyte / mass of
    :func:`sample_totals`' totals; exactly the common concentration when
    every class of ``table`` has the same one, whatever the mass, where the
    division would round it differently from row to row.  Given the (R, K)
    ``counts``, a row whose present classes (count > 0) share one
    concentration gets exactly that one too; the scalar summaries of
    :mod:`granvar.model` keep the division there."""
    common = table.common_concentration
    if common is not None:
        return np.full(np.shape(mass), common)
    if counts is None:
        return analyte / mass
    # the concentration levels each row holds: with one, c_s is that level
    levels = np.array(sorted(set(table.concentrations.tolist())))
    held = (counts @ (table.concentrations[:, None] == levels).astype(float) > 0).astype(float)
    found, level = (held @ np.column_stack([np.ones(len(levels)), levels])).T
    return np.where(found == 1.0, level, analyte / mass)


def moment_deviations(
    counts: np.ndarray, cs: np.ndarray, table: ClassTable
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row Gy numerator sum_u N_u m_u^2 (c_u - c_s)^2 and (R, K)
    deviations a_u = N_u m_u (c_u - c_s) of (R, K) class counts with sample
    concentrations ``cs``."""
    m = table.masses
    dev = table.concentrations - cs[:, None]
    gy = _row_sums(counts[:, u] * (m[u] * m[u]) * dev[:, u] * dev[:, u] for u in range(table.k))
    return gy, counts * m * dev


def moment_terms(
    counts: np.ndarray, cs: np.ndarray, table: ClassTable, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row numerators (Gy, correction) of the moment form for (R, K)
    class counts with sample concentrations ``cs``:

    Gy = sum_u N_u m_u^2 (c_u - c_s)^2,  correction = sum_ij a_i C_ij a_j

    with a_u = N_u m_u (c_u - c_s) (:func:`moment_deviations`); the
    variance is (Gy - correction) / M_s^2.
    """
    gy, a = moment_deviations(counts, cs, table)
    return gy, _quadratic_form(a, c)


def ht_totals(counts: np.ndarray, table: ClassTable) -> np.ndarray:
    """(R, K) per-class analyte masses v_u = N_u m_u c_u of (R, K) counts."""
    return counts * (table.masses * table.concentrations)


def ht_terms(
    counts: np.ndarray, table: ClassTable, d: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sums (sum_u N_u d_u, sum_ij v_i P_ij v_j), v = :func:`ht_totals`,
    of (R, K) class counts.

    The Horvitz-Thompson forms differ only in the per-class diagonal
    weights ``d``, the pair weights ``p`` and the mass they divide by.
    """
    return _class_sums(counts, d), _quadratic_form(ht_totals(counts, table), p)


def infinite_batch_weights(table: ClassTable, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, P) of the infinite-batch Horvitz-Thompson form:
    d_u = m_u^2 c_u^2 / (1 - C_uu) and P = C / (1 - C), for a (K, K) ``c``
    or a (G, K, K) stack (then d is (G, K))."""
    m, conc = table.masses, table.concentrations
    return m * m * conc * conc / (1.0 - np.diagonal(c, axis1=-2, axis2=-1)), c / (1.0 - c)


def _variance_result(first: np.ndarray, second: np.ndarray, mass: float) -> VarianceResult:
    """The VarianceResult of one row's numerators: value (first - second) / M^2."""
    m2 = mass * mass
    return VarianceResult(
        float((first - second)[0] / m2), float(first[0] / m2), float(second[0] / m2)
    )


def _moment_variance(summary, table: ClassTable, c) -> VarianceResult:
    cm = _as_dependence(c, table.k)
    counts = summary.counts_array[None, :]
    terms = moment_terms(counts, np.array([summary.concentration]), table, cm)
    return _variance_result(*terms, summary.mass)


def variance_expected(
    exp: ExpectationSummary, table: ClassTable, c: DependenceMatrix | np.ndarray
) -> VarianceResult:
    """Variance of the sample concentration from expected class counts.

    value = (1/M'^2) * sum_i N'_i m_i^2 (c_i - c'_s)^2
          - (1/M'^2) * sum_ij C_ij N'_i N'_j m_i m_j (c_i - c'_s)(c_j - c'_s)

    The first term alone is the classical Gy prediction; the double sum is
    the dependent-selection correction, reported separately.
    """
    return _moment_variance(exp, table, c)


def variance_sample(
    s: SampleSummary, table: ClassTable, c: DependenceMatrix | np.ndarray
) -> VarianceResult:
    """Plug-in estimator: same form as variance_expected with observed
    sample quantities in place of expectations."""
    return _moment_variance(s, table, c)


def variance_gy(s: SampleSummary, table: ClassTable) -> float:
    """Classical Gy estimate: the dependence-free term of variance_sample.

    Distinct from :func:`gy_reference_variance`, which is the single-class
    reference value c_s * c_k * m_k / M_s used by the dependence solver.
    """
    return variance_sample(s, table, np.zeros((table.k, table.k))).gy_term


def gy_reference_variance(c_s: float, c_k: float, m_k: float, sample_mass: float) -> float:
    """Reference variance c_s * c_k * m_k / M_s for the single-analyte-class
    case: the value of the empirical variance at which the solved
    dependence parameter is exactly zero.

    Not the same quantity as :func:`variance_gy` (the dependence-free term
    of the moment estimator); for the canonical one-analyte sample the two
    differ, and both are exposed deliberately.
    """
    if not sample_mass > 0:
        raise ValueError(f"sample mass must be > 0, got {sample_mass}")
    return c_s * c_k * m_k / sample_mass


def variance_ht(
    s: SampleSummary, table: ClassTable, c: DependenceMatrix | np.ndarray
) -> VarianceResult:
    """Horvitz-Thompson variance estimator (infinite batch).

    value = (1/M_s^2) sum_i N_i m_i^2 c_i^2 / (1 - C_ii)
          - (1/M_s^2) sum_ij C_ij N_i N_j c_i c_j m_i m_j / (1 - C_ij)

    Assumes constant sample mass and correct sampling.  Any C_ij >= 1
    raises DegenerateDependenceError.
    """
    cm = _ht_dependence(c, table.k)
    terms = ht_terms(s.counts_array[None, :], table, *infinite_batch_weights(table, cm))
    return _variance_result(*terms, s.mass)


def ht_single_class(
    c_s: float, c_k: float, m_k: float, sample_mass: float, n_k: float, c_kk: float
) -> float:
    """Horvitz-Thompson variance when only class k carries analyte.

    Equals (1/M_s) * c_s * (1 - N_k C_kk) * c_k * m_k / (1 - C_kk); the
    masses of the analyte-free classes drop out entirely.
    """
    if degenerate_dependence(c_kk):
        raise DegenerateDependenceError(f"dependence value must be < 1, got {c_kk}")
    if not sample_mass > 0:
        raise ValueError(f"sample mass must be > 0, got {sample_mass}")
    return c_s * (1.0 - n_k * c_kk) * c_k * m_k / ((1.0 - c_kk) * sample_mass)


def solve_single_class_dependence(
    e: EmpiricalVarianceInput, v_gy: float
) -> DependenceSolution:
    """Invert the single-class estimator for the dependence parameter.

    Given an empirical variance V_e and the reference value
    v_gy = c_s * c_k * m_k / M_s, returns
    (V_e - v_gy) / (V_e - N_k * v_gy).  The solution round-trips through
    ht_single_class.  A zero denominator raises NonIdentifiableError;
    solutions >= 1 are returned with the infeasible flag set rather than
    raised, since inconsistent empirical inputs can legitimately produce
    them.
    """
    if not v_gy > 0:
        raise ValueError(f"reference variance must be > 0, got {v_gy}")
    denom = e.v_e - e.n_k * v_gy
    if denom == 0.0:
        raise NonIdentifiableError(
            f"V_e == N_k * v_gy ({e.v_e}): dependence value is not identifiable"
        )
    value = (e.v_e - v_gy) / denom + 0.0  # + 0.0 normalizes -0.0
    return DependenceSolution(value, infeasible=value >= 1.0)


def dependence_grid(
    n_k_values: Sequence[float] = GRID_N_K,
    ratio_values: Sequence[float] = GRID_RATIO,
) -> np.ndarray:
    """Single-class dependence solutions over an (N_k, V_e/v_gy) grid.

    Rows follow ``n_k_values``, columns ``ratio_values``; each cell is the
    solved dependence value at unit reference variance.
    """
    grid = np.empty((len(n_k_values), len(ratio_values)))
    for a, n_k in enumerate(n_k_values):
        for b, r in enumerate(ratio_values):
            grid[a, b] = solve_single_class_dependence(
                EmpiricalVarianceInput(v_e=float(r), n_k=float(n_k)), v_gy=1.0
            ).value
    return grid


def pi_expanded_concentration(
    s: SampleSummary, table: ClassTable, batch: BatchSpec
) -> float:
    """Inverse-probability-weighted estimate of the batch concentration:
    sum_i N_i m_i c_i / (M_batch * pi_i).

    When every pi_i equals M_s / M_batch this reduces to the sample
    concentration c_s.
    """
    if batch.k != table.k:
        raise ValueError(f"batch has {batch.k} classes, table has {table.k}")
    q = batch.q
    if np.any(q <= 0):
        raise ValueError("all first-order probabilities must be > 0")
    weights = table.masses * table.concentrations / (batch.batch_mass * q)
    return float(_class_sums(s.counts_array[None, :], weights)[0])


def variance_ht_general(
    s: SampleSummary,
    table: ClassTable,
    pi: Sequence[float],
    pi_pair: np.ndarray,
    batch: BatchSpec,
) -> float:
    """Horvitz-Thompson variance with explicit inclusion probabilities.

    value = sum_ij N_i N_j (1/(pi_i pi_j) - 1/pi_ij) m_i m_j c_i c_j / M_batch^2
          + sum_i  N_i (1/pi_ii - 1/pi_i) m_i^2 c_i^2 / M_batch^2

    The pair weight vanishes when pi_ij = pi_i * pi_j, so independent
    selection contributes only through the diagonal sum.  A zero pi in a
    denominator whose coefficient is non-zero raises FeasibilityError.
    """
    k = table.k
    pi = np.asarray(pi, dtype=float)
    pi_pair = np.asarray(pi_pair, dtype=float)
    if pi.shape != (k,) or pi_pair.shape != (k, k):
        raise ValueError("pi must be length K and pi_pair K x K")
    if np.any(pi <= 0):
        raise FeasibilityError("all first-order probabilities must be > 0")
    counts = s.counts_array
    w = counts * table.masses * table.concentrations
    # terms whose coefficient is 0 may have zero pair probabilities; their
    # weights are masked to 0 before any reciprocal is taken
    unused = np.outer(w, w) == 0.0
    needed = ~unused & (pi_pair <= 0)
    if needed.any():
        i, j = np.argwhere(needed)[0]
        raise FeasibilityError(
            f"pair probability pi[{i},{j}] must be > 0 for occupied classes"
        )
    inv_pair = 1.0 / np.where(unused, 1.0, pi_pair)
    p = np.where(unused, 0.0, 1.0 / np.outer(pi, pi) - inv_pair)
    m2c2 = table.masses**2 * table.concentrations**2
    d = np.where(np.diag(unused), 0.0, m2c2 * (np.diag(inv_pair) - 1.0 / pi))
    diag_sum, pair_sum = ht_terms(counts[None, :], table, d, p)
    return float((pair_sum + diag_sum)[0] / (batch.batch_mass * batch.batch_mass))


def variance_ht_finite_batch(
    s: SampleSummary,
    table: ClassTable,
    c: DependenceMatrix | np.ndarray,
    batch: BatchSpec,
) -> float:
    """Horvitz-Thompson variance for a finite batch under correct sampling.

    value = sum_ij N_i N_j (1 - 1/(1-C_ij)) m_i m_j c_i c_j / M_s^2
          + sum_i (1/(1-C_ii) - M_s/M_batch) N_i m_i^2 c_i^2 / M_s^2

    Converges to variance_ht as M_s / M_batch -> 0; the difference is
    exactly (M_s/M_batch) * sum_i N_i m_i^2 c_i^2 / M_s^2.
    """
    cm = _ht_dependence(c, table.k)
    if batch.batch_mass < s.mass:
        raise ValueError("batch mass must be at least the sample mass")
    m, conc = table.masses, table.concentrations
    d = (1.0 / (1.0 - np.diag(cm)) - s.mass / batch.batch_mass) * (m * m * conc * conc)
    diag_sum, pair_sum = ht_terms(s.counts_array[None, :], table, d, 1.0 - 1.0 / (1.0 - cm))
    return float((pair_sum + diag_sum)[0] / (s.mass * s.mass))
