"""Selection designs over particle populations.

Three designs are provided.  ``bernoulli`` selects every particle by an
independent per-class coin flip (the classical independence null).
``pairwise_pmf`` draws whole subsets from an explicit pairwise-interaction
mass function, p(s) proportional to
prod_i q_i^{s_i} (1-q_i)^{1-s_i} * prod_{i<j} phi_{ij}^{s_i s_j},
whose inclusion probabilities are exactly enumerable for small n and thus
serve as a ground-truth oracle.  ``window`` selects the particles of a
spatial field whose centers fall in a uniformly placed (toroidally
wrapped) rectangle, which realizes spatial dependence between pair
selections.

Windows are counted through a strip index.  The particles are sorted by x
once per design; for each window a binary search finds the particles
whose x lies in the window's toroidally wrapped x-strip, and only those
candidates go through the half-open membership test
``mod(x - anchor_x, W) < width`` and ``mod(y - anchor_y, H) < height``.
The strip is widened by a margin far above the rounding of that test, so
the counts equal those of testing every particle against every window.

Replicated runs report per-replicate sample summaries, the empirical
variance of the sample concentration, and inclusion-probability estimates
that invert to an empirical dependence matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as sstats

from .errors import EmptySampleError
from .fields import SpatialField
from .model import ClassTable, derive_expectation
from .util import derived_rng

#: Exact enumeration is limited to populations of this size (2^n outcomes).
MAX_ENUM_PARTICLES = 24

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SelectionDesign:
    """One of the three selection designs; build via the classmethods."""

    variant: str
    class_of: tuple[int, ...] | None = None
    q: tuple[float, ...] | None = None
    phi: np.ndarray | None = None
    field: SpatialField | None = None
    window_width: float | None = None
    window_height: float | None = None

    @classmethod
    def bernoulli(cls, q: Sequence[float], class_of: Sequence[int]) -> "SelectionDesign":
        q = tuple(float(v) for v in q)
        for i, qi in enumerate(q):
            if not (0.0 < qi <= 1.0):
                raise ValueError(f"q[{i}] must be in (0, 1], got {qi}")
        class_of = tuple(int(c) for c in class_of)
        if any(c < 0 or c >= len(q) for c in class_of):
            raise ValueError("class ids must index into q")
        return cls("bernoulli", class_of=class_of, q=q)

    @classmethod
    def pairwise_pmf(
        cls, q: Sequence[float], phi: np.ndarray, class_of: Sequence[int]
    ) -> "SelectionDesign":
        q = tuple(float(v) for v in q)
        for i, qi in enumerate(q):
            if not (0.0 < qi <= 1.0):
                raise ValueError(f"q[{i}] must be in (0, 1], got {qi}")
        phi = np.array(phi, dtype=float, copy=True)
        k = len(q)
        if phi.shape != (k, k):
            raise ValueError(f"phi must be {k}x{k}, got {phi.shape}")
        if np.any(phi < 0):
            raise ValueError("pair interaction weights must be >= 0")
        if not np.array_equal(phi, phi.T):
            raise ValueError("pair interaction weights must be symmetric")
        phi.setflags(write=False)
        class_of = tuple(int(c) for c in class_of)
        if len(class_of) > MAX_ENUM_PARTICLES:
            raise ValueError(
                f"pairwise designs support at most {MAX_ENUM_PARTICLES} particles, "
                f"got {len(class_of)}"
            )
        if any(c < 0 or c >= k for c in class_of):
            raise ValueError("class ids must index into q")
        return cls("pairwise_pmf", class_of=class_of, q=q, phi=phi)

    @classmethod
    def window(
        cls, field: SpatialField, width: float, height: float
    ) -> "SelectionDesign":
        if not (0 < width <= field.width and 0 < height <= field.height):
            raise ValueError("window must be positive and fit inside the domain")
        return cls(
            "window",
            class_of=tuple(int(c) for c in field.class_id),
            field=field,
            window_width=float(width),
            window_height=float(height),
        )

    @property
    def n(self) -> int:
        return len(self.class_of)


@dataclass(frozen=True)
class EnumerationResult:
    """Exact inclusion probabilities and concentration moments of a design.

    ``pi_particle``/``pi_pair`` are particle-level; ``pi1``/``pi2`` are
    their class-level averages with the within-class spreads reported in
    ``spread1``/``spread2`` (conditions on class homogeneity hold exactly
    for class-exchangeable designs, and the spreads prove it).  ``c_exact``
    inverts the class-level pair probabilities into dependence values.
    Concentration moments are conditional on a non-empty selection, and
    ``p_empty`` reports how much mass that conditioning removed.
    """

    pi_particle: np.ndarray
    pi_pair: np.ndarray
    pi1: np.ndarray
    pi2: np.ndarray
    c_exact: np.ndarray
    mean_cs: float
    var_cs: float
    p_empty: float
    spread1: np.ndarray
    spread2: np.ndarray


@dataclass(frozen=True)
class ReplicateStats:
    """Per-replicate sample summaries plus aggregates.

    ``cs`` holds NaN for empty replicates; empties are excluded from the
    concentration moments (``mean_cs``, ``v_e``) and counted in
    ``n_empty``.  ``mass_cv`` is computed over all replicates and audits
    the constant-sample-mass assumption of the Horvitz-Thompson route.
    """

    counts: np.ndarray
    mass: np.ndarray
    cs: np.ndarray
    v_e: float
    v_e_se: float
    mean_cs: float
    mass_cv: float
    n_empty: int

    @property
    def replicates(self) -> int:
        return len(self.mass)


@dataclass(frozen=True)
class InclusionEstimate:
    """Empirical first/second-order inclusion probabilities by class.

    ``c_hat`` inverts pi2 through c = 1 - pi2/(pi1_i pi1_j); its standard
    errors come from the delta method on the replicate-level covariance.
    Unestimable entries (absent classes, single-member classes on the
    diagonal) are NaN.
    """

    pi1: np.ndarray
    pi1_se: np.ndarray
    pi2: np.ndarray
    pi2_se: np.ndarray
    c_hat: np.ndarray
    c_hat_se: np.ndarray
    replicates: int
    population_counts: np.ndarray


@dataclass(frozen=True)
class DependenceEstimate:
    """Dependence matrix estimate with symmetric normal confidence bounds."""

    c_hat: np.ndarray
    se: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    level: float

    def covers_zero(self) -> np.ndarray:
        return (self.ci_lo <= 0.0) & (0.0 <= self.ci_hi)


@dataclass(frozen=True)
class ComparisonRow:
    estimator: str
    dependence: str
    mode: str
    value: float
    v_e: float
    ratio: float
    z: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    v_e: float
    v_e_se: float
    nan_dependence_cells: int

    def row(self, estimator: str, dependence: str, mode: str) -> ComparisonRow:
        for r in self.rows:
            if (r.estimator, r.dependence, r.mode) == (estimator, dependence, mode):
                return r
        raise KeyError((estimator, dependence, mode))


def _pair_indices(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _subset_weights(design: SelectionDesign, bits: np.ndarray) -> np.ndarray:
    """Unnormalized pmf weight of each subset row of ``bits``."""
    q_p = np.asarray(design.q)[list(design.class_of)]
    w = np.ones(bits.shape[0])
    for i in range(bits.shape[1]):
        w *= np.where(bits[:, i], q_p[i], 1.0 - q_p[i])
    if design.variant == "pairwise_pmf":
        class_of = design.class_of
        for i, j in _pair_indices(bits.shape[1]):
            phi = design.phi[class_of[i], class_of[j]]
            if phi != 1.0:
                w = w * np.where(bits[:, i] & bits[:, j], phi, 1.0)
    return w


def _class_pair_average(
    values: np.ndarray, class_of: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Average a symmetric particle-pair matrix over class pairs.

    Returns (K x K means, K x K spreads); cells without any particle pair
    are NaN.  The diagonal uses distinct within-class pairs only.
    """
    means = np.full((k, k), np.nan)
    spreads = np.full((k, k), np.nan)
    n = len(class_of)
    iu, ju = np.triu_indices(n, k=1)
    pair_vals = values[iu, ju]
    ci, cj = class_of[iu], class_of[ju]
    lo = np.minimum(ci, cj)
    hi = np.maximum(ci, cj)
    for u in range(k):
        for v in range(u, k):
            sel = (lo == u) & (hi == v)
            if not np.any(sel):
                continue
            vals = pair_vals[sel]
            means[u, v] = means[v, u] = vals.mean()
            spreads[u, v] = spreads[v, u] = float(vals.max() - vals.min())
    return means, spreads


def _invert_dependence(pi1: np.ndarray, pi2: np.ndarray) -> np.ndarray:
    outer = pi1[:, None] * pi1[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 - pi2 / outer
    c[~np.isfinite(outer) | (outer == 0)] = np.nan
    return c


def enumerate_design(design: SelectionDesign, table: ClassTable) -> EnumerationResult:
    """Exact inclusion probabilities and concentration moments by summing
    over all 2^n selection outcomes.

    Only bernoulli and pairwise_pmf designs are enumerable.  For the
    bernoulli design the inclusion probabilities are independent by
    construction, so they are returned exactly (pi_i = q_i,
    pi_ij = q_i q_j) while the concentration moments still come from the
    full enumeration.
    """
    if design.variant not in ("bernoulli", "pairwise_pmf"):
        raise ValueError(f"cannot enumerate a {design.variant} design")
    n = design.n
    if n > MAX_ENUM_PARTICLES:
        raise ValueError(f"enumeration supports at most {MAX_ENUM_PARTICLES} particles")
    if n == 0:
        raise ValueError("design has no particles")
    class_of = np.array(design.class_of)
    k = table.k
    m_p = table.masses[class_of]
    a_p = m_p * table.concentrations[class_of]

    z_total = 0.0
    z_nonempty = 0.0
    w_empty = 0.0
    sum_cs = 0.0
    sum_cs2 = 0.0
    pi_particle = np.zeros(n)
    pi_pair = np.zeros((n, n))
    pairs = _pair_indices(n)

    total = 1 << n
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(n)) & 1).astype(bool)
        w = _subset_weights(design, bits)
        z_total += float(w.sum())
        pi_particle += w @ bits
        for i, j in pairs:
            pi_pair[i, j] += float(w[bits[:, i] & bits[:, j]].sum())
        mass = bits @ m_p
        nonempty = mass > 0
        w_empty += float(w[~nonempty].sum())
        cs = (bits @ a_p)[nonempty] / mass[nonempty]
        wn = w[nonempty]
        z_nonempty += float(wn.sum())
        sum_cs += float(wn @ cs)
        sum_cs2 += float(wn @ (cs * cs))

    if z_total <= 0:
        raise ValueError("selection pmf is not normalizable (all weights zero)")
    if z_nonempty <= 0:
        raise EmptySampleError("every selection outcome with positive weight is empty")

    pi_particle /= z_total
    pi_pair /= z_total
    pi_pair += pi_pair.T
    np.fill_diagonal(pi_pair, pi_particle)

    mean_cs = sum_cs / z_nonempty
    var_cs = max(sum_cs2 / z_nonempty - mean_cs * mean_cs, 0.0)
    p_empty = w_empty / z_total

    if design.variant == "bernoulli":
        # independent coin flips: inclusion probabilities are exact products
        q = np.asarray(design.q)
        q_p = q[class_of]
        pi_particle = q_p.copy()
        pi_pair = q_p[:, None] * q_p[None, :]
        np.fill_diagonal(pi_pair, q_p)
        present = np.bincount(class_of, minlength=k) > 0
        pair_present = np.bincount(class_of, minlength=k) > 1
        pi1 = np.where(present, q, np.nan)
        spread1 = np.where(present, 0.0, np.nan)
        pi2 = q[:, None] * q[None, :]
        spread2 = np.zeros((k, k))
        for u in range(k):
            for v in range(u, k):
                defined = pair_present[u] if u == v else (present[u] and present[v])
                if not defined:
                    pi2[u, v] = pi2[v, u] = np.nan
                    spread2[u, v] = spread2[v, u] = np.nan
        c_exact = np.where(np.isnan(pi2), np.nan, 0.0)
        return EnumerationResult(
            pi_particle, pi_pair, pi1, pi2, c_exact,
            mean_cs, var_cs, p_empty, spread1, spread2,
        )

    pi1 = np.full(k, np.nan)
    spread1 = np.full(k, np.nan)
    for u in range(k):
        sel = class_of == u
        if np.any(sel):
            vals = pi_particle[sel]
            pi1[u] = vals.mean()
            spread1[u] = float(vals.max() - vals.min())
    pi2, spread2 = _class_pair_average(pi_pair, class_of, k)
    c_exact = _invert_dependence(pi1, pi2)
    return EnumerationResult(
        pi_particle, pi_pair, pi1, pi2, c_exact,
        mean_cs, var_cs, p_empty, spread1, spread2,
    )


def _window_membership(
    x: np.ndarray,
    y: np.ndarray,
    anchor_x: np.ndarray | float,
    anchor_y: np.ndarray | float,
    window: tuple[float, float],
    domain: tuple[float, float],
) -> np.ndarray:
    """Whether each point (x, y) lies in the half-open window
    [anchor, anchor + window) on a toroidal ``domain``; broadcasts."""
    dx = np.mod(x - anchor_x, domain[0])
    dy = np.mod(y - anchor_y, domain[1])
    return (dx < window[0]) & (dy < window[1])


#: Strips are widened by this fraction of the domain width on each side, far
#: above the rounding of ``mod(x - anchor_x, W)``, so they hold every member.
_STRIP_MARGIN = 2.0**-30
#: Candidates tested per batch; small batches keep the arrays in cache.
_STRIP_BATCH = 1 << 14


def window_counts(
    field: SpatialField, anchors: np.ndarray, width: float, height: float, k: int
) -> np.ndarray:
    """(R, K) class counts of the toroidal windows anchored at the rows of
    ``anchors``; particles of classes outside [0, K) are not counted.

    The particles are sorted by x once.  Each window's x-strip
    [ax, ax + width), widened by the margin and shifted by -W, 0 and +W to
    wrap across the domain edge, is found by binary search, and only the
    particles in it go through :func:`_window_membership`.  The shifted
    strips never overlap, so each candidate is tested once; a window (nearly)
    as wide as the domain takes every particle as a candidate.
    """
    margin = _STRIP_MARGIN * field.width
    counted = np.flatnonzero((field.class_id >= 0) & (field.class_id < k))
    order = counted[np.argsort(field.x[counted], kind="stable")]
    xs, ys, cls = field.x[order], field.y[order], field.class_id[order]
    r = len(anchors)
    if width + 4.0 * margin >= field.width:
        starts = np.zeros((r, 1), dtype=np.int64)
        stops = np.full((r, 1), len(order), dtype=np.int64)
    else:
        shifts = np.array([-field.width, 0.0, field.width])
        starts = np.searchsorted(xs, anchors[:, :1] - margin + shifts, side="left")
        stops = np.searchsorted(xs, anchors[:, :1] + (width + margin) + shifts, side="right")
    lengths = stops - starts
    ends = np.cumsum(lengths.sum(axis=1))

    counts = np.empty((r, k), dtype=np.int64)
    a0 = 0
    while a0 < r:
        # anchors [a0, a1) hold at most _STRIP_BATCH candidates (or one anchor)
        before = ends[a0 - 1] if a0 else 0
        a1 = max(int(np.searchsorted(ends, before + _STRIP_BATCH, side="right")), a0 + 1)
        # flatten the candidate ranges: sorted-particle index and window row
        span = lengths[a0:a1].ravel()
        offset = starts[a0:a1].ravel() - (np.cumsum(span) - span)
        cand = np.arange(span.sum()) + np.repeat(offset, span)
        row = np.repeat(np.arange(a1 - a0).repeat(lengths.shape[1]), span)
        member = _window_membership(
            xs[cand], ys[cand], anchors[a0:a1, 0][row], anchors[a0:a1, 1][row],
            (width, height), (field.width, field.height),
        )
        counts[a0:a1] = np.bincount(
            row[member] * k + cls[cand[member]], minlength=(a1 - a0) * k
        ).reshape(a1 - a0, k)
        a0 = a1
    return counts


def _replicate_counts(
    design: SelectionDesign, table: ClassTable, r: int, rng: np.random.Generator
) -> np.ndarray:
    """(R, K) per-replicate class counts, drawn in replicate order."""
    k = table.k
    if design.variant == "window":
        anchors = np.column_stack(
            [
                rng.uniform(0.0, design.field.width, size=r),
                rng.uniform(0.0, design.field.height, size=r),
            ]
        )
        return window_counts(
            design.field, anchors, design.window_width, design.window_height, k
        )
    class_of = np.array(design.class_of)
    class_masks = [class_of == u for u in range(k)]
    if design.variant == "bernoulli":
        q_p = np.asarray(design.q)[class_of]
        counts = np.empty((r, k), dtype=np.int64)
        step = max(_CHUNK // max(design.n, 1), 1)
        for start in range(0, r, step):
            stop = min(start + step, r)
            sel = rng.random((stop - start, design.n)) < q_p
            for u in range(k):
                counts[start:stop, u] = sel[:, class_masks[u]].sum(axis=1)
        return counts
    # pairwise_pmf
    n = design.n
    total = 1 << n
    idx = np.arange(total, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n)) & 1).astype(bool)
    w = _subset_weights(design, bits)
    per_subset = np.empty((total, k), dtype=np.int64)
    for u in range(k):
        per_subset[:, u] = bits[:, class_masks[u]].sum(axis=1)
    cdf = np.cumsum(w)
    z = cdf[-1]
    if z <= 0:
        raise ValueError("selection pmf is not normalizable (all weights zero)")
    draws = np.searchsorted(cdf, rng.random(r) * z, side="right")
    draws = np.clip(draws, 0, total - 1)
    return per_subset[draws]


def variance_se(values: np.ndarray) -> float:
    """Standard error of the sample variance (fourth-moment formula)."""
    n = len(values)
    if n < 4:
        return np.nan
    centered = values - values.mean()
    s2 = centered @ centered / (n - 1)
    m4 = (centered**4).mean()
    var_of_var = (m4 - s2 * s2 * (n - 3) / (n - 1)) / n
    return float(np.sqrt(max(var_of_var, 0.0)))


def inclusion_from_fractions(
    f1: np.ndarray, f2: np.ndarray, population_counts: np.ndarray
) -> InclusionEstimate:
    """Aggregate per-replicate inclusion fractions into an estimate.

    ``f1`` is (R, K) per-replicate selected fractions; ``f2`` is (R, K, K)
    per-replicate selected pair fractions (symmetric, NaN where a replicate
    had too few population members).  Also the entry point for designs
    whose population changes per replicate.
    """
    r, k = f1.shape
    pi1 = np.full(k, np.nan)
    pi1_se = np.full(k, np.nan)
    pi2 = np.full((k, k), np.nan)
    pi2_se = np.full((k, k), np.nan)
    c_hat = np.full((k, k), np.nan)
    c_se = np.full((k, k), np.nan)

    for u in range(k):
        vals = f1[:, u]
        if np.isnan(vals).all():
            continue
        vals = vals[np.isfinite(vals)]
        pi1[u] = vals.mean()
        pi1_se[u] = vals.std(ddof=1) / np.sqrt(len(vals))

    for u in range(k):
        for v in range(u, k):
            pair = f2[:, u, v]
            mask = np.isfinite(pair) & np.isfinite(f1[:, u]) & np.isfinite(f1[:, v])
            if mask.sum() < 2:
                continue
            pair = pair[mask]
            n_used = len(pair)
            pi2[u, v] = pi2[v, u] = pair.mean()
            se = pair.std(ddof=1) / np.sqrt(n_used)
            pi2_se[u, v] = pi2_se[v, u] = se
            if np.isnan(pi1[u]) or np.isnan(pi1[v]) or pi1[u] == 0 or pi1[v] == 0:
                continue
            a, b, c = pi2[u, v], pi1[u], pi1[v]
            c_hat[u, v] = c_hat[v, u] = 1.0 - a / (b * c)
            if u == v:
                grad = np.array([-1.0 / (b * b), 2.0 * a / b**3])
                cov = np.cov(np.vstack([pair, f1[mask, u]]), ddof=1) / n_used
            else:
                grad = np.array([-1.0 / (b * c), a / (b * b * c), a / (b * c * c)])
                cov = np.cov(
                    np.vstack([pair, f1[mask, u], f1[mask, v]]), ddof=1
                ) / n_used
            var = float(grad @ cov @ grad)
            c_se[u, v] = c_se[v, u] = np.sqrt(max(var, 0.0))
    return InclusionEstimate(pi1, pi1_se, pi2, pi2_se, c_hat, c_se, r, population_counts)


def pair_fractions(counts: np.ndarray, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate first/second-order selected fractions for a fixed
    population; unestimable entries (absent or single-member classes) NaN.

    ``counts`` is (R, K) selected counts, ``pop`` (K,) population totals.
    Pair fractions use unordered distinct pairs; the diagonal counts
    distinct same-class pairs.
    """
    r, k = counts.shape
    f1 = np.full((r, k), np.nan)
    f2 = np.full((r, k, k), np.nan)
    for u in range(k):
        if pop[u] > 0:
            f1[:, u] = counts[:, u] / pop[u]
    for u in range(k):
        for v in range(u, k):
            if u == v:
                if pop[u] < 2:
                    continue
                tot = pop[u] * (pop[u] - 1) / 2
                vals = counts[:, u] * (counts[:, u] - 1) / 2 / tot
            else:
                if pop[u] == 0 or pop[v] == 0:
                    continue
                vals = counts[:, u] * counts[:, v] / (pop[u] * pop[v])
            f2[:, u, v] = f2[:, v, u] = vals
    return f1, f2


def _inclusion_from_counts(counts: np.ndarray, pop: np.ndarray) -> InclusionEstimate:
    f1, f2 = pair_fractions(counts, pop)
    return inclusion_from_fractions(f1, f2, pop)


def run_replicates(
    design: SelectionDesign, table: ClassTable, r: int, seed: int
) -> tuple[ReplicateStats, InclusionEstimate]:
    """Draw ``r`` independent selections and summarize them.

    Deterministic for a fixed seed: all randomness comes from a stream
    derived from the seed and is consumed in replicate order, so results
    do not depend on scheduling.  Empty replicates are recorded (not
    errors) and excluded from the concentration moments.
    """
    if r < 2:
        raise ValueError("need at least 2 replicates")
    if design.n == 0:
        raise ValueError("design has no particles")
    rng = derived_rng(seed)
    counts = _replicate_counts(design, table, r, rng)
    pop = np.bincount(np.array(design.class_of), minlength=table.k)

    m = table.masses
    conc = table.concentrations
    mass = counts @ m
    analyte = counts @ (m * conc)
    nonempty = mass > 0
    cs = np.full(r, np.nan)
    cs[nonempty] = analyte[nonempty] / mass[nonempty]
    n_empty = int(r - nonempty.sum())

    cs_ok = cs[nonempty]
    if len(cs_ok) >= 2:
        v_e = float(np.var(cs_ok, ddof=1))
        v_e_se = variance_se(cs_ok)
        mean_cs = float(cs_ok.mean())
    else:
        v_e, v_e_se, mean_cs = np.nan, np.nan, np.nan
    mean_mass = mass.mean()
    mass_cv = float(mass.std(ddof=1) / mean_mass) if mean_mass > 0 else np.nan

    stats = ReplicateStats(
        counts=counts, mass=mass, cs=cs, v_e=v_e, v_e_se=v_e_se,
        mean_cs=mean_cs, mass_cv=mass_cv, n_empty=n_empty,
    )
    return stats, _inclusion_from_counts(counts, pop)


def empirical_dependence(
    est: InclusionEstimate, level: float = 0.95
) -> DependenceEstimate:
    """Dependence matrix implied by the inclusion estimates, with
    delta-method confidence intervals at the given level."""
    z = float(sstats.norm.ppf(0.5 + level / 2.0))
    return DependenceEstimate(
        c_hat=est.c_hat.copy(),
        se=est.c_hat_se.copy(),
        ci_lo=est.c_hat - z * est.c_hat_se,
        ci_hi=est.c_hat + z * est.c_hat_se,
        level=level,
    )


def _moment_variance_batch(
    counts: np.ndarray, mass: np.ndarray, cs: np.ndarray, table: ClassTable, c: np.ndarray
) -> np.ndarray:
    m = table.masses
    dev = table.concentrations[None, :] - cs[:, None]
    gy = (counts * (m * m)[None, :] * dev * dev).sum(axis=1)
    a = counts * m[None, :] * dev
    corr = np.einsum("ri,ij,rj->r", a, c, a)
    return (gy - corr) / (mass * mass)


def _ht_variance_batch(
    counts: np.ndarray, mass: np.ndarray, table: ClassTable, c: np.ndarray
) -> np.ndarray:
    if np.any(c >= 1.0):
        return np.full(len(mass), np.nan)
    m = table.masses
    conc = table.concentrations
    first = counts @ (m * m * conc * conc / (1.0 - np.diag(c)))
    w = counts * (m * conc)[None, :]
    second = np.einsum("ri,ij,rj->r", w, c / (1.0 - c), w)
    return (first - second) / (mass * mass)


def compare_estimators(
    stats: ReplicateStats,
    est: InclusionEstimate,
    table: ClassTable,
) -> ComparisonReport:
    """Evaluate the variance estimators against the empirical variance.

    Each estimator (moment form and Horvitz-Thompson form) is evaluated
    with the empirical dependence matrix and with the zero matrix (the
    independence baseline), both per replicate (then averaged over
    non-empty replicates) and on the mean sample summary.  NaN dependence
    cells (unestimable pairs) enter as zero and are counted.
    """
    k = table.k
    c_emp = est.c_hat.copy()
    nan_cells = int(np.isnan(c_emp[np.triu_indices(k)]).sum())
    c_emp[np.isnan(c_emp)] = 0.0
    c_zero = np.zeros((k, k))

    ok = stats.mass > 0
    if ok.sum() < 2:
        raise EmptySampleError("too few non-empty replicates to compare estimators")
    counts = stats.counts[ok].astype(float)
    mass = stats.mass[ok]
    cs = stats.cs[ok]
    mean_counts = counts.mean(axis=0)

    rows: list[ComparisonRow] = []

    def add(estimator: str, dep_name: str, c: np.ndarray) -> None:
        per_rep = {
            "moment": _moment_variance_batch(counts, mass, cs, table, c),
            "horvitz_thompson": _ht_variance_batch(counts, mass, table, c),
        }[estimator]
        value = float(np.mean(per_rep))
        rows.append(_make_row(estimator, dep_name, "replicate_mean", value, stats))
        exp = derive_expectation(mean_counts, table)
        one = {
            "moment": _moment_variance_batch(
                mean_counts[None, :], np.array([exp.mass]), np.array([exp.concentration]),
                table, c,
            ),
            "horvitz_thompson": _ht_variance_batch(
                mean_counts[None, :], np.array([exp.mass]), table, c
            ),
        }[estimator]
        rows.append(
            _make_row(estimator, dep_name, "mean_summary", float(one[0]), stats)
        )

    for estimator in ("moment", "horvitz_thompson"):
        add(estimator, "zero", c_zero)
        add(estimator, "empirical", c_emp)

    return ComparisonReport(tuple(rows), stats.v_e, stats.v_e_se, nan_cells)


def _make_row(
    estimator: str, dep: str, mode: str, value: float, stats: ReplicateStats
) -> ComparisonRow:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = value / stats.v_e if stats.v_e else np.nan
        z = (value - stats.v_e) / stats.v_e_se if stats.v_e_se else np.nan
    return ComparisonRow(estimator, dep, mode, value, stats.v_e, float(ratio), float(z))
