"""Selection designs over particle populations.

Three designs are provided.  ``bernoulli`` selects every particle by an
independent per-class coin flip (the classical independence null).
``pairwise_pmf`` draws whole subsets from an explicit pairwise-interaction
mass function, p(s) proportional to
prod_i q_i^{s_i} (1-q_i)^{1-s_i} * prod_{i<j} phi_{ij}^{s_i s_j},
whose inclusion probabilities are exactly enumerable and thus serve as a
ground-truth oracle.  ``window`` selects the particles of a spatial field
whose centers fall in a uniformly placed (toroidally wrapped) rectangle,
which realizes spatial dependence between pair selections.

Both enumerable designs depend on the particles only through their
classes, so a subset's weight is a function of its class counts s_u:
w(s) = prod_u C(n_u, s_u) q_u^{s_u} (1-q_u)^{n_u-s_u} phi_uu^{s_u(s_u-1)/2}
* prod_{u<v} phi_uv^{s_u s_v}.  Enumeration and pairwise sampling therefore
walk the prod_u (n_u + 1) class-count states instead of the 2^n subsets,
with the weights computed in log space.

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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import EmptySampleError
from .estimators import (
    degenerate_dependence, ht_terms, infinite_batch_weights, moment_terms, sample_totals,
)
from .fields import SpatialField
from .model import ClassTable, derive_expectation
from .util import derived_rng, normal_half_width

#: Exact enumeration and pairwise sampling are limited to designs with at
#: most this many class-count states, prod_u (n_u + 1).
MAX_ENUM_STATES = 1 << 24
#: Class-count states per batch; small batches keep the arrays in cache.
_STATE_BATCH = 1 << 14

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SelectionDesign:
    """One of the three selection designs; build via the classmethods."""

    variant: str
    class_of: np.ndarray | None = None
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
        return cls("bernoulli", class_of=_class_ids(class_of, len(q)), q=q)

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
        class_of = _class_ids(class_of, k)
        states = _state_count(np.bincount(class_of, minlength=k))
        if states > MAX_ENUM_STATES:
            raise ValueError(
                f"pairwise designs support at most {MAX_ENUM_STATES} class-count "
                f"states prod(n_u + 1), got {states}"
            )
        return cls("pairwise_pmf", class_of=class_of, q=q, phi=phi)

    @classmethod
    def window(
        cls, field: SpatialField, width: float, height: float
    ) -> "SelectionDesign":
        if not (0 < width <= field.width and 0 < height <= field.height):
            raise ValueError("window must be positive and fit inside the domain")
        return cls(
            "window",
            class_of=_class_ids(field.class_id),
            field=field,
            window_width=float(width),
            window_height=float(height),
        )

    @property
    def n(self) -> int:
        return len(self.class_of)


def _class_ids(class_of: Sequence[int], k: int | None = None) -> np.ndarray:
    """A read-only int64 copy of ``class_of``, checked against ``k`` classes."""
    ids = np.array(class_of, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("class ids must form a flat sequence")
    if k is not None and np.any((ids < 0) | (ids >= k)):
        raise ValueError("class ids must index into q")
    ids.setflags(write=False)
    return ids


def _state_count(pop: np.ndarray) -> int:
    """prod_u (n_u + 1): the class-count states of class populations ``pop``."""
    return math.prod(int(c) + 1 for c in pop)


@dataclass(frozen=True)
class EnumerationResult:
    """Exact inclusion probabilities and concentration moments of a design.

    The designs are class-exchangeable, so every particle of class u has the
    inclusion probability ``pi1[u]`` and every distinct pair of classes
    (u, v) the pair probability ``pi2[u, v]``; both come from moments of the
    class counts s, as E[s_u]/n_u, E[s_u (s_u - 1)]/(n_u (n_u - 1)) and
    E[s_u s_v]/(n_u n_v).  Absent classes, and the diagonal of single-member
    classes, are NaN.  ``c_exact`` inverts the pair probabilities into
    dependence values.  Concentration moments are conditional on a
    non-empty selection, and ``p_empty`` reports how much mass that
    conditioning removed.
    """

    pi1: np.ndarray
    pi2: np.ndarray
    c_exact: np.ndarray
    mean_cs: float
    var_cs: float
    p_empty: float


@dataclass(frozen=True)
class ReplicateStats:
    """Per-replicate sample summaries plus aggregates.

    ``cs`` holds NaN for empty replicates; empties are excluded from the
    concentration moments (``mean_cs``, ``v_e``) and counted in
    ``n_empty``.  ``mass_cv`` is computed over all replicates and audits
    the constant-sample-mass assumption of the Horvitz-Thompson route.

    Every per-replicate summary is a function of the replicate's class
    counts, and a design's replicates repeat few count vectors (a pairwise
    design has at most prod_u (n_u + 1)).  ``first`` indexes the first
    replicate of each distinct count row (``distinct`` holds those rows)
    and ``inverse`` maps every replicate to its distinct row, so
    ``distinct[inverse]`` equals ``counts``; see :func:`distinct_rows`,
    which makes every row its own distinct row when the counts are not
    integers or the rows' mixed-radix codes would not fit in int64.  ``mass`` and ``cs`` are evaluated once
    per distinct row and gathered back, which gives the same values as
    evaluating every replicate because each row is computed on its own.
    """

    counts: np.ndarray
    mass: np.ndarray
    cs: np.ndarray
    v_e: float
    v_e_se: float
    mean_cs: float
    mass_cv: float
    n_empty: int
    first: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_counts(cls, counts: np.ndarray, table: ClassTable) -> "ReplicateStats":
        """Summarize (R, K) per-replicate selected class counts.

        The concentration moments are NaN when fewer than 2 replicates are
        non-empty, and ``mass_cv`` is NaN when the mean mass is 0.
        """
        first, inverse = distinct_rows(counts)
        mass_d, analyte_d = sample_totals(counts[first], table)
        nonempty_d = mass_d > 0
        cs_d = np.full(len(mass_d), np.nan)
        cs_d[nonempty_d] = analyte_d[nonempty_d] / mass_d[nonempty_d]
        mass, cs = mass_d[inverse], cs_d[inverse]
        nonempty = mass > 0
        cs_ok = cs[nonempty]
        if len(cs_ok) >= 2:
            v_e = float(np.var(cs_ok, ddof=1))
            v_e_se = variance_se(cs_ok)
            mean_cs = float(cs_ok.mean())
        else:
            v_e, v_e_se, mean_cs = np.nan, np.nan, np.nan
        mean_mass = mass.mean()
        mass_cv = float(mass.std(ddof=1) / mean_mass) if mean_mass > 0 else np.nan
        return cls(
            counts=counts, mass=mass, cs=cs, v_e=v_e, v_e_se=v_e_se,
            mean_cs=mean_cs, mass_cv=mass_cv, n_empty=int(len(mass) - nonempty.sum()),
            first=first, inverse=inverse,
        )

    @property
    def replicates(self) -> int:
        return len(self.mass)

    @property
    def distinct(self) -> np.ndarray:
        """(U, K) distinct count rows."""
        return self.counts[self.first]


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


class _ClassStates:
    """The class-count states of a bernoulli or pairwise design.

    State indices are mixed-radix numbers whose digit u is s_u in base
    n_u + 1 (class 0 the most significant).  Counts are held class-major,
    as (K, states) arrays.  Log weights follow the module formula with
    0 log 0 = 0, so phi = 0 forbids a state only when its pair count is
    positive, and q = 1 forbids only the states that leave a member of that
    class out.
    """

    def __init__(self, design: SelectionDesign, k: int):
        if len(design.q) != k:
            raise ValueError(f"design has {len(design.q)} classes, the class table {k}")
        self.pop = np.bincount(design.class_of, minlength=k)
        self.size = _state_count(self.pop)
        if self.size > MAX_ENUM_STATES:
            raise ValueError(
                f"enumeration supports at most {MAX_ENUM_STATES} class-count states, "
                f"got {self.size}"
            )
        q = np.asarray(design.q)
        phi = np.ones((k, k)) if design.phi is None else design.phi
        #: log of the per-class factor of w(s), indexed [u][s_u]
        self.class_terms = []
        for u, n_u in enumerate(self.pop):
            s = np.arange(n_u + 1.0)
            self.class_terms.append(
                gammaln(n_u + 1.0) - gammaln(s + 1.0) - gammaln(n_u - s + 1.0)
                + xlogy(s, q[u]) + xlogy(n_u - s, 1.0 - q[u])
                + xlogy(s * (s - 1.0) / 2.0, phi[u, u])
            )
        cross = ~np.eye(k, dtype=bool)
        self.log_phi = np.where(cross & (phi > 0), np.log(np.where(phi > 0, phi, 1.0)), 0.0)
        self.forbidden = (cross & (phi == 0)).astype(float)

    def decode(self, index: np.ndarray) -> np.ndarray:
        """(K, len(index)) class counts of the states ``index``."""
        return np.array(np.unravel_index(index, tuple(self.pop + 1)))

    def log_weights(self, s: np.ndarray) -> np.ndarray:
        """Unnormalized log weight of each column of class counts ``s``."""
        sf = s.astype(float)
        lw = sum(terms[s_u] for terms, s_u in zip(self.class_terms, s))
        lw += 0.5 * (np.einsum("uv,vr->ur", self.log_phi, sf) * sf).sum(axis=0)
        present = (s > 0).astype(float)
        lw[(np.einsum("uv,vr->ur", self.forbidden, present) * present).sum(axis=0) > 0] = -np.inf
        return lw

    def batches(self):
        """(class counts, log weights) over every state, a batch at a time."""
        for start in range(0, self.size, _STATE_BATCH):
            s = self.decode(np.arange(start, min(start + _STATE_BATCH, self.size)))
            yield s, self.log_weights(s)


def _invert_dependence(pi1: np.ndarray, pi2: np.ndarray) -> np.ndarray:
    outer = pi1[:, None] * pi1[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 - pi2 / outer
    c[~np.isfinite(outer) | (outer == 0)] = np.nan
    return c


def enumerate_design(design: SelectionDesign, table: ClassTable) -> EnumerationResult:
    """Exact inclusion probabilities and concentration moments by summing
    over every class-count state of the design.

    Only bernoulli and pairwise_pmf designs are enumerable.  The states are
    walked in batches, three times: for the largest log weight (the scale of
    every weight), for the normalizer and the moments, and for the
    concentration variance about its mean.  For the bernoulli design the
    inclusion probabilities are independent by construction, so they are
    returned exactly (pi_i = q_i, pi_ij = q_i q_j) while the concentration
    moments still come from the enumeration.
    """
    if design.variant not in ("bernoulli", "pairwise_pmf"):
        raise ValueError(f"cannot enumerate a {design.variant} design")
    if design.n == 0:
        raise ValueError("design has no particles")
    k = table.k
    states = _ClassStates(design, k)

    top = max(float(lw.max()) for _, lw in states.batches())
    if top == -np.inf:
        raise ValueError("selection pmf is not normalizable (all weights zero)")

    def weighted_states():
        """(weights, class counts, non-empty weights, c_s) per batch; c_s is
        0 on the empty states, which carry no non-empty weight."""
        for s, lw in states.batches():
            w = np.exp(lw - top)
            sf = s.astype(float)
            mass, analyte = sample_totals(sf.T, table)
            nonempty = mass > 0
            cs = analyte / np.where(nonempty, mass, 1.0)
            yield w, sf, np.where(nonempty, w, 0.0), cs

    z = z_empty = z_nonempty = sum_cs = 0.0
    first = np.zeros(k)
    pairs = np.zeros((k, k))
    within = np.zeros(k)
    for w, sf, w_nonempty, cs in weighted_states():
        z += float(w.sum())
        first += np.einsum("ur,r->u", sf, w)
        pairs += np.einsum("ur,vr->uv", sf * w, sf)
        within += np.einsum("ur,r->u", sf * (sf - 1.0), w)
        z_empty += float((w - w_nonempty).sum())
        z_nonempty += float(w_nonempty.sum())
        sum_cs += float((w_nonempty * cs).sum())
    if z_nonempty <= 0:
        raise EmptySampleError("every selection outcome with positive weight is empty")
    mean_cs = sum_cs / z_nonempty
    var_cs = sum(
        float((w_nonempty * (cs - mean_cs) ** 2).sum())
        for _, _, w_nonempty, cs in weighted_states()
    ) / z_nonempty
    p_empty = z_empty / z

    pop = states.pop.astype(float)
    pair_pop = np.outer(pop, pop)
    np.fill_diagonal(pair_pop, pop * (pop - 1.0))
    np.fill_diagonal(pairs, within)
    if design.variant == "bernoulli":
        # independent coin flips: inclusion probabilities are exact products
        q = np.asarray(design.q)
        pi1 = np.where(pop > 0, q, np.nan)
        pi2 = np.where(pair_pop > 0, np.outer(q, q), np.nan)
        c_exact = np.where(np.isnan(pi2), np.nan, 0.0)
    else:
        pi1 = np.where(pop > 0, first / (z * np.maximum(pop, 1.0)), np.nan)
        pi2 = np.where(pair_pop > 0, pairs / (z * np.maximum(pair_pop, 1.0)), np.nan)
        c_exact = _invert_dependence(pi1, pi2)
    return EnumerationResult(pi1, pi2, c_exact, mean_cs, var_cs, p_empty)


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
    if design.variant == "bernoulli":
        q_p = np.asarray(design.q)[design.class_of]
        class_masks = [design.class_of == u for u in range(k)]
        counts = np.empty((r, k), dtype=np.int64)
        step = max(_CHUNK // max(design.n, 1), 1)
        for start in range(0, r, step):
            stop = min(start + step, r)
            sel = rng.random((stop - start, design.n)) < q_p
            for u in range(k):
                counts[start:stop, u] = sel[:, class_masks[u]].sum(axis=1)
        return counts
    # pairwise_pmf: draw state indices from the state cdf, decode only those
    states = _ClassStates(design, k)
    lw = np.concatenate([batch_lw for _, batch_lw in states.batches()])
    top = lw.max()
    if top == -np.inf:
        raise ValueError("selection pmf is not normalizable (all weights zero)")
    cdf = np.cumsum(np.exp(lw - top))
    drawn = np.searchsorted(cdf, rng.random(r) * cdf[-1], side="right")
    # u * Z may round up to Z; that draw belongs to the last state of positive weight
    drawn = np.minimum(drawn, np.flatnonzero(lw > -np.inf)[-1])
    return np.ascontiguousarray(states.decode(drawn).T)


def distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of (R, K) non-negative integer
    counts: ``counts[first]`` are the distinct rows, ``first`` indexes each
    one's first occurrence, and ``counts[first][inverse]`` equals ``counts``.

    Each row is coded as a mixed-radix number whose digit u is the count of
    class u in base ``counts[:, u].max() + 1`` (class 0 the most
    significant), and the codes go through ``np.unique``; the distinct rows
    then come in increasing code order.  When the counts are not of an
    integer dtype, or the product of the bases does not fit in int64, every
    row is its own distinct row.
    """
    r, k = counts.shape
    base = [int(b) + 1 for b in counts.max(axis=0, initial=0)]
    if counts.dtype.kind not in "iu" or math.prod(base) > np.iinfo(np.int64).max:
        every = np.arange(r)
        return every, every
    place = np.ones(k, dtype=np.int64)
    for u in range(k - 2, -1, -1):
        place[u] = place[u + 1] * base[u + 1]
    _, first, inverse = np.unique(counts @ place, return_index=True, return_inverse=True)
    return first, inverse


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
    """Per-replicate first/second-order selected fractions; unestimable
    entries (absent or single-member classes) NaN.

    ``counts`` is (R, K) selected counts.  ``pop`` is the population: (K,)
    totals shared by every replicate, or (R, K) totals per replicate, in
    which case an entry is NaN where that replicate's population is 0 (below
    2 on the diagonal).  Pair fractions use unordered distinct pairs; the
    diagonal counts distinct same-class pairs.
    """
    r, k = counts.shape
    pop = np.broadcast_to(pop, (r, k))
    f1 = np.full((r, k), np.nan)
    f2 = np.full((r, k, k), np.nan)
    np.divide(counts, pop, out=f1, where=pop > 0)
    for u in range(k):
        for v in range(u, k):
            if u == v:
                pairs = counts[:, u] * (counts[:, u] - 1) / 2
                total = pop[:, u] * (pop[:, u] - 1) / 2
            else:
                pairs = counts[:, u] * counts[:, v]
                total = pop[:, u] * pop[:, v]
            np.divide(pairs, total, out=f2[:, u, v], where=total > 0)
            f2[:, v, u] = f2[:, u, v]
    return f1, f2


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
    stats = ReplicateStats.from_counts(_replicate_counts(design, table, r, rng), table)
    pop = np.bincount(design.class_of, minlength=table.k)
    # the fractions are functions of the count row: one evaluation per distinct row
    f1, f2 = pair_fractions(stats.distinct, pop)
    return stats, inclusion_from_fractions(f1[stats.inverse], f2[stats.inverse], pop)


def empirical_dependence(
    est: InclusionEstimate, level: float = 0.95
) -> DependenceEstimate:
    """Dependence matrix implied by the inclusion estimates, with
    delta-method confidence intervals at the given level."""
    z = normal_half_width(level)
    return DependenceEstimate(
        c_hat=est.c_hat.copy(),
        se=est.c_hat_se.copy(),
        ci_lo=est.c_hat - z * est.c_hat_se,
        ci_hi=est.c_hat + z * est.c_hat_se,
        level=level,
    )


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
    cells (unestimable pairs) enter as zero and are counted.  The
    per-replicate values are functions of the count row, so they are
    evaluated once per distinct non-empty row and gathered back before
    averaging.
    """
    k = table.k
    c_emp = est.c_hat.copy()
    nan_cells = int(np.isnan(c_emp[np.triu_indices(k)]).sum())
    c_emp[np.isnan(c_emp)] = 0.0
    c_zero = np.zeros((k, k))

    ok = stats.mass > 0
    if ok.sum() < 2:
        raise EmptySampleError("too few non-empty replicates to compare estimators")
    ok_distinct = stats.mass[stats.first] > 0
    keep = stats.first[ok_distinct]
    # position of each non-empty replicate's row among the non-empty distinct rows
    gather = (np.cumsum(ok_distinct) - 1)[stats.inverse[ok]]
    counts = stats.counts[keep].astype(float)
    mass = stats.mass[keep]
    cs = stats.cs[keep]
    mean_counts = stats.counts[ok].astype(float).mean(axis=0)
    exp = derive_expectation(mean_counts, table)

    def evaluate(estimator, counts, mass, cs, c):
        if estimator == "moment":
            first, second = moment_terms(counts, cs, table, c)
        elif degenerate_dependence(c):
            return np.full(len(mass), np.nan)
        else:
            first, second = ht_terms(counts, table, *infinite_batch_weights(table, c))
        return (first - second) / (mass * mass)

    rows: list[ComparisonRow] = []
    for estimator in ("moment", "horvitz_thompson"):
        for dep_name, c in (("zero", c_zero), ("empirical", c_emp)):
            per_rep = evaluate(estimator, counts, mass, cs, c)[gather]
            rows.append(_make_row(
                estimator, dep_name, "replicate_mean", float(np.mean(per_rep)), stats
            ))
            one = evaluate(
                estimator, mean_counts[None, :], np.array([exp.mass]),
                np.array([exp.concentration]), c,
            )
            rows.append(_make_row(estimator, dep_name, "mean_summary", float(one[0]), stats))

    return ComparisonReport(tuple(rows), stats.v_e, stats.v_e_se, nan_cells)


def _make_row(
    estimator: str, dep: str, mode: str, value: float, stats: ReplicateStats
) -> ComparisonRow:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = value / stats.v_e if stats.v_e else np.nan
        z = (value - stats.v_e) / stats.v_e_se if stats.v_e_se else np.nan
    return ComparisonRow(estimator, dep, mode, value, stats.v_e, float(ratio), float(z))
