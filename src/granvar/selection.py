"""Selection designs over particle populations.

Three designs are provided.  ``bernoulli`` selects every particle by an
independent per-class coin flip (the classical independence null), so a
replicate's class counts are independent binomial draws.
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
with the weights computed in log space, once per state.

Windows are counted through the field's periodic cell index, which
transect casting and the gap check share (see
:attr:`SpatialField.column_strips`).  Each window is one rectangle query,
widened by a margin far above the rounding of the half-open membership test
``mod(x - anchor_x, W) < width`` and ``mod(y - anchor_y, H) < height``, and
split into its ring and its interior (:meth:`CellStrips.ring_and_interior`).
The interior cells lie whole inside the window narrowed by that margin, so
they hold members only and are counted from per-class running counts along
the index; only the ring's particles go through the test.  The counts equal
those of testing every particle against every window, and the tests grow
with a window's perimeter, not its area.

Replicated runs report per-replicate sample summaries, the empirical
variance of the sample concentration, and inclusion-probability estimates
that invert to an empirical dependence matrix.  Those estimates and the
estimator comparison are sums over the replicates' count rows that one
moment matrix per run holds: a run keeps (N, K) selected fractions and
same-class pair fractions, never per-row (K, K) arrays, and the pair
fractions of two classes and each estimator's replicate mean are read off
products of its class columns (:func:`inclusion_from_fractions`,
:func:`compare_estimators`).  Memory is O(N K + G K^2) for N rows in G runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySampleError
from .estimators import (
    ht_terms,
    ht_totals,
    infinite_batch_weights,
    moment_deviations,
    moment_terms,
    sample_concentration,
    sample_totals,
)
from .fields import SpatialField, near_pairs
from .model import ClassTable, dependence_from_inclusion, first_order_probabilities
from .util import derived_rng, normal_half_width, wrap_periodic

#: Exact enumeration and pairwise sampling are limited to designs with at
#: most this many class-count states, prod_u (n_u + 1).
MAX_ENUM_STATES = 1 << 24
#: Class-count states per batch; small batches keep the arrays in cache.
_STATE_BATCH = 1 << 14


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
        q = first_order_probabilities(q)
        return cls("bernoulli", class_of=_class_ids(class_of, len(q)), q=q)

    @classmethod
    def pairwise_pmf(
        cls, q: Sequence[float], phi: np.ndarray, class_of: Sequence[int]
    ) -> "SelectionDesign":
        q = first_order_probabilities(q)
        phi = np.array(phi, dtype=float, copy=True)
        k = len(q)
        if phi.shape != (k, k):
            raise ValueError(f"phi must be {k}x{k}, got {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("pair interaction weights must be finite")
        if np.any(phi < 0):
            raise ValueError("pair interaction weights must be >= 0")
        if not np.array_equal(phi, phi.T):
            raise ValueError("pair interaction weights must be symmetric")
        phi.setflags(write=False)
        class_of = _class_ids(class_of, k)
        _state_count(np.bincount(class_of, minlength=k))
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
    """A read-only int64 copy of ``class_of``, checked against ``k`` classes;
    ids that are not whole numbers are refused rather than truncated."""
    ids = np.asarray(class_of)
    try:
        if ids.dtype.kind not in "biu":
            values = ids.astype(float)
            if not np.all(np.isfinite(values) & (values == np.floor(values))):
                raise ValueError("class ids must be whole numbers that index into q")
        ids = np.array(ids, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("class ids must index into q") from exc
    if ids.ndim != 1:
        raise ValueError("class ids must form a flat sequence")
    if k is not None and np.any((ids < 0) | (ids >= k)):
        raise ValueError("class ids must index into q")
    ids.setflags(write=False)
    return ids


def _state_count(pop: np.ndarray) -> int:
    """prod_u (n_u + 1): the class-count states of class populations ``pop``,
    refused above ``MAX_ENUM_STATES``."""
    states = math.prod(int(c) + 1 for c in pop)
    if states > MAX_ENUM_STATES:
        raise ValueError(
            f"enumeration and pairwise sampling support at most {MAX_ENUM_STATES} "
            f"class-count states prod(n_u + 1), got {states}"
        )
    return states


def _class_populations(design: SelectionDesign, k: int) -> np.ndarray:
    """(K,) class populations of a bernoulli or pairwise design, whose ``q``
    must have one entry per class of the table."""
    if len(design.q) != k:
        raise ValueError(f"design has {len(design.q)} classes, the class table {k}")
    return np.bincount(design.class_of, minlength=k)


@dataclass(frozen=True)
class ExactInclusion:
    """Exact inclusion probabilities of a class-exchangeable design: every
    particle of class u has the inclusion probability ``pi1[u]`` and every
    distinct pair of classes (u, v) the pair probability ``pi2[u, v]``.
    Absent classes, and the diagonal of single-member classes, are NaN.
    ``c_exact`` inverts the pair probabilities into dependence values."""

    pi1: np.ndarray
    pi2: np.ndarray
    c_exact: np.ndarray


@dataclass(frozen=True)
class EnumerationResult(ExactInclusion):
    """Exact inclusion probabilities and concentration moments of a design.

    ``pi1`` and ``pi2`` come from moments of the class counts s, as
    E[s_u]/n_u, E[s_u (s_u - 1)]/(n_u (n_u - 1)) and E[s_u s_v]/(n_u n_v).
    Concentration moments are conditional on a non-empty selection, and
    ``p_empty`` reports how much mass that conditioning removed.
    """

    mean_cs: float
    var_cs: float
    p_empty: float


@dataclass(frozen=True)
class ReplicateStats:
    """Replicate sample summaries, held over the distinct count rows.

    Every per-replicate summary is a function of the replicate's class
    counts, and a design's replicates repeat few count vectors (a pairwise
    design has at most prod_u (n_u + 1)).  So the R replicates are held as
    U distinct count rows: ``distinct`` holds those rows, ``multiplicity``
    how many replicates drew each, and ``inverse`` maps every replicate to
    its row; ``counts`` gathers the (R, K) rows back on demand.  See
    :func:`distinct_rows`, which makes every row its own distinct row when
    the counts are not integers or the rows' mixed-radix codes would not
    fit in int64; pairwise runs find their distinct rows from the drawn
    state indices without building the (R, K) counts.  ``mass`` and ``cs``
    are each distinct row's sample mass and concentration, ``cs`` NaN for
    an empty row.

    The aggregates are multiplicity-weighted sums over the distinct rows
    (:func:`_weighted_moments`), so they equal the same sums over the R
    replicates to rounding.  Empty replicates are excluded from the
    concentration moments (``mean_cs``, ``v_e`` with ddof=1, and its
    standard error ``v_e_se`` by :func:`variance_se`'s formula) and counted
    in ``n_empty``.  Those moments are NaN when fewer than 2 replicates are
    non-empty (``v_e_se`` below 4).  ``mass_cv`` is computed over all
    replicates, NaN when the mean mass is 0; it audits the
    constant-sample-mass assumption of the Horvitz-Thompson route.

    With ``groups`` set, the rows are that many equal runs, one after
    another (an ensemble's seeds), each row its own distinct row of
    multiplicity 1: ``v_e``, ``v_e_se``, ``mean_cs`` and ``mass_cv`` are
    then (G,) arrays, each run's bit for bit as numpy's mean, var, std and
    :func:`variance_se` of its replicates, and ``n_empty`` counts all runs.
    A run whose non-empty rows all have the same c_s is the exception, as
    when their present classes share one concentration (c_s is then exactly
    that concentration; see :func:`~granvar.estimators.sample_concentration`):
    ``mean_cs`` is that value and ``v_e`` and ``v_e_se`` are 0, where the
    sums would give rounding noise; they stay NaN below 2 (4) non-empty
    replicates.
    """

    distinct: np.ndarray
    multiplicity: np.ndarray
    inverse: np.ndarray
    mass: np.ndarray
    cs: np.ndarray
    v_e: float | np.ndarray
    v_e_se: float | np.ndarray
    mean_cs: float | np.ndarray
    mass_cv: float | np.ndarray
    n_empty: int
    groups: int | None = None

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, table: ClassTable, groups: int | None = None
    ) -> "ReplicateStats":
        """Summarize (R, K) per-replicate selected class counts, or the
        (G R, K) counts of ``groups`` runs of R, each as if alone.  Grouped
        counts are kept as they are, each row its own distinct row."""
        if groups is not None:
            _check_nonnegative(counts)
            n = len(counts)
            return cls.from_distinct(counts, np.ones(n, np.intp), np.arange(n), table, groups)
        return cls.from_distinct(*distinct_rows(counts), table)

    @classmethod
    def from_distinct(
        cls,
        distinct: np.ndarray,
        multiplicity: np.ndarray,
        inverse: np.ndarray,
        table: ClassTable,
        groups: int | None = None,
    ) -> "ReplicateStats":
        """Summarize replicates given as (U, K) ``distinct`` count rows,
        the number of replicates ``multiplicity`` of each and the row
        ``inverse`` of every replicate; as :meth:`from_counts` of
        ``distinct[inverse]``."""
        g = groups or 1
        mass, analyte = sample_totals(distinct, table)
        nonempty = mass > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            cs = sample_concentration(mass, analyte, table, distinct)
        cs[~nonempty] = np.nan
        w = multiplicity.astype(float)
        _, mean_mass, var_mass, _ = _group_reduce(
            _weighted_moments, np.full(g, len(mass) // g), mass, w)
        _, mean_cs, v_e, v_e_se = _group_reduce(
            _weighted_moments, _rows_per_run(nonempty, g), cs[nonempty], w[nonempty])
        mass_cv = np.divide(np.sqrt(var_mass), mean_mass, out=np.full(g, np.nan),
                            where=mean_mass > 0)
        # a run whose non-empty rows all have one c_s (as when their classes
        # share a concentration): the sums would round its mean and give its
        # spread as noise
        runs = cs.reshape(g, -1)
        lo, hi = np.fmin.reduce(runs, axis=1), np.fmax.reduce(runs, axis=1)
        flat, few, fewer = lo == hi, np.isnan(v_e), np.isnan(v_e_se)
        mean_cs = np.where(flat & ~few, lo, mean_cs)
        v_e, v_e_se = np.where(flat & ~few, 0.0, v_e), np.where(flat & ~fewer, 0.0, v_e_se)
        if groups is None:
            v_e, v_e_se, mean_cs, mass_cv = (float(a[0]) for a in (v_e, v_e_se, mean_cs, mass_cv))
        return cls(
            distinct=distinct, multiplicity=multiplicity, inverse=inverse, mass=mass, cs=cs,
            v_e=v_e, v_e_se=v_e_se, mean_cs=mean_cs, mass_cv=mass_cv,
            n_empty=int(multiplicity[~nonempty].sum()), groups=groups,
        )

    @property
    def replicates(self) -> int:
        return len(self.inverse)

    @property
    def counts(self) -> np.ndarray:
        """(R, K) per-replicate class counts, gathered from ``distinct``."""
        return self.distinct[self.inverse]


def _rows_per_run(keep: np.ndarray, g: int) -> np.ndarray:
    """(G,) count of the rows ``keep`` marks in each of ``g`` equal runs of
    consecutive rows."""
    return keep.reshape(g, -1).sum(axis=1)


def _group_reduce(reduce, sizes: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``reduce`` of each group of the (N,) ``arrays``, whose consecutive
    groups have ``sizes`` rows; ``reduce`` takes (G, n) arrays and returns
    a tuple of (G,) arrays.  Numpy reduces a group in a stack as it reduces
    it alone, so equal groups go through in one call; unequal ones (some
    with empty replicates dropped) are reduced one by one."""
    if np.all(sizes == sizes[0]):
        return reduce(*(a.reshape(len(sizes), sizes[0]) for a in arrays))
    cuts = np.cumsum(sizes)[:-1]
    parts = [reduce(*(p[None] for p in split))
             for split in zip(*(np.split(a, cuts) for a in arrays))]
    return tuple(np.concatenate(values) for values in zip(*parts))


def _weighted_moments(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(weight, mean, variance, standard error of the variance) along the
    last axis of (G, N) values ``x`` with weights ``w``; the variance with
    ddof=1 and its standard error by :func:`variance_se`'s fourth-moment
    formula.  The mean and variance are NaN below a total weight of 2, the
    standard error below 4.  Unit weights give numpy's mean and
    var(ddof=1) of each row of ``x`` from 2 values on, bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        total = w.sum(axis=-1)
        mean = (w * x).sum(axis=-1) / total
        sq = x - mean[:, None]
        sq *= sq
        var = (w * sq).sum(axis=-1) / (total - 1.0)
        m4 = (w * (sq * sq)).sum(axis=-1) / total
        se = np.sqrt(np.maximum((m4 - var * var * (total - 3.0) / (total - 1.0)) / total, 0.0))
    few = total < 2
    return (total, np.where(few, np.nan, mean), np.where(few, np.nan, var),
            np.where(total < 4, np.nan, se))


@dataclass(frozen=True)
class InclusionEstimate:
    """Empirical first/second-order inclusion probabilities by class.

    ``c_hat`` inverts pi2 through c = 1 - pi2/(pi1_i pi1_j); its standard
    errors come from the delta method on the replicate-level covariance.
    Unestimable entries (absent classes, single-member classes on the
    diagonal) are NaN.  Grouped estimates have a leading group axis.
    """

    pi1: np.ndarray
    pi1_se: np.ndarray
    pi2: np.ndarray
    pi2_se: np.ndarray
    c_hat: np.ndarray
    c_hat_se: np.ndarray
    replicates: int | np.ndarray


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
    """The class-count states of a bernoulli or pairwise design, with their
    weights.

    State indices are mixed-radix numbers whose digit u is s_u in base
    n_u + 1 (class 0 the most significant).  Counts are held class-major,
    as (K, states) arrays.  Log weights follow the module formula with
    0 log 0 = 0, so phi = 0 forbids a state only when its pair count is
    positive, and q = 1 forbids only the states that leave a member of that
    class out.  Each state's log weight is evaluated once, into
    ``weights``, exp(log w(s) - max log w), which the sampler inverts and
    enumeration sums; ``last`` is the last state of finite log weight.
    """

    def __init__(self, design: SelectionDesign, k: int):
        from scipy.special import gammaln, xlogy  # deferred: keeps scipy.special out of start-up

        self.pop = _class_populations(design, k)
        self.size = _state_count(self.pop)
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

        lw = np.concatenate([self.log_weights(s) for _, s in self.batches()])
        top = lw.max()
        if top == -np.inf:
            raise ValueError("selection pmf is not normalizable (all weights zero)")
        self.last = int(np.flatnonzero(lw > -np.inf)[-1])
        lw -= top
        self.weights = np.exp(lw, out=lw)

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
        """(states, class counts) of every batch of states, the states as a slice."""
        for start in range(0, self.size, _STATE_BATCH):
            stop = min(start + _STATE_BATCH, self.size)
            yield slice(start, stop), self.decode(np.arange(start, stop))

    def draw(self, rng: np.random.Generator, r: int) -> np.ndarray:
        """``r`` state indices drawn from the normalized weights by
        inverting the state cdf at one ``rng.random(r)`` call (see
        :func:`_invert_cdf`)."""
        return _invert_cdf(np.cumsum(self.weights), self.last, rng.random(r))


#: Draws per guide-table bucket from which :func:`_invert_cdf` builds the
#: table.  Building it costs about one cdf search per bucket, and a search
#: of a cdf of a few states costs little more than a table read: measured
#: on 8 states (1024 buckets), the table lost to the search by 8-15% at
#: 1 draw per bucket and 5-7% at 2, and won by 16-20% at 4.
_GUIDE_DRAWS_PER_BUCKET = 4


def _invert_cdf(cdf: np.ndarray, last: int, u: np.ndarray) -> np.ndarray:
    """The states ``searchsorted(cdf, u * Z, side="right")`` of ``u`` in
    [0, 1] and the cdf's total Z = ``cdf[-1]`` >= 1, clamped to ``last``,
    the last state of positive weight (u * Z may round up to Z).  ``u`` is
    overwritten, which spares an array of its size.

    With enough draws, most read their state from a guide table of G
    buckets (:func:`_guide_table`; G is about 8 per state, a power of two
    in [2^10, 2^16]) and only the rest search the cdf.
    """
    def search(t):
        drawn = np.searchsorted(cdf, t, side="right")
        return np.minimum(drawn, last, out=drawn)

    g = min(max(1 << (8 * len(cdf) - 1).bit_length(), 1 << 10), 1 << 16)
    if len(u) < g * _GUIDE_DRAWS_PER_BUCKET:
        u *= cdf[-1]
        return search(u)
    # u * g is exact: its floor is u's bucket, and dividing by g gives u back
    u *= g
    drawn = _guide_table(cdf, last, g).take(u.astype(np.intp))
    miss = np.flatnonzero(drawn < 0)
    drawn[miss] = search(u[miss] / g * cdf[-1])
    return drawn


def _guide_table(cdf: np.ndarray, last: int, g: int) -> np.ndarray:
    """The guide table of a cdf of total Z = ``cdf[-1]`` >= 1 over ``g``
    equal buckets, g a power of two: entry b, for b in [0, g], is the
    draw, clamped to ``last``, of every u in [0, 1] with floor(u g) = b,
    or -1 when the cdf steps within their reach.

    Such a u lies in [b / g, (b + 1) / g).  E_j = j (Z / g) is j Z / g
    rounded once, as Z / g is exact, and rounding is monotone, so t = u Z
    rounded lies in [E_b, E_{b+1}].  ``searchsorted(cdf, t, side="right")``
    lies between its values at E_b and E_{b+1}; where those agree after
    the clamp it is that value.
    """
    edges = np.arange(g + 2) * (cdf[-1] / g)  # E_0 .. E_{g+1}
    below = np.minimum(np.searchsorted(cdf, edges, side="right"), last)
    lo, hi = below[:-1], below[1:]
    return np.where(lo == hi, lo, -1)


def enumerate_design(design: SelectionDesign, table: ClassTable) -> EnumerationResult:
    """Exact inclusion probabilities and concentration moments by summing
    over every class-count state of the design.

    Only bernoulli and pairwise_pmf designs are enumerable.  The states'
    weights are computed once (see :class:`_ClassStates`) and walked in
    batches twice: for the normalizer and the moments, and for the
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

    def weighted_states():
        """(weights, class counts, non-empty weights, c_s) per batch; c_s is
        0 on the empty states, which carry no non-empty weight."""
        for span, s in states.batches():
            w, sf = states.weights[span], s.astype(float)
            mass, analyte = sample_totals(sf.T, table)
            nonempty = mass > 0
            cs = sample_concentration(np.where(nonempty, mass, 1.0), analyte, table, sf.T)
            yield w, sf, np.where(nonempty, w, 0.0), cs

    z = z_empty = z_nonempty = sum_cs = 0.0
    lo, hi = np.inf, -np.inf
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
        weighed = cs[w_nonempty > 0]
        lo, hi = min(lo, weighed.min(initial=np.inf)), max(hi, weighed.max(initial=-np.inf))
    if z_nonempty <= 0:
        raise EmptySampleError("every selection outcome with positive weight is empty")
    # one c_s on every state of weight (as when the classes share a
    # concentration): its mean, which the weighted sum would round, and
    # variance 0
    mean_cs = float(lo) if lo == hi else sum_cs / z_nonempty
    var_cs = sum(
        float((w_nonempty * (cs - mean_cs) ** 2).sum())
        for _, _, w_nonempty, cs in weighted_states()
    ) / z_nonempty
    p_empty = z_empty / z

    np.fill_diagonal(pairs, within)
    pi1, pi2, c_exact = _exact_inclusion(states.pop.astype(float), first, pairs, z)
    if design.variant == "bernoulli":
        # independent coin flips: inclusion probabilities are exact products
        q = np.asarray(design.q)
        pi1 = np.where(np.isnan(pi1), np.nan, q)
        pi2 = np.where(np.isnan(pi2), np.nan, np.outer(q, q))
        c_exact = np.where(np.isnan(pi2), np.nan, 0.0)
    return EnumerationResult(pi1, pi2, c_exact, mean_cs, var_cs, p_empty)


def _exact_inclusion(pop: np.ndarray, first: np.ndarray, pairs: np.ndarray,
                     total: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pi1, pi2 and C of a design from per-class sums over outcomes of
    weight ``total``: ``first`` (K,), the members' weighted inclusions, and
    ``pairs`` (K, K), those of the ordered pairs of distinct members, over
    (K,) populations ``pop``.  NaN for a class without members and for a
    cell without pairs."""
    pair_pop = np.outer(pop, pop)
    np.fill_diagonal(pair_pop, pop * (pop - 1.0))
    pi1 = np.where(pop > 0, first / (total * np.maximum(pop, 1.0)), np.nan)
    pi2 = np.where(pair_pop > 0, pairs / (total * np.maximum(pair_pop, 1.0)), np.nan)
    return pi1, pi2, dependence_from_inclusion(pi1, pi2)


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
    dx = wrap_periodic(x - anchor_x, domain[0])
    dy = wrap_periodic(y - anchor_y, domain[1])
    return (dx < window[0]) & (dy < window[1])


#: Candidates tested per batch; small batches keep the arrays in cache.
_STRIP_BATCH = 1 << 14


def window_counts(
    field: SpatialField, anchors: np.ndarray, width: float, height: float, k: int
) -> np.ndarray:
    """(R, K) class counts of the toroidal windows anchored at the rows of
    ``anchors``, anchors in the domain; particles of classes outside [0, K)
    are not counted.

    Each window is one :meth:`CellStrips.ring_and_interior` query on the
    field's cached column strips (see :attr:`SpatialField.column_strips`),
    which transect casting and the gap check share.  Its ring slices hold
    every particle of the window outside its interior cells, each once;
    each of those candidates is tested with :func:`_window_membership`, in
    batches of about ``_STRIP_BATCH``, and the classes outside [0, K) are
    dropped after the test.  Every particle of an interior cell is in the
    window, so the interior slices are counted without a test, as
    differences of per-class running counts along the strips' order.
    """
    strips = field.column_strips
    ring, interior = strips.ring_and_interior(anchors[:, 0], width, anchors[:, 1], height)
    r = len(anchors)
    counts = _ring_counts(field, ring, anchors, width, height, k)
    query, begin, count = interior
    if len(query):
        cls = field.class_id[strips.order]
        end = begin + count
        running = np.zeros(field.n + 1, dtype=np.intp)
        for c in range(k):
            # running[i]: particles of class c among the first i of the order
            np.cumsum(cls == c, out=running[1:])
            inside = np.bincount(query, weights=running[end] - running[begin], minlength=r)
            counts[:, c] += inside.astype(np.int64)
    return counts


def _ring_counts(field: SpatialField, ring: tuple[np.ndarray, ...], anchors: np.ndarray,
                 width: float, height: float, k: int) -> np.ndarray:
    """(R, K) class counts of the windows' members among the slices
    ``ring``, which hold at least one slice per window."""
    window, begin, count = ring
    strips = field.column_strips
    r = len(anchors)
    slices_end = np.cumsum(np.bincount(window, minlength=r))
    ends = np.cumsum(count)[slices_end - 1]

    counts = np.empty((r, k), dtype=np.int64)
    a0 = 0
    while a0 < r:
        # windows [a0, a1) hold at most _STRIP_BATCH candidates (or one window)
        before = ends[a0 - 1] if a0 else 0
        a1 = max(int(np.searchsorted(ends, before + _STRIP_BATCH, side="right")), a0 + 1)
        p0, p1 = (slices_end[a0 - 1] if a0 else 0), slices_end[a1 - 1]
        span = count[p0:p1]
        cand = strips.take(begin[p0:p1], span)
        row = np.repeat(window[p0:p1] - a0, span)
        member = _window_membership(
            field.x[cand], field.y[cand], anchors[a0:a1, 0][row], anchors[a0:a1, 1][row],
            (width, height), (field.width, field.height),
        )
        row, cls = row[member], field.class_id[cand[member]]
        kept = (cls >= 0) & (cls < k)
        counts[a0:a1] = np.bincount(
            row[kept] * k + cls[kept], minlength=(a1 - a0) * k
        ).reshape(a1 - a0, k)
        a0 = a1
    return counts


#: Candidate pairs :func:`window_dependence` forms per chunk of queries,
#: unless one query alone has more: about 100 bytes each, so about 26 MB.
_PAIR_CHUNK = 1 << 18


def _arc_overlap(d: np.ndarray, side: float, length: float) -> np.ndarray:
    """Length of the intersection of two arcs of length ``side`` <= ``length``
    on a circle of circumference ``length`` whose starts lie ``d`` apart."""
    d = wrap_periodic(d, length)
    return np.maximum(side - d, 0.0) + np.maximum(side - (length - d), 0.0)


def window_dependence(field: SpatialField, width: float, height: float, k: int) -> ExactInclusion:
    """Exact pi1, pi2 and C of the ``width`` x ``height`` window design on
    ``field`` over classes [0, K), from the field's pair overlaps; the
    fields of :class:`EnumerationResult` that a design on a fixed field has.

    A uniformly anchored toroidal window holds a particle with chance
    wh / (WH) and two particles whose centres lie (dx, dy) apart with
    chance o_W(dx; w) o_H(dy; h) / (WH), where o_L(d; w) = max(0, w - d) +
    max(0, w - (L - d)) with d taken mod L.  ``pi2[u, v]`` is the sum of
    that chance over the ordered pairs of distinct particles of classes
    (u, v), over their number; an absent class, and the diagonal of a
    one-member class, are NaN.  Only pairs nearer than w along x and h along
    y overlap, so the candidates are the pairs of :func:`near_pairs` on the
    field's column strips, summed per class pair with one ``bincount`` per
    chunk of queries.  The work is about n * lambda * 4wh candidate pairs.
    A chunk takes as many queries as the densest cells the query rectangle
    covers allow within ``_PAIR_CHUNK`` candidates, so a chunk holds at
    most max(``_PAIR_CHUNK``, n) of them.
    """
    if not (0 < width <= field.width and 0 < height <= field.height):
        raise ValueError("window must be positive and fit inside the domain")
    label = np.where((field.class_id >= 0) & (field.class_id < k), field.class_id, k)
    strips = field.column_strips
    cells = (min(strips.na, int(2.0 * width * strips.scale_a) + 3)
             * min(strips.nb, int(2.0 * height * strips.scale_b) + 3))
    step = max(1, _PAIR_CHUNK // max(1, min(field.n, cells * int(np.diff(strips.offsets).max()))))
    sums = np.zeros((k + 1) * (k + 1))
    for first in range(0, field.n, step):
        i, j = near_pairs(strips, field.x, field.y, width, height, first, min(first + step, field.n))
        overlap = (_arc_overlap(field.x[j] - field.x[i], width, field.width)
                   * _arc_overlap(field.y[j] - field.y[i], height, field.height))
        sums += np.bincount(label[i] * (k + 1) + label[j], overlap, (k + 1) * (k + 1))
    sums = sums.reshape(k + 1, k + 1)[:k, :k]
    pop = np.bincount(label, minlength=k + 1)[:k].astype(float)
    return ExactInclusion(*_exact_inclusion(pop, pop * (width * height), sums + sums.T,
                                            field.width * field.height))


def _replicate_rng(design: SelectionDesign, r: int, seed: int) -> np.random.Generator:
    """The stream of ``r`` replicates of ``design``, derived from ``seed``."""
    if r < 2:
        raise ValueError("need at least 2 replicates")
    if design.n == 0:
        raise ValueError("design has no particles")
    return derived_rng(seed)


def replicate_counts(
    design: SelectionDesign, table: ClassTable, r: int, seed: int
) -> np.ndarray:
    """(R, K) class counts of ``r`` independent selections, drawn in
    replicate order from a stream derived from ``seed``."""
    rng = _replicate_rng(design, r, seed)
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
        # the selected count of n_u independent coin flips is binomial
        return rng.binomial(_class_populations(design, k), design.q, size=(r, k))
    states = _ClassStates(design, k)
    return np.ascontiguousarray(states.decode(states.draw(rng, r)).T)


def _unique_codes(codes: np.ndarray, bound: int) -> tuple[np.ndarray, ...]:
    """``np.unique`` (values, inverse, counts) of non-negative integer
    ``codes`` below ``bound``.  When the bound is at most the number of
    codes they are tallied by ``bincount`` instead of sorted: ``counts``
    is each value's tally and ``inverse`` its rank among the values.
    Otherwise they are sorted as the smallest unsigned dtype that holds
    them: numpy's stable sort of 8- and 16-bit keys is a radix sort."""
    narrow = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                  if bound - 1 <= np.iinfo(t).max)
    if bound > len(codes):
        return np.unique(codes.astype(narrow), return_inverse=True, return_counts=True)
    tally = np.bincount(codes, minlength=bound)
    values = np.flatnonzero(tally)
    rank = np.cumsum(tally > 0) - 1
    return values.astype(narrow), rank[codes], tally[values]


def _check_nonnegative(counts: np.ndarray) -> None:
    if counts.size and counts.min() < 0:
        bad = int(np.flatnonzero((counts < 0).any(axis=1))[0])
        raise ValueError(f"counts must be non-negative; row {bad} is {counts[bad].tolist()}")


def distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct, multiplicity, inverse) of (R, K) non-negative counts:
    the distinct rows, how many rows equal each, and the index of every
    row among them, so that ``distinct[inverse]`` equals ``counts``.

    Each row is coded as a mixed-radix number whose digit u is the count of
    class u in base ``counts[:, u].max() + 1`` (class 0 the most
    significant), the codes go through :func:`_unique_codes`, and the
    distinct rows are decoded from their codes, in increasing code order,
    in the dtype of ``counts``.  When the counts are not of an integer
    dtype, or the product of the bases does not fit in int64, every row is
    its own distinct row.  A negative count raises a ``ValueError`` naming
    its row.
    """
    _check_nonnegative(counts)
    r, k = counts.shape
    base = [int(b) + 1 for b in counts.max(axis=0, initial=0)]
    bound = math.prod(base)
    if counts.dtype.kind not in "iu" or bound > np.iinfo(np.int64).max:
        return counts, np.ones(r, np.intp), np.arange(r)
    place = np.ones(k, dtype=np.int64)
    for u in range(k - 2, -1, -1):
        place[u] = place[u + 1] * base[u + 1]
    codes, inverse, multiplicity = _unique_codes(
        counts.astype(np.int64, copy=False) @ place, bound)
    distinct = codes.astype(np.int64)[:, None] // place % np.array(base, dtype=np.int64)
    return distinct.astype(counts.dtype, copy=False), multiplicity, inverse


def variance_se(values: np.ndarray) -> float | np.ndarray:
    """Standard error of the sample variance (fourth-moment formula) along
    the last axis, NaN below 4 values; a float for 1-D ``values``.  The
    unit-weight case of :func:`_weighted_moments`."""
    flat = values.reshape(-1, values.shape[-1])
    se = _weighted_moments(flat, np.ones(flat.shape))[3].reshape(values.shape[:-1])
    return float(se) if values.ndim == 1 else se


def inclusion_from_fractions(
    f1: np.ndarray,
    f2: np.ndarray,
    weights: np.ndarray | None = None,
    groups: int | None = None,
) -> InclusionEstimate:
    """Aggregate per-row inclusion fractions into an estimate.

    ``f1`` is (N, K) selected fractions F and ``f2`` (N, K) same-class pair
    fractions H (see :func:`pair_fractions`), NaN where a row had too few
    population members.  Row i stands for ``weights[i]`` replicates (1 by
    default), so distinct rows with their multiplicities estimate what all
    replicates do.  ``groups`` splits the rows into that many equal runs,
    each estimated alone.  Also the entry point for populations that change
    per replicate.

    A cell (u, v) of distinct classes averages the pair fraction F_u F_v
    over the rows where both are finite; a diagonal cell averages H_u.  A
    cell needs a weight of 2 there.  ``c_hat_se`` is the standard error of
    the mean of c_hat's linearization in (pi2, pi1_u, pi1_v), the quadratic
    form of the delta-method gradient in those three values' comoments.

    Every sum is an entry of one moment matrix per group (see
    :func:`_group_moments`), so no (N, K, K) array is formed: the memory is
    O(N K + G K^2).
    """
    n, k = f1.shape
    g = groups or 1
    w = None if weights is None else np.asarray(weights, dtype=float).reshape(g, -1)
    (s1, n1, sum1, sq1), shift, cell = _group_moments(f1, f2, w, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi1 = s1 + sum1 / n1
        pi1_se = np.sqrt(np.maximum(sq1 - sum1 * sum1 / n1, 0.0) / (n1 - 1.0)) / np.sqrt(n1)
        n2 = cell["n"]
        mean = {key: cell[key] / n2 for key in "yuv"}
        # comoments of (pair fraction, F_u, F_v) over each cell's rows
        cov = {a + b: cell[a + b] - cell[a] * mean[b]
               for a, b in ("yy", "yu", "yv", "uu", "vv", "uv")}
        # a pair fraction's variance within the rounding bound of its sums
        # is 0, and so are its covariances: it is constant on the cell's
        # rows (as when the pair fractions F_u F_v are one value while F_u
        # and F_v vary), where the sums would leave rounding noise
        rows = n // g
        constant = cov["yy"] <= 4.0 * (rows + 6) * np.finfo(float).eps * cell["yy_terms"]
        for key in ("yy", "yu", "yv"):
            cov[key][constant] = 0.0
        pi2 = shift + mean["y"]
        a, b = pi1[:, :, None], pi1[:, None, :]
        grad_y, grad_u, grad_v = -1.0 / (a * b), pi2 / (a * a * b), pi2 / (a * b * b)
        linear = (grad_y * grad_y * cov["yy"] + grad_u * grad_u * cov["uu"]
                  + grad_v * grad_v * cov["vv"]
                  + 2.0 * (grad_y * grad_u * cov["yu"] + grad_y * grad_v * cov["yv"]
                           + grad_u * grad_v * cov["uv"]))
        pi2_se = np.sqrt(np.maximum(cov["yy"], 0.0) / (n2 - 1.0)) / np.sqrt(n2)
        c_se = np.sqrt(np.maximum(linear, 0.0) / (n2 - 1.0)) / np.sqrt(n2)
    pi1, pi1_se = np.where(n1 > 0, pi1, np.nan), np.where(n1 >= 2, pi1_se, np.nan)
    # the upper triangle, mirrored: the sums need not be symmetric bit for bit
    iu, iv = np.triu_indices(k)
    square = np.empty((3, g, k, k))
    square[:, :, iu, iv] = square[:, :, iv, iu] = np.where(
        n2 >= 2, [pi2, pi2_se, c_se], np.nan)[:, :, iu, iv]
    c_hat = dependence_from_inclusion(pi1, square[0])
    fields = [pi1, pi1_se, *square[:2], c_hat, np.where(np.isnan(c_hat), np.nan, square[2])]
    replicates = np.full(g, n // g) if w is None else w.sum(axis=1).astype(np.int64)
    if groups is None:
        fields, replicates = [f[0] for f in fields], int(replicates[0])
    return InclusionEstimate(*fields, replicates)


def _shifted(x: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(shift, shifted values, finite mask) of (N, K) values in ``g`` equal
    runs of rows, the last two class-major, (G, K, n): each group's class
    shifted by its smallest finite value (0 when it has none), 0 where not
    finite.  A constant class becomes exact zeros, and a class holding a 0
    is not shifted, so products that vanish stay 0."""
    x = np.ascontiguousarray(x.reshape(g, -1, x.shape[1]).transpose(0, 2, 1))
    finite = np.isfinite(x)
    shift = np.fmin.reduce(x, axis=2)
    shift[np.isnan(shift)] = 0.0
    return shift, np.where(finite, x - shift[:, :, None], 0.0), finite


def _group_moments(f1: np.ndarray, f2: np.ndarray, w: np.ndarray | None, g: int):
    """The weighted sums behind :func:`inclusion_from_fractions` of (N, K)
    fractions ``f1`` (F) and ``f2`` (H) in ``g`` equal runs of rows, with
    (G, n) row weights ``w`` (None: unit weights):

    - (G, K) (shift s, weight, sum, sum of squares) of f = F - s over the
      rows where F is finite, for pi1;
    - the (G, K, K) shift of each cell's pair fraction, s_u s_v off the
      diagonal and H's shift on it;
    - a dict of (G, K, K) sums per cell over the rows where its pair
      fraction is finite: their weight ``n``, the sums ``y``, ``u``, ``v``
      of y = pair fraction - shift, f_u and f_v, the sums of the
      products of two of them (``yy``, ``yu``, ``yv``, ``uu``, ``vv``,
      ``uv``), and ``yy_terms``, a bound on the sum of the magnitudes of
      the terms that ``yy`` adds.

    Each class is first shifted by its group's smallest finite value (see
    :func:`_shifted`), so that the sums hold spreads, not means, and
    nothing cancels when the spread is small next to the mean.  One
    weighted product per group, [f, f∘f, I] W [f, f∘f, I]ᵀ with I the
    classes' finiteness indicators (one row of ones when all are finite),
    formed as A Aᵀ with A = [f, f∘f, I] W^(1/2) so that BLAS computes one
    triangle, holds every sum a cell (u, v), u != v, needs: its pair fraction
    F_u F_v is s_u s_v + y with y = s_u f_v + s_v f_u + f_u f_v, whose sums
    and products with f_u and f_v expand into entries of fWfᵀ,
    (f∘f)Wfᵀ, (f∘f)W(f∘f)ᵀ and the indicator blocks, the last masking each
    sum to the cell's rows.  The diagonal cells take H_u, shifted the same
    way, and their sums are K-vectors, one weighted row sum each.  Matrix
    products and row sums reduce each group as it is reduced alone, so a
    group's sums do not depend on the others.
    """
    k = f1.shape[1]

    def weighted(x):
        return x if w is None else x * w[:, None, :]

    s1, f, finite = _shifted(f1, g)
    q = f * f
    # all finite: one row of ones masks every cell, so the product has 2K + 1
    # rows, not 3K (at K = 40 that halves the estimate's time)
    if finite.all():
        ones, ind = np.ones((g, 1, f.shape[2])), np.zeros(k, dtype=np.intp)
    else:
        ones, ind = finite.astype(float), np.arange(k)
    cols = np.concatenate([f, q, ones], axis=1)
    if w is not None:
        cols *= np.sqrt(w)[:, None, :]
    prod = np.matmul(cols, cols.transpose(0, 2, 1))
    del cols
    i, fc, qc = 2 * k + ind, slice(0, k), slice(k, 2 * k)
    ff, qf, qq = prod[:, fc, fc], prod[:, qc, fc], prod[:, qc, qc]
    # fi[u, v]: the sum of f_u over the rows where F_v is finite; qi of f_u^2
    fi, qi, n = prod[:, fc][:, :, i], prod[:, qc][:, :, i], prod[:, i][:, :, i]
    diag = np.arange(k)
    first = s1, n[:, diag, diag], fi[:, diag, diag], ff[:, diag, diag]

    def t(x):
        return np.swapaxes(x, 1, 2)

    su, sv = s1[:, :, None], s1[:, None, :]
    cell = {key: np.array(value) for key, value in dict(
        n=n, y=su * t(fi) + sv * fi + ff,
        u=fi, v=t(fi), uu=qi, vv=t(qi), uv=ff,
        yy=(su * su * t(qi) + sv * sv * qi + qq
            + 2.0 * (su * sv * ff + su * t(qf) + sv * qf)),
        yu=su * ff + sv * qi + qf,
        yv=su * t(qi) + sv * ff + t(qf),
        # (a + b + c)^2 <= 3 (a^2 + b^2 + c^2): a bound on the sum of the
        # magnitudes of the terms behind yy
        yy_terms=3.0 * (su * su * t(qi) + sv * sv * qi + qq),
    ).items()}
    shift = su * sv

    s2, h, pairs = _shifted(f2, g)
    shift[:, diag, diag] = s2
    hw, pw = weighted(h), weighted(pairs.astype(float))
    for keys, total in (("n", pw.sum(axis=2)), ("y", hw.sum(axis=2)),
                        ("yy yy_terms", np.einsum("gkr,gkr->gk", hw, h)),
                        ("yu yv", np.einsum("gkr,gkr->gk", hw, f)),
                        ("u v", np.einsum("gkr,gkr->gk", pw, f)),
                        ("uu vv uv", np.einsum("gkr,gkr->gk", pw, q))):
        for key in keys.split():
            cell[key][:, diag, diag] = total
    return first, shift, cell


def pair_fractions(counts: np.ndarray, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate selected fractions F = N_u / n_u and same-class pair
    fractions H = N_u (N_u - 1) / (n_u (n_u - 1)), both (R, K); unestimable
    entries (absent or single-member classes) NaN.

    ``counts`` is (R, K) selected counts.  ``pop`` is the population: (K,)
    totals shared by every replicate, or (R, K) totals per replicate, in
    which case an entry of F is NaN where that replicate's population is 0
    (of H, below 2).  The fraction of selected pairs of distinct classes u
    and v is the product F_u F_v, so it is not stored.
    """
    pop = np.asarray(pop)
    with np.errstate(divide="ignore", invalid="ignore"):
        # N (N - 1) / (n (n - 1)) is that of the pair counts, halving being exact
        f1, f2 = counts / pop, counts * (counts - 1) / (pop * (pop - 1))
    for f, least in ((f1, 1), (f2, 2)):
        if np.any(pop < least):
            f[np.broadcast_to(pop < least, f.shape)] = np.nan
    return f1, f2


def run_replicates(
    design: SelectionDesign, table: ClassTable, r: int, seed: int
) -> tuple[ReplicateStats, InclusionEstimate]:
    """Draw ``r`` independent selections and summarize them.

    Deterministic for a fixed seed: all randomness comes from a stream
    derived from the seed and is consumed in replicate order, so results
    do not depend on scheduling.  Empty replicates are recorded (not
    errors) and excluded from the concentration moments.  The inclusion
    fractions are functions of the count row, so the estimate weighs each
    distinct row by its multiplicity.  A pairwise design's replicates stay
    state indices: only their distinct states are decoded into count rows.
    """
    if design.variant == "pairwise_pmf":
        rng = _replicate_rng(design, r, seed)
        states = _ClassStates(design, table.k)
        codes, inverse, multiplicity = _unique_codes(states.draw(rng, r), states.size)
        distinct = np.ascontiguousarray(states.decode(codes).T)
        stats = ReplicateStats.from_distinct(distinct, multiplicity, inverse, table)
    else:
        stats = ReplicateStats.from_counts(replicate_counts(design, table, r, seed), table)
    pop = np.bincount(design.class_of, minlength=table.k)
    return stats, inclusion_from_fractions(
        *pair_fractions(stats.distinct, pop), weights=stats.multiplicity
    )


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


def _mean_counts(distinct: np.ndarray, weights: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(G, K) mean count rows of G equal runs of ``distinct``'s rows, each
    row standing for its (G, n) ``weights`` replicates, ``sizes`` in all.

    Integer counts give each mean exactly, rounded once, which is numpy's
    mean of the replicates' float rows whenever that float sum is exact:
    every weight times count and every sum of them is an integer, exact as
    a double in any order while the largest magnitude times the largest
    run is below 2^53, and summed as Python integers above.  Other counts
    are weighted and summed as floats.
    """
    g, n = weights.shape
    rows = distinct.reshape(g, n, -1)
    if distinct.dtype.kind in "iu" and (
        max(int(distinct.max()), -int(distinct.min())) * int(sizes.max()) >= 2**53
    ):
        sums = (rows.astype(object) * weights.astype(object)[:, :, None]).sum(axis=1)
        return (sums / sizes.astype(object)[:, None]).astype(float)
    return np.matmul(weights.astype(float)[:, None, :], rows.astype(float))[:, 0] / sizes[:, None]


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

    The per-replicate values are linear in per-row moment matrices, so
    their replicate mean under any C is one inner product per run:

    - moment: mean(Gy / M^2) - <C, mean(a aᵀ / M^2)>, with
      a_u = N_u m_u (c_u - c_s);
    - Horvitz-Thompson: <d(C), mean(N / M^2)> - <C / (1 - C), mean(v vᵀ / M^2)>,
      with d_u = m_u^2 c_u^2 / (1 - C_uu) and v_u = N_u m_u c_u, NaN where
      C has an entry >= 1.

    The means weigh each distinct row by its multiplicity, and an empty row
    by 0, so the runs stay equal; they equal the per-replicate means to
    rounding.  The mean count rows are exact (see :func:`_mean_counts`),
    and the mean-summary values come from the row-local kernels.  Grouped
    ``stats`` and ``est`` compare each run under its own matrix, and every
    value of the report is then a (G,) array, each run's bit for bit as if
    compared alone.
    """
    k = table.k
    g = stats.groups or 1
    c_hat = est.c_hat.reshape(g, k, k)
    iu, iv = np.triu_indices(k)
    nan_cells = np.isnan(c_hat[:, iu, iv]).sum(axis=1)
    ok = stats.mass > 0
    weights = np.where(ok, stats.multiplicity, 0).reshape(g, -1)
    sizes = weights.sum(axis=1)
    if np.any(sizes < 2):
        raise EmptySampleError("too few non-empty replicates to compare estimators")
    mean_counts = _mean_counts(stats.distinct, weights, sizes)
    mean_mass, mean_analyte = sample_totals(mean_counts, table)
    mean_cs = sample_concentration(mean_mass, mean_analyte, table, mean_counts)

    # per-row moments over M^2, weighted to each run's mean; an empty row
    # has no counts and weighs 0
    counts = stats.distinct.astype(float)
    mass = np.where(ok, stats.mass, 1.0)
    gy, a = moment_deviations(counts, np.where(ok, stats.cs, 0.0), table)
    scale = (weights / sizes[:, None] / (mass * mass).reshape(g, -1))[:, None, :]

    def mean_outer(x):
        x = x.reshape(g, -1, k)
        return np.matmul(scale * x.transpose(0, 2, 1), x)

    gy_mean = np.matmul(scale, gy.reshape(g, -1, 1))[:, 0, 0]
    n_mean = np.matmul(scale, counts.reshape(g, -1, k))[:, 0]
    a_outer, v_outer = mean_outer(a), mean_outer(ht_totals(counts, table))

    def values(estimator, c):
        """(replicate_mean, mean_summary) of each run under its (K, K) matrix
        of the (G, K, K) stack ``c``."""
        if estimator == "moment":
            first, second = moment_terms(mean_counts, mean_cs, table, c)
            return (gy_mean - (c * a_outer).sum(axis=(1, 2)),
                    (first - second) / (mean_mass * mean_mass))
        undefined = ~np.all(c < 1.0, axis=(1, 2))  # the weights 1 / (1 - C)
        d, p = infinite_batch_weights(table, np.where(undefined[:, None, None], 0.0, c))
        first, second = ht_terms(mean_counts, table, d, p)
        return tuple(np.where(undefined, np.nan, value) for value in (
            (d * n_mean).sum(axis=1) - (p * v_outer).sum(axis=(1, 2)),
            (first - second) / (mean_mass * mean_mass)))

    v_e, v_e_se = np.reshape(stats.v_e, g), np.reshape(stats.v_e_se, g)
    unbox = (lambda a: float(a[0])) if stats.groups is None else (lambda a: a)
    report = []
    for estimator in ("moment", "horvitz_thompson"):
        for dep, c in (("zero", np.zeros((g, k, k))),
                       ("empirical", np.where(np.isnan(c_hat), 0.0, c_hat))):
            for mode, value in zip(("replicate_mean", "mean_summary"), values(estimator, c)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(v_e != 0, value / v_e, np.nan)
                    z = np.where(v_e_se != 0, (value - v_e) / v_e_se, np.nan)
                report.append(
                    ComparisonRow(estimator, dep, mode, *map(unbox, (value, v_e, ratio, z)))
                )
    nan_cells = int(nan_cells[0]) if stats.groups is None else nan_cells
    return ComparisonReport(tuple(report), stats.v_e, stats.v_e_se, nan_cells)
