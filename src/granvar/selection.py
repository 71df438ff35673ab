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
that invert to an empirical dependence matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySampleError
from .estimators import (
    ht_terms,
    infinite_batch_weights,
    moment_terms,
    sample_concentration,
    sample_totals,
)
from .fields import SpatialField
from .model import ClassTable, first_order_probabilities
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
    """A read-only int64 copy of ``class_of``, checked against ``k`` classes."""
    ids = np.array(class_of, dtype=np.int64)
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
    A table whose classes share one concentration is the exception: c_s
    is exactly that concentration (see
    :func:`~granvar.estimators.sample_concentration`), so ``mean_cs`` is
    too and ``v_e`` and ``v_e_se`` are 0, where the sums would give
    rounding noise; they stay NaN below 2 (4) non-empty replicates.
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
        cs = np.full(len(mass), np.nan)
        cs[nonempty] = sample_concentration(mass[nonempty], analyte[nonempty], table)
        w = multiplicity.astype(float)
        _, mean_mass, var_mass, _ = _group_reduce(
            _weighted_moments, np.full(g, len(mass) // g), mass, w)
        _, mean_cs, v_e, v_e_se = _group_reduce(
            _weighted_moments, _rows_per_run(nonempty, g), cs[nonempty], w[nonempty])
        mass_cv = np.divide(np.sqrt(var_mass), mean_mass, out=np.full(g, np.nan),
                            where=mean_mass > 0)
        common = table.common_concentration
        if common is not None:
            # c_s is exactly ``common`` on every non-empty row: the sums would
            # round its mean and give its spread as noise
            few, fewer = np.isnan(v_e), np.isnan(v_e_se)
            mean_cs = np.where(few, np.nan, common)
            v_e, v_e_se = np.where(few, np.nan, 0.0), np.where(fewer, np.nan, 0.0)
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


def _invert_dependence(pi1: np.ndarray, pi2: np.ndarray) -> np.ndarray:
    outer = pi1[..., :, None] * pi1[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 - pi2 / outer
    c[~np.isfinite(outer) | (outer == 0)] = np.nan
    return c


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
            cs = sample_concentration(np.where(nonempty, mass, 1.0), analyte, table)
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
    # a shared concentration is every state's c_s: its mean, which the
    # weighted sum would round, and variance 0
    common = table.common_concentration
    mean_cs = sum_cs / z_nonempty if common is None else common
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


def _weighted_mean(x: np.ndarray, w: np.ndarray, valid: np.ndarray):
    """(weight, mean, deviations, standard error of the mean) per group of
    C-ordered (..., G, R) ``x``, over the rows ``valid`` marks, with (G, R)
    row weights ``w``; deviations off those rows carry no weight.  Unit
    weights and every row valid give numpy's mean and std(ddof=1) /
    sqrt(R) of each group's rows, bit for bit."""
    if not valid.all():
        w, x = np.where(valid, w, 0.0), np.where(valid, x, 0.0)
    total = w.sum(axis=-1)
    mean = (w * x).sum(axis=-1) / total
    dev = x - mean[..., None]
    se = np.sqrt((w * (dev * dev)).sum(axis=-1) / (total - 1.0)) / np.sqrt(total)
    return total, mean, dev, se


def inclusion_from_fractions(
    f1: np.ndarray,
    f2: np.ndarray,
    weights: np.ndarray | None = None,
    groups: int | None = None,
) -> InclusionEstimate:
    """Aggregate per-row inclusion fractions into an estimate.

    ``f1`` is (N, K) selected fractions and ``f2`` (N, K, K) selected pair
    fractions, NaN where a row had too few population members.  Row i
    stands for ``weights[i]`` replicates (1 by default), so distinct rows
    with their multiplicities estimate what all replicates do.  ``groups``
    splits the rows into that many equal runs, each estimated alone.  Also
    the entry point for populations that change per replicate.

    All K(K+1)/2 cells take one pass of weighted sums (see
    :func:`_weighted_mean`) over the rows where their fractions are
    finite, and need a weight of 2 there.  ``c_hat_se`` is the standard
    error of the mean of c_hat's linearization in (pi2, pi1_u, pi1_v).
    """
    n, k = f1.shape
    g = groups or 1
    size = n // g
    w = (np.ones(n) if weights is None else np.asarray(weights, dtype=float)).reshape(g, size)
    iu, iv = np.triu_indices(k)
    # C order: numpy then sums each run's R values as it sums them alone
    x1 = np.ascontiguousarray(f1.T).reshape(k, g, size)
    x2 = np.ascontiguousarray(f2[:, iu, iv].T).reshape(len(iu), g, size)
    valid2 = np.isfinite(x2) & np.isfinite(x1[iu]) & np.isfinite(x1[iv])
    with np.errstate(divide="ignore", invalid="ignore"):
        n1, pi1, _, pi1_se = _weighted_mean(x1, w, np.isfinite(x1))
        n2, pi2, dev2, pi2_se = _weighted_mean(x2, w, valid2)
        a, b = pi1[iu], pi1[iv]
        linear = ((-1.0 / (a * b))[..., None] * dev2
                  + (pi2 / (a * a * b))[..., None] * _weighted_mean(x1[iu], w, valid2)[2]
                  + (pi2 / (a * b * b))[..., None] * _weighted_mean(x1[iv], w, valid2)[2])
        c_se = _weighted_mean(linear, w, valid2)[3]
    pi1, pi1_se = np.where(n1 > 0, pi1, np.nan).T, np.where(n1 >= 2, pi1_se, np.nan).T
    square = np.empty((3, g, k, k))
    square[:, :, iu, iv] = square[:, :, iv, iu] = np.where(
        n2 >= 2, [pi2, pi2_se, c_se], np.nan).transpose(0, 2, 1)
    c_hat = _invert_dependence(pi1, square[0])
    fields = [pi1, pi1_se, *square[:2], c_hat, np.where(np.isnan(c_hat), np.nan, square[2])]
    replicates = w.sum(axis=1).astype(np.int64)
    if groups is None:
        fields, replicates = [f[0] for f in fields], int(replicates[0])
    return InclusionEstimate(*fields, replicates)


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


def _mean_counts(distinct: np.ndarray, weights: np.ndarray, runs: np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """(G, K) mean count rows of G runs of ``sizes`` replicates: run g is
    the next ``runs[g]`` rows of ``distinct``, each standing for
    ``weights`` replicates.

    Integer counts give each mean exactly, rounded once, which is numpy's
    mean of the replicates' float rows whenever that float sum is exact:
    every weight times count and every sum of them is an integer, exact as
    a double while the largest magnitude times the largest run is below
    2^53, and summed as Python integers above.  Other counts are weighted
    and summed as floats.
    """
    dtype = float
    if distinct.dtype.kind in "iu" and (
        max(int(distinct.max()), -int(distinct.min())) * int(sizes.max()) >= 2**53
    ):
        dtype, sizes = object, sizes.astype(object)
    x = distinct.astype(dtype) * weights.astype(dtype)[:, None]
    sums = np.add.reduceat(x, np.cumsum(runs) - runs, axis=0)
    return (sums / sizes[:, None]).astype(float)


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
    evaluated once per distinct non-empty row, and the replicate means
    and mean count rows weigh each row by its multiplicity; so
    ``replicate_mean`` values equal the per-replicate means to rounding,
    and the mean counts are exact (see :func:`_mean_counts`).  Grouped
    ``stats`` and ``est`` compare each run under its own matrix, which
    enters the kernels as per-row columns, and every value of the report
    is then a (G,) array, each run's bit for bit as if compared alone.
    """
    k = table.k
    g = stats.groups or 1
    c_hat = est.c_hat.reshape(g, k, k)
    iu, iv = np.triu_indices(k)
    nan_cells = np.isnan(c_hat[:, iu, iv]).sum(axis=1)
    ok = stats.mass > 0
    # non-empty distinct rows per run, their multiplicities and their run
    runs, weights = _rows_per_run(ok, g), stats.multiplicity[ok]
    run = np.repeat(np.arange(g), runs)
    sizes = np.bincount(run, weights, minlength=g).astype(np.int64)  # exact below 2^53
    if np.any(sizes < 2):
        raise EmptySampleError("too few non-empty replicates to compare estimators")
    mean_counts = _mean_counts(stats.distinct[ok], weights, runs, sizes)
    mean_mass, mean_analyte = sample_totals(mean_counts, table)
    rows = (stats.distinct[ok].astype(float), stats.mass[ok], stats.cs[ok], run)
    summaries = (mean_counts, mean_mass, sample_concentration(mean_mass, mean_analyte, table),
                 np.arange(g))
    w = weights.astype(float)

    def run_mean(values):
        return _group_reduce(lambda x, w: ((w * x).sum(axis=-1) / w.sum(axis=-1),),
                             runs, values, w)[0]

    def evaluate(estimator, c, counts, mass, cs, group):
        """Per-row values, each row under its run's matrix of the (G, K, K)
        stack ``c``, or under ``c`` itself when it is one (K, K) matrix."""
        undefined = ~np.all(c < 1.0, axis=(-2, -1))  # the weights 1 / (1 - C)
        if c.ndim == 3:
            if estimator != "moment":
                c = np.where(undefined[:, None, None], 0.0, c)
            c, undefined = np.moveaxis(c, 0, -1)[..., group], undefined[group]
        if estimator == "moment":
            first, second = moment_terms(counts, cs, table, c)
            return (first - second) / (mass * mass)
        first, second = ht_terms(counts, table, *infinite_batch_weights(table, c))
        return np.where(undefined, np.nan, (first - second) / (mass * mass))

    v_e, v_e_se = np.reshape(stats.v_e, g), np.reshape(stats.v_e_se, g)
    unbox = (lambda a: float(a[0])) if stats.groups is None else (lambda a: a)
    report = []
    for estimator in ("moment", "horvitz_thompson"):
        for dep, c in (("zero", np.zeros((k, k))),
                       ("empirical", np.where(np.isnan(c_hat), 0.0, c_hat))):
            for mode, value in (
                ("replicate_mean", run_mean(evaluate(estimator, c, *rows))),
                ("mean_summary", evaluate(estimator, c, *summaries)),
            ):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(v_e != 0, value / v_e, np.nan)
                    z = np.where(v_e_se != 0, (value - v_e) / v_e_se, np.nan)
                report.append(
                    ComparisonRow(estimator, dep, mode, *map(unbox, (value, v_e, ratio, z)))
                )
    nan_cells = int(nan_cells[0]) if stats.groups is None else nan_cells
    return ComparisonReport(tuple(report), stats.v_e, stats.v_e_se, nan_cells)
