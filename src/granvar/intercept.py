"""Line-intercept sampling of spatial particle fields.

A transect is a line segment dropped on the field; the particles (disks)
it crosses form an ordered one-dimensional chain.  Counting transitions
between classes along the chain carries spatial-dependence information:
classes that co-occur in space produce more same-pair adjacencies.  The
chain is biased towards larger particles (hit probability grows with
projected width), so class frequencies can be corrected by inverse-width
weighting.

Casting does not test every particle against every transect.  It takes
its candidates from the field's cell index (see
:attr:`SpatialField.column_strips`): the particles sorted by cell on a grid
whose cells are at least twice the largest radius wide (at most about
sqrt(n) per axis), once column by column and once row by row.  Window
counting shares that index, so a field that is both windowed and cast is
sorted once per axis.  A transect walks the axis it moves along more; for
each column (or row) it crosses, the candidates are one contiguous slice of
the sorted particles, padded by a cell on every side, so every particle it
can hit is among them.  The candidates then go through the exact chord
arithmetic, in blocks of transects, and the records equal those of testing
all n particles per transect bit for bit.
Transects are planar: a segment ends where it leaves the domain and does
not wrap around it, unlike windows and hard-core exclusion (toroidal
wrapping of transects is pending).

The mapping from transition counts to a dependence matrix implemented in
:func:`c_from_adjacency` is a design choice of this package, validated
only by sign and rank agreement against the window-sampling oracle; see
:func:`calibrate_against_oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GranvarError
from .fields import CellStrips, ProcessParams, SpatialField, concat_ranges, generate_field
from .model import ClassTable
from .selection import (
    SelectionDesign, inclusion_from_fractions, pair_fractions, replicate_counts,
)
from .util import derived_rng, derived_seeds, ordered_map

STATIONARY_RESIDUAL = 1e-12

#: Transects intersected together.  A block's candidate arrays hold at most
#: _TRANSECT_BLOCK * n entries, so the block size bounds the cast's memory.
_TRANSECT_BLOCK = 64


@dataclass(frozen=True)
class TransectRecord:
    """Particles intersected by one transect, in order of entry.

    ``chords`` are the in-segment chord lengths; ``widths`` the projected
    particle widths (disk diameters) used for size-bias correction.
    """

    start: tuple[float, float]
    angle: float
    length: float
    particle_ids: np.ndarray
    class_ids: np.ndarray
    chords: np.ndarray
    widths: np.ndarray

    @property
    def n(self) -> int:
        return len(self.particle_ids)


@dataclass(frozen=True)
class TransitionCounts:
    """Directional class-to-class adjacency tallies along transects."""

    n: np.ndarray

    @property
    def k(self) -> int:
        return self.n.shape[0]

    @property
    def total(self) -> int:
        return int(self.n.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.n.sum(axis=1)


@dataclass(frozen=True)
class MarkovFit:
    """Row-stochastic transition matrix with stationary distribution.

    Classes with no outgoing transitions are excluded (``known`` False)
    and reported rather than guessed.  ``stationary`` is NaN when the
    chain restricted to known classes is reducible.
    """

    transition: np.ndarray
    stationary: np.ndarray
    known: np.ndarray
    irreducible: bool


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


def cast_transects(
    field: SpatialField,
    count: int,
    orientation: float | str,
    length: float,
    seed: int,
) -> list[TransectRecord]:
    """Drop ``count`` transects with uniform random start points.

    ``orientation`` is a fixed angle in radians or ``"random"`` for a
    uniform angle per transect.  Intersections with particle disks are
    exact; records are ordered by entry point along the segment, ties
    broken by particle id (overlapping disks are legal in cluster fields).
    """
    if count < 1:
        raise ValueError("need at least one transect")
    if field.n == 0:
        raise ValueError("cannot cast transects over an empty field")
    if length <= 0:
        raise ValueError("transect length must be > 0")
    rng = derived_rng(seed)
    starts = np.column_stack(
        [rng.uniform(0.0, field.width, size=count), rng.uniform(0.0, field.height, size=count)]
    )
    if orientation == "random":
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    else:
        angles = np.full(count, float(orientation))
    return intersect_segments(field, starts, angles, length)


def intersect_segments(
    field: SpatialField, starts: np.ndarray, angles: np.ndarray, length: float
) -> list[TransectRecord]:
    """Particles hit by each segment of ``length`` from ``starts[t]`` (an
    (T, 2) array) at ``angles[t]``, one record per segment.

    Candidates come from the field's cached column and row strips (see
    :attr:`SpatialField.column_strips`): they hold every particle whose
    centre lies within half a cell side of the segment, and a hit's centre
    lies within the largest radius, at most half a cell side.  Each
    candidate is tested with the exact chord arithmetic, and records are
    ordered by entry point along the segment, ties broken by particle id.
    Segments are planar: they end at ``length`` and do not wrap around the
    domain.
    """
    starts = np.asarray(starts, dtype=float)
    angles = np.asarray(angles, dtype=float)
    x0, y0 = starts[:, 0], starts[:, 1]
    ux, uy = np.cos(angles), np.sin(angles)
    along_x = np.abs(ux) >= np.abs(uy)
    columns, rows = field.column_strips, field.row_strips
    starts_x, starts_y, angle_list = x0.tolist(), y0.tolist(), angles.tolist()
    records = []
    for first in range(0, len(angles), _TRANSECT_BLOCK):
        block = np.arange(first, min(first + _TRANSECT_BLOCK, len(angles)))
        pairs = []
        for strips, major, a0, b0, ua, ub in (
            (columns, along_x, x0, y0, ux, uy), (rows, ~along_x, y0, x0, uy, ux)
        ):
            sel = block[major[block]]
            t, p = _segment_candidates(strips, a0[sel], b0[sel], ua[sel], ub[sel], length)
            pairs.append((sel[t], p))
        t = np.concatenate([t for t, _ in pairs])
        p = np.concatenate([p for _, p in pairs])
        # the dense loop's arithmetic, element for element
        dx = field.x[p] - x0[t]
        dy = field.y[p] - y0[t]
        along = dx * ux[t] + dy * uy[t]
        d2 = dx * dx + dy * dy
        disc = along * along - d2 + field.radius[p] * field.radius[p]
        hit = disc >= 0.0
        t, p, along, disc = t[hit], p[hit], along[hit], disc[hit]
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.maximum(along - root, 0.0)
        hi = np.minimum(along + root, length)
        ok = hi > lo
        t, p, lo, hi = t[ok], p[ok], lo[ok], hi[ok]
        order = np.lexsort((p, lo, t))
        p, chords = p[order], (hi - lo)[order]
        classes, widths = field.class_id[p], 2.0 * field.radius[p]
        ends = np.cumsum(np.bincount(t - first, minlength=len(block))).tolist()
        for i, begin, end in zip(block.tolist(), [0] + ends, ends):
            records.append(TransectRecord(
                start=(starts_x[i], starts_y[i]),
                angle=angle_list[i],
                length=length,
                particle_ids=p[begin:end],
                class_ids=classes[begin:end],
                chords=chords[begin:end],
                widths=widths[begin:end],
            ))
    return records


def _segment_candidates(strips: CellStrips, a0, b0, ua, ub,
                        length: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (t, particle) covering every particle within half a cell of
    segment t, which starts at (a0[t], b0[t]) in direction (ua[t], ub[t])
    with |ua| >= |ub|, walking ``strips`` (strips along axis a); each
    particle at most once per segment.

    The segment's strips are walked, padded by one on each side.  A centre
    within half a cell of the segment is near a segment point over its own
    or an adjacent strip, so each strip's rows are the ones the segment
    spans over that strip and its two neighbours, padded by one row on each
    side.  The slope |ub / ua| is at most 1.
    """
    a1 = a0 + length * ua
    a_lo, a_hi = np.minimum(a0, a1), np.maximum(a0, a1)
    col_first, col_last = _span(a_lo, a_hi, strips.scale_a, strips.na)
    n_cols = col_last - col_first + 1
    t = np.repeat(np.arange(len(a0)), n_cols)
    col = concat_ranges(col_first, n_cols)
    edges = np.clip(np.stack([col - 1, col + 2]) / strips.scale_a, a_lo[t], a_hi[t])
    b = b0[t] + (edges - a0[t]) * (ub / ua)[t]
    row_first, row_last = _span(b.min(axis=0), b.max(axis=0), strips.scale_b, strips.nb)
    begin, count = strips.slices(col, row_first, row_last)
    return np.repeat(t, count), strips.take(begin, count)


def _span(lo: np.ndarray, hi: np.ndarray, scale: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last of the n cells (width 1 / scale, from 0) that cover
    [lo, hi], padded by one cell on each side; last = first - 1 when no
    cell is left after clipping to 0..n-1."""
    first = np.clip(np.floor(lo * scale) - 1.0, 0, n).astype(np.intp)
    last = np.clip(np.floor(hi * scale) + 1.0, -1, n - 1).astype(np.intp)
    return first, last


def transition_counts(records: Sequence[TransectRecord], k: int) -> TransitionCounts:
    """Tally directional adjacent-class pairs within each record.

    Records shorter than two intersections contribute nothing; chains
    never continue across transects.
    """
    chains = [rec.class_ids for rec in records if len(rec.class_ids) >= 2]
    if not chains:
        return TransitionCounts(np.zeros((k, k), dtype=np.int64))
    classes = np.concatenate(chains).astype(np.int64, copy=False)
    # a record's last hit is no source: it does not lead into the next record
    source = np.ones(len(classes) - 1, dtype=bool)
    source[np.cumsum([len(c) for c in chains[:-1]], dtype=np.intp) - 1] = False
    pairs = classes[:-1][source] * k + classes[1:][source]
    return TransitionCounts(np.bincount(pairs, minlength=k * k).reshape(k, k))


def markov_fit(counts: TransitionCounts) -> MarkovFit:
    """Row-normalize transition counts and find the stationary distribution.

    The stationary distribution solves pP = p, sum(p) = 1 directly on the
    known classes; a solution whose residual max|pP - p| exceeds
    ``STATIONARY_RESIDUAL`` raises GranvarError rather than being
    returned.  Zero-total rows mark their class as unknown and are
    excluded; a reducible chain is reported instead of fitted.
    """
    k = counts.k
    totals = counts.row_totals
    known = totals > 0
    p = np.full((k, k), np.nan)
    p[known] = counts.n[known] / totals[known, None]
    stationary = np.full(k, np.nan)
    idx = np.nonzero(known)[0]
    if len(idx) == 0:
        return MarkovFit(p, stationary, known, irreducible=False)
    sub = p[np.ix_(idx, idx)]
    # transitions into unknown classes leave the retained chain; renormalize
    row_mass = sub.sum(axis=1)
    if np.any(row_mass <= 0):
        return MarkovFit(p, stationary, known, irreducible=False)
    sub = sub / row_mass[:, None]
    irreducible = _strongly_connected(sub > 0)
    if irreducible:
        # pi (P - I) = 0 with the last balance equation replaced by
        # sum(pi) = 1; each diagonal entry of P - I is taken as minus its
        # row's off-diagonal mass, which avoids the cancellation in
        # p_ii - 1 when a class rarely leaves itself
        a = sub.T.copy()
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=0))
        a[-1] = 1.0
        rhs = np.zeros(len(idx))
        rhs[-1] = 1.0
        pi = np.linalg.solve(a, rhs)
        residual = float(np.abs(pi @ sub - pi).max())
        if not residual <= STATIONARY_RESIDUAL:
            raise GranvarError(
                f"stationary solve residual {residual:.3g} exceeds {STATIONARY_RESIDUAL:g}"
            )
        stationary[idx] = pi
    return MarkovFit(p, stationary, known, irreducible=bool(irreducible))


def _strongly_connected(adjacency: np.ndarray) -> bool:
    """Whether every node of the directed graph ``adjacency`` (a boolean
    matrix) reaches every other: its reflexive-transitive closure, found by
    repeated boolean squaring, is all true."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            return bool(reach.all())
        reach = wider


def class_weights(
    records: Sequence[TransectRecord], k: int, correct: bool = True
) -> np.ndarray:
    """Per-class tally of intersections, unnormalised.

    With ``correct`` each intersection weighs the inverse of its projected
    width, otherwise 1.  Weights are added in record order, so the sums do
    not depend on how the records are grouped.
    """
    hit = [rec for rec in records if rec.n]
    if not hit:
        return np.zeros(k)
    widths = np.concatenate([rec.widths for rec in hit])
    if np.any(widths <= 0):
        raise ValueError("all intercepted particles need positive width")
    weights = 1.0 / widths if correct else np.ones(len(widths))
    return np.bincount(np.concatenate([rec.class_ids for rec in hit]), weights=weights,
                       minlength=k)


def size_corrected_frequencies(
    records: Sequence[TransectRecord], k: int, correct: bool = True
) -> np.ndarray:
    """Per-class abundance from intercepted particles.

    With ``correct`` each intersection is weighted by the inverse of its
    projected width, the standard unbiasing for width-proportional hit
    rates; without it the raw intersection frequencies are returned (the
    difference measures the size bias).  All records contribute, including
    single-hit ones.
    """
    weights = class_weights(records, k, correct)
    total = weights.sum()
    if total <= 0:
        raise ValueError("no intersections: frequencies undefined")
    return weights / total


def c_from_adjacency(counts: TransitionCounts, freq: np.ndarray) -> np.ndarray:
    """Dependence matrix from adjacency statistics.

    The symmetrized adjacency rate S_ij = (N_ij + N_ji) / (2 T) is an
    ordered-pair probability; dividing by the independence baseline
    freq_i * freq_j and subtracting from one gives a dependence value with
    the oracle's orientation: more same-pair adjacency means a lower
    (more negative) value.  Entries with a zero baseline are NaN
    (unestimable).  Exactly symmetric by construction.
    """
    t = counts.total
    if t < 1:
        raise ValueError("need at least one transition")
    freq = np.asarray(freq, dtype=float)
    if freq.shape != (counts.k,):
        raise ValueError(f"freq must have length {counts.k}")
    s = (counts.n + counts.n.T) / (2.0 * t)
    baseline = freq[:, None] * freq[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 - s / baseline
    c[baseline == 0] = np.nan
    return c


@dataclass(frozen=True)
class TransectSpec:
    count: int
    length: float
    orientation: float | str = "random"


def adjacency_dependence_for_field(
    field: SpatialField, table: ClassTable, spec: TransectSpec, seed: int
) -> tuple[np.ndarray, TransitionCounts, np.ndarray]:
    """Cast transects and derive the adjacency dependence matrix.

    Returns (dependence matrix, transition counts, class frequencies).
    """
    records = cast_transects(field, spec.count, spec.orientation, spec.length, seed)
    return adjacency_dependence(records, table.k)


def adjacency_dependence(
    records: Sequence[TransectRecord], k: int
) -> tuple[np.ndarray, TransitionCounts, np.ndarray]:
    """Adjacency dependence matrix of transects already cast.

    Returns (dependence matrix, transition counts, class frequencies).
    """
    counts = transition_counts(records, k)
    freq = size_corrected_frequencies(records, k)
    return c_from_adjacency(counts, freq), counts, freq


def calibrate_against_oracle(
    processes: Sequence[tuple[str, ProcessParams]],
    table: ClassTable,
    window: tuple[float, float],
    replicates: int,
    transects: TransectSpec,
    master_seed: int,
    n_seeds: int,
    threads: int = 1,
) -> CalibrationReport:
    """Compare adjacency-based and window-oracle dependence estimates over
    an ensemble of field processes.

    For every process and seed a field is generated and measured both
    ways, from the field's one cell index, which is sorted once per axis;
    per-process means are compared by Spearman rank correlation and
    sign agreement.  When the oracle means are all within two standard
    errors of zero the ensemble is flagged as a null regime where sign
    agreement is not meaningful.
    """
    def one_case(item: tuple[int, tuple[str, ProcessParams]]) -> CalibrationCase:
        case_index, (label, params) = item
        pops, counts, adjacency_vals = [], [], []
        for s in range(n_seeds):
            field_seed, window_seed, transect_seed = derived_seeds(
                master_seed, case_index, s, count=3
            )
            field = generate_field(params, table, field_seed)
            design = SelectionDesign.window(field, window[0], window[1])
            counts.append(replicate_counts(design, table, replicates, window_seed))
            pops.append(np.broadcast_to(np.bincount(design.class_of, minlength=table.k),
                                        counts[-1].shape))
            adj, _, _ = adjacency_dependence_for_field(
                field, table, transects, transect_seed
            )
            adjacency_vals.append(adj)
        # every seed's windows in one grouped pass, each seed a group
        pops, counts = np.concatenate(pops), np.concatenate(counts)
        oracle = inclusion_from_fractions(
            *pair_fractions(counts, pops), pops[::replicates], groups=n_seeds
        ).c_hat
        adjacency = np.stack(adjacency_vals)
        with np.errstate(invalid="ignore"):
            oracle_mean = np.nanmean(oracle, axis=0)
            adjacency_mean = np.nanmean(adjacency, axis=0)
            n_o = np.sum(np.isfinite(oracle), axis=0)
            n_a = np.sum(np.isfinite(adjacency), axis=0)
            oracle_se = np.nanstd(oracle, axis=0, ddof=1) / np.sqrt(np.maximum(n_o, 1))
            adjacency_se = np.nanstd(adjacency, axis=0, ddof=1) / np.sqrt(np.maximum(n_a, 1))
        return CalibrationCase(label, oracle_mean, oracle_se, adjacency_mean, adjacency_se)

    cases = ordered_map(one_case, list(enumerate(processes)), threads)

    k = table.k
    iu = np.triu_indices(k)
    oracle_series = []
    oracle_se_series = []
    adjacency_series = []
    for case in cases:
        for a, b in zip(*iu):
            o, c = case.oracle_c[a, b], case.adjacency_c[a, b]
            if np.isfinite(o) and np.isfinite(c):
                oracle_series.append(o)
                oracle_se_series.append(case.oracle_se[a, b])
                adjacency_series.append(c)
    oracle_series = np.array(oracle_series)
    oracle_se_series = np.array(oracle_se_series)
    adjacency_series = np.array(adjacency_series)
    if len(oracle_series) >= 2 and np.ptp(oracle_series) > 0 and np.ptp(adjacency_series) > 0:
        from scipy.stats import spearmanr  # deferred: scipy.stats is slow to import

        rho = float(spearmanr(oracle_series, adjacency_series).statistic)
    else:
        rho = np.nan
    # a cell is informative when its oracle mean clears its own noise floor
    informative = np.abs(oracle_series) > 2.0 * np.where(
        np.isfinite(oracle_se_series), oracle_se_series, np.inf
    )
    if informative.any():
        agree = float(
            np.mean(np.sign(oracle_series[informative]) == np.sign(adjacency_series[informative]))
        )
    else:
        agree = np.nan
    null_regime = not informative.any()
    return CalibrationReport(tuple(cases), rho, agree, null_regime)
