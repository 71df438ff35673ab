"""Line-intercept sampling of spatial particle fields.

A transect is a line segment dropped on the field; the particles (disks)
it crosses form an ordered one-dimensional chain.  Counting transitions
between classes along the chain carries spatial-dependence information:
classes that co-occur in space produce more same-pair adjacencies.  The
chain is biased towards larger particles (hit probability grows with
projected width), so class frequencies can be corrected by inverse-width
weighting.

A cast returns one :class:`TransectBatch`: the transects' starts and
angles, and the flat arrays of their hits (particle, class, chord, width),
transect after transect, with CSR offsets.  Transition counts, class
weights and the CSV writer read these arrays directly; ``batch[t]`` gives
one transect as a :class:`TransectRecord` view.

Casting does not test every particle against every transect.  A disk that
meets a segment has its centre within r_max, the largest |radius|, of the
segment, so only the particles in that band can be hit.  The candidates
come from the field's cell index (see :attr:`SpatialField.column_strips`):
the particles sorted by cell, column by column, shared with window
counting.  A transect takes the columns that cover its x-extent widened by
r_max, and in each of them the rows that cover the segment between where
it crosses the column's two edges, all widened by r_max: one contiguous
slice of the sorted particles per column, so a steep segment takes few
columns and many rows of each.  Every centre within r_max of the segment
lies in those cells whatever their size, and a margin far above the
rounding of the chord test (``_CAST_MARGIN``) covers the disks that the
test accepts a little beyond r_max (up to about 2e-8 at unit distance).
The candidates then go through the exact chord arithmetic, in blocks of
transects, and the batch equals testing all n particles per transect bit
for bit.
Transects are planar: a segment ends where it leaves the domain and does
not wrap around it, unlike windows and hard-core exclusion (toroidal
wrapping of transects is pending).

The mapping from transition counts to a dependence matrix implemented in
:func:`c_from_adjacency` is a design choice of this package, validated
only by sign and rank agreement against the window-sampling oracle; see
:func:`granvar.experiments.calibrate_against_oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GranvarError
from .fields import CellStrips, SpatialField, concat_ranges
from .model import ClassTable, dependence_from_inclusion
from .util import derived_rng

STATIONARY_RESIDUAL = 1e-12

#: Transects intersected together.  A block's candidate arrays hold at most
#: _TRANSECT_BLOCK * n entries, so the block size bounds the cast's memory;
#: at most 2**16, so that :func:`_hit_order` sorts block-local transects as
#: 16-bit keys.
_TRANSECT_BLOCK = 256

#: A segment's candidate band reaches r_max (the largest |radius|) plus this
#: fraction of length + 2 r_max + the longer domain side.  The chord test
#: computes along^2 - d^2 + r^2 with an error of a few ulp of d^2, d the
#: centre's distance from the start, so it can accept a centre about
#: sqrt(ulp) d beyond r: up to 1.9e-8 off the line at d <= 1.1 for radius-0
#: particles.  A hit's d is at most length + 2 r_max, and the band's own
#: cell arithmetic errs by ulps of the domain side.
_CAST_MARGIN = 2.0**-20


@dataclass(frozen=True)
class TransectRecord:
    """Particles intersected by one transect, in order of entry: one
    transect of a :class:`TransectBatch`.

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
class TransectBatch:
    """Transects of one length and the particles they intersect, as columns.

    Transect t starts at ``starts[t]`` (a (T, 2) array) at ``angles[t]``.
    Its hits, in order of entry, are entries ``offsets[t]:offsets[t + 1]``
    of the flat arrays ``particle_ids``, ``class_ids``, ``chords`` (the
    in-segment chord lengths) and ``widths`` (the projected widths, disk
    diameters, used for size-bias correction); ``offsets`` holds T + 1
    entries from 0.  ``batch[t]`` and ``iter(batch)`` give one transect as
    a :class:`TransectRecord`, whose arrays are views of the flat ones.
    """

    starts: np.ndarray
    angles: np.ndarray
    length: float
    offsets: np.ndarray
    particle_ids: np.ndarray
    class_ids: np.ndarray
    chords: np.ndarray
    widths: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)

    def __getitem__(self, t: int) -> TransectRecord:
        t = range(len(self))[t]
        begin, end = self.offsets[t], self.offsets[t + 1]
        x, y = self.starts[t].tolist()
        return TransectRecord(
            start=(x, y),
            angle=float(self.angles[t]),
            length=self.length,
            particle_ids=self.particle_ids[begin:end],
            class_ids=self.class_ids[begin:end],
            chords=self.chords[begin:end],
            widths=self.widths[begin:end],
        )

    def __iter__(self) -> Iterator[TransectRecord]:
        return map(self.__getitem__, range(len(self)))

    @property
    def hits(self) -> np.ndarray:
        """Intersections per transect."""
        return np.diff(self.offsets)


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


def cast_transects(
    field: SpatialField,
    count: int,
    orientation: float | str,
    length: float,
    seed: int,
) -> TransectBatch:
    """Drop ``count`` transects with uniform random start points.

    ``orientation`` is a fixed angle in radians or ``"random"`` for a
    uniform angle per transect.  Intersections with particle disks are
    exact; each transect's hits are ordered by entry point along the
    segment, ties broken by particle id (overlapping disks are legal in
    cluster fields).
    """
    if count < 1:
        raise ValueError("need at least one transect")
    if field.n == 0:
        raise ValueError("cannot cast transects over an empty field")
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
) -> TransectBatch:
    """Particles hit by each segment of ``length`` from ``starts[t]`` (a
    (T, 2) array) at ``angles[t]``, as one batch.

    A disk that meets a segment has its centre within r_max, the largest
    |radius|, of it.  So the candidates of a segment are the particles of
    the cells, in the field's cached column strips (see
    :attr:`SpatialField.column_strips`), that the segment's r_max band
    covers, whatever its slope (see :func:`_segment_candidates`); the band
    is widened by ``_CAST_MARGIN`` beyond the rounding of the chord test, so
    it holds every particle the test accepts, whatever the cell size.  Each
    candidate is tested with the exact chord arithmetic, and each
    segment's hits are ordered by entry point along it, ties broken by
    particle id, so the batch equals testing all n particles per segment
    bit for bit.  Segments are planar: they end at ``length`` and do not
    wrap around the domain.
    """
    starts = np.array(starts, dtype=float)
    angles = np.array(angles, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2:
        raise ValueError(f"starts must be a (T, 2) array, got shape {starts.shape}")
    if angles.shape != (len(starts),):
        raise ValueError(f"angles must hold one angle per start ({len(starts)}), "
                         f"got shape {angles.shape}")
    for name, values in (("starts", starts), ("angles", angles)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"length must be finite and > 0, got {length}")
    x0, y0 = starts[:, 0], starts[:, 1]
    ux, uy = np.cos(angles), np.sin(angles)
    r_max = float(np.abs(field.radius).max(initial=0.0))
    reach = r_max + _CAST_MARGIN * (length + 2.0 * r_max + max(field.width, field.height))
    hit_t, hit_p, hit_chords = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for first in range(0, len(angles), _TRANSECT_BLOCK):
        block = slice(first, first + _TRANSECT_BLOCK)
        t, p = _segment_candidates(field.column_strips, x0[block], y0[block], ux[block],
                                   uy[block], length, reach)
        t += first
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
        order = _hit_order(t - first, lo, p, field.n)
        hit_t.append(t[order])
        hit_p.append(p[order])
        hit_chords.append((hi - lo)[order])
    offsets = np.zeros(len(angles) + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.concatenate(hit_t), minlength=len(angles)), out=offsets[1:])
    p = np.concatenate(hit_p)
    return TransectBatch(
        starts=starts, angles=angles, length=length, offsets=offsets, particle_ids=p,
        class_ids=field.class_id[p], chords=np.concatenate(hit_chords),
        widths=2.0 * field.radius[p],
    )


def _hit_order(block_t: np.ndarray, lo: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """``np.lexsort((p, lo, block_t))`` for block-local transect indices
    below 2**16 and particle ids below ``n``.  A lexsort is a chain of
    stable sorts, least significant key first, so ties keep their order;
    numpy radix-sorts the keys of 16 bits or fewer."""
    order = np.argsort(p.astype(np.uint16) if n <= 1 << 16 else p, kind="stable")
    order = order[np.argsort(lo[order], kind="stable")]
    return order[np.argsort(block_t[order].astype(np.uint16), kind="stable")]


def _segment_candidates(strips: CellStrips, x0, y0, ux, uy, length: float,
                        reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (t, particle) covering every particle whose centre lies within
    ``reach`` of segment t, which starts at (x0[t], y0[t]) in direction
    (ux[t], uy[t]), walking the column ``strips``; each particle at most
    once per segment.

    The segment's columns are those covering its x-extent widened by
    ``reach``.  A centre in column c within ``reach`` of the segment is
    within ``reach``, along x, of a segment point, so that point lies over
    column c widened by ``reach``, between the distances along the segment
    s = clip((edge - x0) / ux, 0, length) of the widened column's two
    edges; column c's rows are the ones covering the segment's y-values at
    those two distances, widened by ``reach``.  ``np.cos`` of a finite
    double is never 0, so a vertical segment, whose x-extent rounds to
    nothing, still spans its whole length in its columns.
    """
    x1 = x0 + length * ux
    col_first, col_last = _span(np.minimum(x0, x1) - reach, np.maximum(x0, x1) + reach,
                                strips.scale_a, strips.na)
    n_cols = col_last - col_first + 1
    t = np.repeat(np.arange(len(x0)), n_cols)
    col = concat_ranges(col_first, n_cols)
    edges = np.stack([col / strips.scale_a - reach, (col + 1) / strips.scale_a + reach])
    y = y0[t] + np.clip((edges - x0[t]) / ux[t], 0.0, length) * uy[t]
    row_first, row_last = _span(y.min(axis=0) - reach, y.max(axis=0) + reach,
                                strips.scale_b, strips.nb)
    begin, count = strips.slices(col, row_first, row_last)
    return np.repeat(t, count), strips.take(begin, count)


def _span(lo: np.ndarray, hi: np.ndarray, scale: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells first..last, of the n cells of width 1 / scale from 0, that
    hold every value in [lo, hi]: floor(lo * scale) and floor(hi * scale)
    clipped to 0..n-1, since a value on the far edge lies in the last cell.
    last = first - 1 (no cell) when hi < 0."""
    first = np.clip(np.floor(lo * scale), 0, n - 1).astype(np.intp)
    last = np.clip(np.floor(hi * scale), -1, n - 1).astype(np.intp)
    return first, last


def transition_counts(batch: TransectBatch, k: int) -> TransitionCounts:
    """Tally directional adjacent-class pairs within each transect of
    ``batch``.

    Transects with fewer than two intersections contribute nothing; chains
    never continue across transects.
    """
    classes = batch.class_ids.astype(np.int64, copy=False)
    # a transect's last hit is no source: it does not lead into the next one
    source = np.ones(max(len(classes) - 1, 0), dtype=bool)
    ends = batch.offsets[1:-1]
    source[ends[(ends > 0) & (ends < len(classes))] - 1] = False
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


def class_weights(batch: TransectBatch, k: int, correct: bool = True) -> np.ndarray:
    """Per-class tally of the intersections of ``batch``, unnormalised.

    With ``correct`` each intersection weighs the inverse of its projected
    width, otherwise 1.  The weights are added in the order of the flat
    hit arrays, transect by transect, in one ``bincount``.
    """
    if not len(batch.widths):
        return np.zeros(k)  # bincount would give integer zeros
    if np.any(batch.widths <= 0):
        raise ValueError("all intercepted particles need positive width")
    weights = 1.0 / batch.widths if correct else np.ones(len(batch.widths))
    return np.bincount(batch.class_ids, weights=weights, minlength=k)


def size_corrected_frequencies(batch: TransectBatch, k: int, correct: bool = True) -> np.ndarray:
    """Per-class abundance from intercepted particles.

    With ``correct`` each intersection is weighted by the inverse of its
    projected width, the standard unbiasing for width-proportional hit
    rates; without it the raw intersection frequencies are returned (the
    difference measures the size bias).  All transects contribute,
    including single-hit ones.
    """
    weights = class_weights(batch, k, correct)
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
    (more negative) value (:func:`granvar.model.dependence_from_inclusion`).
    Entries with a zero or non-finite baseline are NaN (unestimable).
    Exactly symmetric by construction.
    """
    t = counts.total
    if t < 1:
        raise ValueError("need at least one transition")
    freq = np.asarray(freq, dtype=float)
    if freq.shape != (counts.k,):
        raise ValueError(f"freq must have length {counts.k}")
    return dependence_from_inclusion(freq, (counts.n + counts.n.T) / (2.0 * t))


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
    batch = cast_transects(field, spec.count, spec.orientation, spec.length, seed)
    return adjacency_dependence(batch, table.k)


def adjacency_dependence(
    batch: TransectBatch, k: int
) -> tuple[np.ndarray, TransitionCounts, np.ndarray]:
    """Adjacency dependence matrix of transects already cast.

    Returns (dependence matrix, transition counts, class frequencies).
    """
    counts = transition_counts(batch, k)
    freq = size_corrected_frequencies(batch, k)
    return c_from_adjacency(counts, freq), counts, freq
