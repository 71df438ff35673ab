"""Synthetic 2-D particle fields with controllable spatial dependence.

Three generators cover the qualitative regimes that drive dependent pair
selection: complete spatial randomness (independent selection), parent/
offspring clustering (co-occurring pairs, negative dependence values) and
hard-core repulsion (mutually exclusive pairs, positive dependence
values).  A vertically graded variant approximates density-driven
segregation through class-dependent intensity tilts; its quantitative
mapping to a dependence value is deliberately left uncalibrated.

Offspring falling outside the domain are wrapped toroidally so the
intensity stays uniform; transect and window statistics rely on this
stationarity.  Hard-core exclusion is toroidal too: distances are measured
across the domain's edges.  Its darts are drawn and resolved in chunks,
from the same random stream a one-dart-at-a-time loop consumes, and the
field equals that loop's.

One cell index, :class:`CellStrips`, serves windows, transects, darts and
gap checks; its query, :meth:`CellStrips.rectangles`, finds the particles
of wrapping rectangles, and :meth:`CellStrips.ring_and_interior` splits
them into a ring and interior cells that hold members only.  A field
builds it, column by column, the first time it is asked for and keeps it
(``SpatialField.column_strips``), on cells at least twice the largest
radius wide; a transect of any slope walks its columns, taking in each the
rows that the segment covers over it.  The dart thrower indexes the
particles accepted before each chunk, and then the chunk's survivors, in
fresh ones.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import SaturationError
from .model import ClassTable
from .util import derived_rng, wrap_periodic, write_csv_columns

VARIANTS = ("poisson", "matern_cluster", "hardcore", "graded")

#: Dart-throwing budget per requested particle before giving up.
HARDCORE_ATTEMPT_FACTOR = 100

#: Fewest darts drawn and resolved together.  A chunk also holds at least
#: a quarter of the particles placed, so rebuilding the index for it costs
#: O(1) per dart, and at least the darts still missing, up to one per two
#: cells of the index grid, which bounds the dart-dart pairs on coarse grids.
_DART_BLOCK = 64

#: Largest distance of a mixing's sum from 1 that ``rng.choice`` accepts.
_MIXING_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: A dart's state while its chunk is resolved.
_UNDECIDED, _ACCEPTED, _REJECTED = 0, 1, 2

#: Points queried against the cell index at once by the gap checker.
_QUERY_CHUNK = 4096

#: A rectangle query is widened by this fraction of the domain side on each
#: edge before its cells are looked up.  That is far above the rounding of a
#: test against its edges, such as a window's ``mod(x - anchor_x, W) <
#: width``, so the widened rectangle's cells hold every particle it accepts.
#: Likewise every particle of a cell inside the rectangle narrowed by it is
#: accepted.
_STRIP_MARGIN = 2.0**-30


def _too_close(x0, y0, r0, x1, y1, r1, gap: float, width: float, height: float) -> np.ndarray:
    """Hard-core exclusion: toroidal centre distance below r0 + r1 + gap.

    The one predicate of both the generator and
    ``SpatialField.gap_violations``; symmetric bit for bit (abs, min, hypot
    and r0 + r1 are), so the order of a pair does not matter.
    """
    dx = np.abs(x0 - x1)
    dx = np.minimum(dx, width - dx)
    dy = np.abs(y0 - y1)
    dy = np.minimum(dy, height - dy)
    return np.hypot(dx, dy) < r0 + r1 + gap


def grid_shape(width: float, height: float, reach: float, n: int) -> tuple[int, int]:
    """Cells per axis of a grid over ``n`` points whose cells are at least
    ``reach`` wide: ``max(1, floor(length / reach))`` per axis, capped at
    about sqrt(n), so reach 0 puts no lower bound on the cell size."""
    most = int(np.sqrt(n)) + 1
    # the relative margin keeps a cell at least reach wide after rounding
    side = reach * (1.0 + 1e-9)

    def cells(length: float) -> int:
        return max(1, int(min(length // side, most)) if side > 0 else most)

    return cells(width), cells(height)


def _cell(values: np.ndarray, scale: float, n: int) -> np.ndarray:
    """Cell of each value in [0, n / scale] on an axis of n cells of width
    1 / scale; a value on the far edge lies in the last cell."""
    return np.minimum((values * scale).astype(np.intp), n - 1)


class CellStrips:
    """Particles sorted by cell, strip by strip along one axis ``a``, over a
    ``length_a`` x ``length_b`` torus.

    Cell (i, j), strip i along ``a`` and row j along the other axis ``b``,
    is slot ``i * nb + j`` (see :func:`_cell`).  Its particles are
    ``order[offsets[slot]:offsets[slot + 1]]``, so rows j0..j1 of one strip
    are a single contiguous slice of ``order``.  ``order`` is the stable
    order of the slots, found by a least-significant-digit radix sort: one
    stable sort of the slots' 16-bit digits per digit, the low digit
    first.  A grid of at most 2**16 cells has one digit, so one sort.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, na: int, nb: int,
                 length_a: float, length_b: float):
        self.na, self.nb = na, nb
        self.length_a, self.length_b = length_a, length_b
        self.scale_a, self.scale_b = na / length_a, nb / length_b
        slot = _cell(a, self.scale_a, na) * nb + _cell(b, self.scale_b, nb)
        # argsort(slot, kind="stable"), least significant digit first;
        # numpy radix-sorts keys of 16 bits or fewer
        self.order = np.argsort(slot.astype(np.uint16), kind="stable")
        for shift in range(16, int(na * nb - 1).bit_length(), 16):
            digit = (slot >> shift).astype(np.uint16)
            self.order = self.order[np.argsort(digit[self.order], kind="stable")]
        self.offsets = np.zeros(na * nb + 1, dtype=np.intp)
        np.cumsum(np.bincount(slot, minlength=na * nb), out=self.offsets[1:])

    def rectangles(self, a0: np.ndarray, a_side: float, b0: np.ndarray,
                   b_side: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slices of ``order`` holding every particle of the wrapping
        rectangles [a0[q], a0[q] + a_side) x [b0[q], b0[q] + b_side), each
        widened by ``_STRIP_MARGIN`` of the domain side on every edge.

        Returns ``(query, begin, count)`` in query order, two slices per
        (query, strip) pair: its rows before the wrap and after it.  A query
        covers at most ``na`` strips and ``nb`` rows, so it holds no particle twice.
        """
        (strip_first, row_first), (n_strips, n_rows), _, _ = self._cover(
            a0, a_side, b0, b_side)
        query = np.repeat(np.arange(len(a0)), n_strips)
        strip = concat_ranges(strip_first, n_strips) % self.na
        begin, count = self._row_runs(strip, row_first[query], n_rows[query])
        return query.repeat(2), begin, count

    def ring_and_interior(self, a0: np.ndarray, a_side: float, b0: np.ndarray,
                          b_side: float) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The slices of :meth:`rectangles`, split into ``(ring, interior)``,
        each ``(query, begin, count)`` in query order.

        The interior cells of a rectangle are those whose whole extent lies
        in it after it is narrowed by ``_STRIP_MARGIN`` of the domain side
        on every edge: every particle they hold passes the half-open test
        ``mod(a - a0, length_a) < a_side`` and ``mod(b - b0, length_b) <
        b_side`` for an anchor in the domain.  The ring is the rest.  Each
        (query, strip) pair of the cover is three runs of rows: the ring
        rows before the interior, the interior rows and the ring rows after
        it.  A strip without interior rows, such as the first strip of a
        query, has all its rows in the first run.  The ring is the first
        and last runs of every pair, four slices per pair (each run before
        and after the wrap), so every query has ring slices; the interior
        is the middle run of each interior strip, two slices.
        """
        (strip_first, row_first), (n_strips, n_rows), (strip_skip, row_skip), inner = (
            self._cover(a0, a_side, b0, b_side))
        query = np.repeat(np.arange(len(a0)), n_strips)
        strip = concat_ranges(strip_first, n_strips)
        first, rows, skip, inner_strips, inner_rows, base = np.stack([
            row_first, n_rows, row_skip, *inner, strip_first + strip_skip]).take(query, axis=1)
        # interior cells need interior rows and a strip whose step past the
        # query's first interior strip lies in 0..inner strips - 1
        inside = ((strip - base).view(np.uintp) < inner_strips.view(np.uintp)) & (inner_rows > 0)
        np.subtract(strip, self.na, out=strip, where=strip >= self.na)
        # the rows of each pair's first two runs, and the row each run starts from
        before, middle = np.where(inside, skip, rows), inner_rows * inside
        start = np.stack([first, first + before, first + before + middle])
        np.subtract(start, self.nb, out=start, where=start >= self.nb)
        ring = self._row_runs(strip.repeat(2), start[::2].T.ravel(),
                              np.stack([before, rows - before - middle], axis=1).ravel())
        interior = self._row_runs(strip[inside], start[1, inside], middle[inside])
        return (query.repeat(4), *ring), (query[inside].repeat(2), *interior)

    def _cover(self, a0: np.ndarray, a_side: float, b0: np.ndarray,
               b_side: float) -> tuple[np.ndarray, ...]:
        """``(first, count, skip, inner)``, each of shape (2, queries), per
        axis (a, then b) and query: the first cell (in 0..n-1) and the number
        of cells, at most n, of the n cells (width 1 / scale, from 0,
        wrapping) that cover the side [anchor, anchor + side) widened by
        ``_STRIP_MARGIN`` of the domain side on each edge; the offset from
        that first cell (1 or 2) and the number of the cells whose whole
        extent lies in the side narrowed likewise, kept among the covered
        cells."""
        ma, mb = _STRIP_MARGIN * self.length_a, _STRIP_MARGIN * self.length_b
        sa, sb = self.scale_a, self.scale_b
        # the widened edges, then the narrowed ones, in cells; the low
        # narrowed edge negated, so that its floor is minus its ceiling
        offset = np.array([[[-ma], [-mb]], [[a_side + ma], [b_side + mb]],
                           [[ma], [mb]], [[a_side - ma], [b_side - mb]]])
        scale = np.array([[[sa], [sb]], [[sa], [sb]], [[-sa], [-sb]], [[sa], [sb]]])
        edge = np.stack([a0, b0]) + offset
        edge *= scale
        outer, high, low, stop = np.floor(edge, out=edge).astype(np.intp)
        n = np.array([[self.na], [self.nb]])
        count = np.minimum(high - outer + 1, n)
        skip = -low - outer
        return outer % n, count, skip, np.maximum(np.minimum(stop - outer, count) - skip, 0)

    def _row_runs(self, strip: np.ndarray, first: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slices of the ``rows[i]`` rows from row ``first[i]`` (in 0..nb-1,
        wrapping; at most nb) of each ``strip[i]``, two per run: its rows
        before the wrap and after it, interleaved run by run."""
        # rows first..cut - 1, then 0..end - cut - 1
        slot = strip * self.nb
        end = first + rows
        cut = np.minimum(end, self.nb)
        edge = np.empty((len(slot), 2), dtype=np.intp)
        np.add(slot, first, out=edge[:, 0])
        edge[:, 1] = slot
        begin = self.offsets[edge.ravel()]
        np.add(slot, cut, out=edge[:, 0])
        end -= cut
        np.add(slot, end, out=edge[:, 1])
        return begin, self.offsets[edge.ravel()] - begin

    def slices(self, strip: np.ndarray, first: np.ndarray,
               last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start in ``order`` and length of rows first..last of each strip;
        the length is 0 when last = first - 1."""
        slot = strip * self.nb
        begin = self.offsets[slot + first]
        return begin, self.offsets[slot + last + 1] - begin

    def take(self, begin: np.ndarray, count: np.ndarray) -> np.ndarray:
        """Particle indices of the slices ``(begin, count)``, concatenated."""
        return self.order[concat_ranges(begin, count)]


def concat_ranges(begin: np.ndarray, count: np.ndarray) -> np.ndarray:
    """arange(begin[i], begin[i] + count[i]), concatenated over i."""
    skip = np.repeat(begin - (np.cumsum(count) - count), count)
    return skip + np.arange(len(skip))


def _close_pairs(strips: CellStrips, x: np.ndarray, y: np.ndarray, radius: np.ndarray,
                 gap: float, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), first <= i < stop and j < i, that :func:`_too_close`
    flags, i ascending; ``strips`` indexes the points (x, y) along x.

    Each i queries the square [x_i - reach, x_i + reach] x [y_i - reach,
    y_i + reach] with reach = 2 max(radius) + gap, which in floating point
    is at least r_i + r_j + gap, so the square holds every j too close to i.
    """
    reach = 2.0 * float(radius.max()) + gap
    query, begin, count = strips.rectangles(
        x[first:stop] - reach, 2.0 * reach, y[first:stop] - reach, 2.0 * reach)
    j = strips.take(begin, count)
    i = first + np.repeat(query, count)
    earlier = j < i
    i, j = i[earlier], j[earlier]
    close = _too_close(x[i], y[i], radius[i], x[j], y[j], radius[j], gap,
                       strips.length_a, strips.length_b)
    return i[close], j[close]


@dataclass(frozen=True)
class ProcessParams:
    """Parameters of a field generator.

    ``mixing`` gives the per-class proportions.  ``intensity`` is the
    expected particle count per unit area for the poisson, hardcore and
    graded variants; the cluster variant derives its intensity as
    parent_intensity * offspring_mean.  ``class_correlation`` (cluster
    variant) is the probability that an offspring inherits its cluster's
    class instead of drawing independently: 0 gives independent labels,
    1 gives single-class clusters.  ``gradient`` (graded variant) tilts
    each class's vertical density linearly, entries in [-1, 1].
    """

    variant: str
    width: float
    height: float
    mixing: tuple[float, ...]
    intensity: float | None = None
    parent_intensity: float | None = None
    offspring_mean: float | None = None
    cluster_radius: float | None = None
    class_correlation: float = 0.0
    min_gap: float = 0.0
    gradient: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("domain dimensions must be > 0")
        mixing = np.asarray(self.mixing, dtype=float)
        if not np.all(np.isfinite(mixing)) or np.any(mixing < 0) or abs(mixing.sum() - 1.0) > 1e-9:
            raise ValueError(
                f"mixing proportions must be finite, >= 0 and sum to 1, got {self.mixing}")
        if self.variant in ("poisson", "hardcore", "graded"):
            if self.intensity is None or not self.intensity > 0:
                raise ValueError(f"{self.variant} variant needs intensity > 0")
        if self.variant == "matern_cluster":
            for name in ("parent_intensity", "offspring_mean", "cluster_radius"):
                val = getattr(self, name)
                if val is None or not val > 0:
                    raise ValueError(f"matern_cluster variant needs {name} > 0")
            if not (0.0 <= self.class_correlation <= 1.0):
                raise ValueError("class_correlation must be in [0, 1]")
        if self.variant == "hardcore" and self.min_gap < 0:
            raise ValueError("min_gap must be >= 0")
        if self.variant == "graded":
            if self.gradient is None or len(self.gradient) != len(self.mixing):
                raise ValueError("graded variant needs one gradient per class")
            if any(abs(g) > 1.0 for g in self.gradient):
                raise ValueError("gradients must lie in [-1, 1]")

    @property
    def area(self) -> float:
        return self.width * self.height

    def expected_count(self) -> float:
        if self.variant == "matern_cluster":
            return self.parent_intensity * self.offspring_mean * self.area
        return self.intensity * self.area


@dataclass(frozen=True)
class SpatialField:
    """Disk-shaped particles in a rectangular domain.

    Centres lie in [0, W] x [0, H]; centres and radii are finite, and radii
    are >= 0.  Sequences are taken as arrays: ``x``, ``y`` and ``radius``
    as float64, ``class_id`` as integers.  The cell index is built from
    the particle arrays on first use and kept, so the arrays must not change
    afterwards.
    """

    width: float
    height: float
    x: np.ndarray
    y: np.ndarray
    radius: np.ndarray
    class_id: np.ndarray
    process_tag: str = ""

    def __post_init__(self):
        for name in ("x", "y", "radius"):
            values = np.asarray(getattr(self, name))
            if values.dtype.kind not in "iuf":
                raise ValueError(f"particle {name} values must be numbers, not {values.dtype}")
            object.__setattr__(self, name, values.astype(np.float64, copy=False))
        class_id = np.asarray(self.class_id)
        if class_id.size == 0:  # np.asarray([]) is float64
            class_id = class_id.astype(np.int64)
        if class_id.dtype.kind not in "iu":
            raise ValueError(f"particle class_id values must be integers, not {class_id.dtype}")
        object.__setattr__(self, "class_id", class_id)
        n = len(self.x)
        for name in ("y", "radius", "class_id"):
            if len(getattr(self, name)) != n:
                raise ValueError("particle arrays must have equal length")
        for name in ("x", "y", "radius"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"particle {name} values must be finite")
        negative = np.flatnonzero(np.asarray(self.radius) < 0)
        if len(negative):
            i = int(negative[0])
            raise ValueError(
                f"particle radii must be >= 0; particle {i} has radius {float(self.radius[i])!r}")
        if n and (
            np.any(self.x < 0) or np.any(self.x > self.width)
            or np.any(self.y < 0) or np.any(self.y > self.height)
        ):
            raise ValueError("all particle centers must lie inside the domain")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def cell_grid(self) -> tuple[int, int]:
        """Cells per axis of the samplers' index: :func:`grid_shape` with
        cells at least twice the largest radius wide."""
        return grid_shape(self.width, self.height,
                          2.0 * float(self.radius.max(initial=0.0)), self.n)

    @cached_property
    def column_strips(self) -> CellStrips:
        """The particles sorted by cell, column by column (strips along x)."""
        nx, ny = self.cell_grid
        return CellStrips(self.x, self.y, nx, ny, self.width, self.height)

    def class_counts(self, k: int) -> np.ndarray:
        return np.bincount(self.class_id, minlength=k)

    def gap_violations(self, gap: float) -> int:
        """Pairs whose toroidal centre distance is below r_i + r_j + gap.

        Uses the hard-core generator's own predicate, so a hard-core field
        generated with ``min_gap = gap`` has none.  Candidates come from
        square queries on the cached column strips, ``_QUERY_CHUNK``
        particles at a time; a rectangle query is complete on any cell size.
        """
        if self.n < 2:
            return 0
        return sum(
            len(_close_pairs(self.column_strips, self.x, self.y, self.radius, gap,
                             lo, min(lo + _QUERY_CHUNK, self.n))[0])
            for lo in range(0, self.n, _QUERY_CHUNK))


def assign_classes(
    n: int,
    mixing: np.ndarray,
    rng: np.random.Generator,
    parent_of: np.ndarray | None = None,
    correlation: float = 0.0,
) -> np.ndarray:
    """Draw class labels for n particles.

    Independent mode (parent_of None or correlation 0): i.i.d. categorical
    draws from ``mixing``.  Cluster-correlated mode: each cluster draws a
    class from ``mixing`` and each member copies it with probability
    ``correlation``, otherwise draws independently; the marginal class
    distribution stays equal to ``mixing`` for every correlation level.

    For K > 1 classes the stream is ``rng.random(n)`` for the own labels,
    then, in correlated mode, ``rng.random(n_parents)`` for the clusters'
    labels and ``rng.random(n)`` for the inheritance coins; one class
    draws nothing.  A label is :func:`_classes_of` its uniform, which is
    what ``rng.choice(K, size, p=mixing)`` computes from the same
    ``random(size)`` call, so the labels equal that call's.  ``mixing`` is
    refused as ``rng.choice`` refuses it (see :func:`_mixing_cdf`).
    """
    cdf = _mixing_cdf(mixing)
    if len(cdf) == 1:
        return np.zeros(n, dtype=np.int64)
    own = _classes_of(rng.random(n), cdf)
    if parent_of is None or correlation == 0.0 or n == 0:
        return own
    n_parents = int(parent_of.max()) + 1 if len(parent_of) else 0
    cluster_class = _classes_of(rng.random(n_parents), cdf)
    inherit = rng.random(n) < correlation
    return np.where(inherit, cluster_class[parent_of], own)


def _mixing_cdf(mixing) -> np.ndarray:
    """The class cdf of ``mixing``, its running sum divided by its last
    entry, as ``rng.choice(K, p=mixing)`` makes it.

    Raises ``ValueError`` for what ``rng.choice`` refuses: a NaN sum, a
    negative entry, or a sum more than sqrt(float64 eps) from 1.
    """
    p = np.asarray(mixing, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN sum, refused below
        total = float(p.sum())
    if np.isnan(total):
        raise ValueError(f"mixing proportions contain NaN: {p.tolist()}")
    if (p < 0).any():
        raise ValueError(f"mixing proportions must be >= 0, got {p.tolist()}")
    if abs(total - 1.0) > _MIXING_ATOL:
        raise ValueError(f"mixing proportions must sum to 1, got {p.tolist()}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _classes_of(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The class of each uniform ``u``: how many of the K - 1 first entries
    of the class ``cdf`` are <= u, which is ``cdf.searchsorted(u,
    side="right")`` for u < 1 = cdf[-1], as int64.

    It makes K - 1 passes over ``u``, so its cost grows with n * K where
    ``searchsorted``'s grows with n * log K.  Against ``rng.choice`` on a
    2-core x86_64 host (``scripts/layer_times.py``) it wins at every n
    measured for K <= 5, and at K = 40 and 100 from 5,000 labels up, but
    at 500 labels it falls behind: 54 against 32 us at K = 40, 124 against
    38 us at K = 100.  The example scenarios and benchmark inputs all have
    K = 2.
    """
    c = np.zeros(len(u), dtype=np.min_scalar_type(len(cdf)))
    for t in cdf[:-1]:
        c += u >= t
    return c.astype(np.int64)


def _radii_for(classes: np.ndarray, table: ClassTable) -> np.ndarray:
    return table.radii[classes] if len(classes) else np.empty(0)


def _generate_poisson(p: ProcessParams, table: ClassTable, rng) -> SpatialField:
    n = rng.poisson(p.expected_count())
    x = rng.uniform(0.0, p.width, size=n)
    y = rng.uniform(0.0, p.height, size=n)
    classes = assign_classes(n, np.asarray(p.mixing), rng)
    return SpatialField(p.width, p.height, x, y, _radii_for(classes, table),
                        classes, process_tag="poisson")


def _generate_matern(p: ProcessParams, table: ClassTable, rng) -> SpatialField:
    n_parents = rng.poisson(p.parent_intensity * p.area)
    px = rng.uniform(0.0, p.width, size=n_parents)
    py = rng.uniform(0.0, p.height, size=n_parents)
    counts = rng.poisson(p.offspring_mean, size=n_parents)
    parent_of = np.repeat(np.arange(n_parents), counts)
    n = int(counts.sum())
    # uniform draw in the cluster disk
    rad = p.cluster_radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    x = wrap_periodic(px[parent_of] + rad * np.cos(theta), p.width)
    y = wrap_periodic(py[parent_of] + rad * np.sin(theta), p.height)
    classes = assign_classes(n, np.asarray(p.mixing), rng, parent_of, p.class_correlation)
    return SpatialField(p.width, p.height, x, y, _radii_for(classes, table),
                        classes, process_tag="matern_cluster")


def _generate_hardcore(p: ProcessParams, table: ClassTable, rng) -> SpatialField:
    """Random sequential adsorption with toroidal exclusion.

    Each dart lands uniformly, draws its class from ``mixing`` and is kept
    unless it lies closer than r_j + r + min_gap to an accepted particle
    j, distances measured across the domain's edges.  Darts are drawn in
    chunks of uniforms (x, y and, for K > 1, the class), the very stream a
    one-dart-at-a-time loop of ``uniform``/``uniform``/``choice`` consumes;
    uniforms past the dart that fills the target go unused, and the
    generator is discarded with them.  The particles accepted before a
    chunk are indexed in a fresh :class:`CellStrips`, which lists the darts
    too close to one of them; those are rejected.  A rejected dart blocks
    no other, so the survivors alone are indexed next, for the (dart,
    earlier dart) pairs that are too close, and resolved in rounds (greedy
    sequential independent sets, round form): reject each undecided dart
    with an accepted earlier neighbour, then accept each one with no
    undecided earlier neighbour.  A round decides at least the earliest
    undecided dart, as the one-at-a-time loop would, so the field equals
    that loop's.
    """
    target = int(rng.poisson(p.expected_count()))
    max_attempts = HARDCORE_ATTEMPT_FACTOR * max(target, 1)
    xs = np.empty(target)
    ys = np.empty(target)
    cls = np.empty(target, dtype=int)
    radii = np.empty(target)
    k = len(p.mixing)
    cdf = _mixing_cdf(p.mixing)
    gap, width, height = p.min_gap, p.width, p.height
    reach = 2.0 * float(table.radii.max()) + gap
    # cells at least reach / 2 wide: a dart's query square spans at most 5 a side
    nx, ny = grid_shape(width, height, reach / 2, target)
    placed = 0
    attempts = 0
    while placed < target:
        if attempts >= max_attempts:
            raise SaturationError(placed, target, attempts)
        chunk = min(max(_DART_BLOCK, placed // 4, min(target - placed, nx * ny // 2)),
                    max_attempts - attempts)
        u = rng.random((chunk, 3 if k > 1 else 2))
        c = _classes_of(u[:, 2], cdf) if k > 1 else np.zeros(chunk, dtype=np.int64)
        # the accepted particles, then the chunk's darts
        x = np.concatenate([xs[:placed], 0.0 + width * u[:, 0]])
        y = np.concatenate([ys[:placed], 0.0 + height * u[:, 1]])
        r = np.concatenate([radii[:placed], table.radii[c]])
        # the darts clear of every accepted particle, by index into x
        live = np.arange(placed, len(x))
        if placed:
            accepted = CellStrips(x[:placed], y[:placed], nx, ny, width, height)
            near, _ = _close_pairs(accepted, x, y, r, gap, placed, len(x))
            out = np.zeros(chunk, dtype=bool)
            out[near - placed] = True
            live = live[~out]
        # the survivors' states, resolved among the survivors alone
        i = j = np.empty(0, dtype=np.intp)
        if len(live) > 1:
            lx, ly, lr = x[live], y[live], r[live]
            i, j = _close_pairs(CellStrips(lx, ly, nx, ny, width, height), lx, ly, lr, gap,
                                0, len(live))
        state = np.full(len(live), _UNDECIDED, dtype=np.int8)
        while (state == _UNDECIDED).any():
            undecided = (state[i] == _UNDECIDED) & (state[j] != _REJECTED)
            i, j = i[undecided], j[undecided]
            state[i[state[j] == _ACCEPTED]] = _REJECTED
            blocked = np.zeros(len(live), dtype=bool)
            blocked[i[(state[i] == _UNDECIDED) & (state[j] == _UNDECIDED)]] = True
            state[(state == _UNDECIDED) & ~blocked] = _ACCEPTED
        new = live[state == _ACCEPTED][: target - placed]
        end = placed + len(new)
        xs[placed:end] = x[new]
        ys[placed:end] = y[new]
        cls[placed:end] = c[new - placed]
        radii[placed:end] = r[new]
        attempts += int(new[-1]) + 1 - placed if end == target else chunk
        placed = end
    return SpatialField(p.width, p.height, xs, ys, radii, cls, process_tag="hardcore")


def _generate_graded(p: ProcessParams, table: ClassTable, rng) -> SpatialField:
    n = rng.poisson(p.expected_count())
    classes = assign_classes(n, np.asarray(p.mixing), rng)
    x = rng.uniform(0.0, p.width, size=n)
    g = np.asarray(p.gradient)[classes] if n else np.empty(0)
    u = rng.random(n)
    # inverse CDF of f(t) = 1 + g (2t - 1) on [0, 1]
    flat = np.abs(g) < 1e-12
    safe_g = np.where(flat, 1.0, g)
    tilted = (-(1.0 - safe_g) + np.sqrt((1.0 - safe_g) ** 2 + 4.0 * safe_g * u)) / (2.0 * safe_g)
    t = np.where(flat, u, tilted)
    y = np.clip(t, 0.0, 1.0) * p.height
    return SpatialField(p.width, p.height, x, y, _radii_for(classes, table),
                        classes, process_tag="graded")


def generate_field(p: ProcessParams, table: ClassTable, seed: int) -> SpatialField:
    """Generate a field; deterministic for a given (params, seed).

    Multiple fields should derive their seeds from a master seed and a
    field index (see util.derived_rng) so concurrent generation is
    schedule-independent.
    """
    if len(p.mixing) != table.k:
        raise ValueError(f"mixing has {len(p.mixing)} entries for {table.k} classes")
    rng = derived_rng(int(seed))
    if p.variant == "poisson":
        return _generate_poisson(p, table, rng)
    if p.variant == "matern_cluster":
        return _generate_matern(p, table, rng)
    if p.variant == "hardcore":
        return _generate_hardcore(p, table, rng)
    return _generate_graded(p, table, rng)


def save_field_csv(field_: SpatialField, path: str | Path, comment: str | None = None) -> None:
    """Write particles as CSV (x,y,radius,class_id) plus a JSON sidecar
    holding the domain; the sidecar shares the CSV path with a .json suffix.

    When the class ids are integers in [0, n) and each class's radii are
    equal bit for bit, as in a generated field, ``radius,class_id`` is
    formatted once per class and written after each row's ``x,y``; every
    other field is formatted cell by cell.  The bytes are the same.
    """
    path = Path(path)
    head = f"# {comment}\n" if comment else ""
    with path.open("wb") as f:
        f.write(f"{head}x,y,radius,class_id\n".encode())
        radii = class_values(field_.radius, field_.class_id)
        if radii is None:
            write_csv_columns(f, [field_.x, field_.y, field_.radius, field_.class_id])
        else:
            write_csv_columns(f, [field_.x, field_.y],
                              ([radii, np.arange(len(radii))], field_.class_id))
    sidecar = {
        "width": field_.width,
        "height": field_.height,
        "process_tag": field_.process_tag,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def class_values(values: np.ndarray, class_id: np.ndarray) -> np.ndarray | None:
    """The value of each class k in 0..K-1, K = max(class_id) + 1, when the
    n class ids are integers in [0, n) and each class's float64 ``values``
    are equal bit for bit (a class holding both 0.0 and -0.0 is not); else
    None.  A class without entries gets 0.  With it a CSV writer formats a
    per-class column once per class (:func:`write_csv_columns`'s ``tail``).
    """
    n = len(class_id)
    if (not n or class_id.dtype.kind not in "iu" or values.dtype != np.float64
            or class_id.min() < 0 or class_id.max() >= n):
        return None
    bits = values.view(np.uint64)
    table = np.zeros(int(class_id.max()) + 1, np.uint64)
    table[class_id] = bits
    if not np.array_equal(table[class_id], bits):
        return None
    return table.view(np.float64)


#: One row of a field CSV, as :func:`load_field_csv`'s fast path reads it.
_FIELD_ROW = np.dtype([("x", np.float64), ("y", np.float64), ("radius", np.float64),
                       ("class_id", np.int64)])


def load_field_csv(path: str | Path) -> SpatialField:
    """Read a field written by save_field_csv (or produced externally,
    e.g. from segmented images) together with its domain sidecar.

    The body is parsed in one ``np.loadtxt`` call.  When that fails, as on
    a malformed row or a line of spaces, it is parsed again line by line,
    which gives the same arrays or a ``ValueError`` naming the bad line.
    """
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    with path.open("r", encoding="utf-8") as f:
        _field_body(f)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty body only warns
                rows = np.loadtxt(f, _FIELD_ROW, delimiter=",", comments=None, ndmin=1)
            columns = [np.ascontiguousarray(rows[name]) for name in _FIELD_ROW.names]
        except (ValueError, Warning):
            f.seek(0)
            columns = _parse_field_lines(path, _field_body(f))
    return SpatialField(
        float(sidecar["width"]),
        float(sidecar["height"]),
        *columns,
        process_tag=str(sidecar.get("process_tag", "")),
    )


def _field_body(f) -> Iterator[tuple[int, str]]:
    """The numbered lines of an open field CSV after its header, which this
    checks; comment lines may precede the header."""
    lines = enumerate(f, start=1)
    for _, header in lines:
        header = header.strip()
        if not header.startswith("#"):
            break
    else:
        header = ""
    if header != "x,y,radius,class_id":
        raise ValueError(f"unexpected field CSV header: {header!r}")
    return lines


def _parse_field_lines(path: Path, lines: Iterator[tuple[int, str]]) -> list[np.ndarray]:
    """x, y, radius and class_id from a field CSV's body, one line at a
    time; blank lines are skipped."""
    xs, ys, radii, classes = [], [], [], []
    for number, line in lines:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) != 4:
                raise ValueError(f"expected 4 values, got {len(cells)}")
            sx, sy, sr, sc = cells
            x, y, radius, class_id = float(sx), float(sy), float(sr), int(sc)
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
        xs.append(x)
        ys.append(y)
        radii.append(radius)
        classes.append(class_id)
    return [np.array(xs), np.array(ys), np.array(radii), np.array(classes, dtype=int)]
