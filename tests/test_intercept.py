from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from granvar import intercept
from granvar.errors import GranvarError
from granvar.experiments import calibrate_against_oracle
from granvar.fields import ProcessParams, SpatialField, generate_field, grid_shape
from granvar.intercept import (
    TransectBatch,
    TransectRecord,
    TransectSpec,
    TransitionCounts,
    adjacency_dependence_for_field,
    c_from_adjacency,
    cast_transects,
    class_weights,
    intersect_segments,
    markov_fit,
    size_corrected_frequencies,
    transition_counts,
)
from granvar.model import ClassTable
from granvar.util import derived_rng


def make_field(xs, ys, radii, classes, width=10.0, height=10.0):
    return SpatialField(
        width, height, np.array(xs, dtype=float), np.array(ys, dtype=float),
        np.array(radii, dtype=float), np.array(classes, dtype=int),
    )


def dense_record(field, start, angle, length):
    """Reference intersection: every particle tested against one segment."""
    ux, uy = np.cos(angle), np.sin(angle)
    dx = field.x - start[0]
    dy = field.y - start[1]
    along = dx * ux + dy * uy
    d2 = dx * dx + dy * dy
    disc = along * along - d2 + field.radius * field.radius
    hit = disc >= 0.0
    t1 = np.where(hit, along - np.sqrt(np.maximum(disc, 0.0)), np.nan)
    t2 = np.where(hit, along + np.sqrt(np.maximum(disc, 0.0)), np.nan)
    lo = np.maximum(t1, 0.0)
    hi = np.minimum(t2, length)
    ok = hit & (hi > lo)
    ids = np.nonzero(ok)[0]
    order = np.lexsort((ids, lo[ids]))
    ids = ids[order]
    return TransectRecord(
        start=(float(start[0]), float(start[1])),
        angle=angle,
        length=length,
        particle_ids=ids,
        class_ids=field.class_id[ids],
        chords=(hi - lo)[ids],
        widths=2.0 * field.radius[ids],
    )


def one_segment(field, start, angle, length):
    return intersect_segments(field, np.array([start], dtype=float), np.array([angle]), length)[0]


def batch_of(hit_classes, widths=None):
    """A batch of one transect per entry of ``hit_classes``, whose hits have
    those classes and the matching entries of ``widths`` (default 1)."""
    hits = [len(c) for c in hit_classes]
    offsets = np.zeros(len(hits) + 1, dtype=np.intp)
    np.cumsum(hits, out=offsets[1:])
    classes = np.array([c for cs in hit_classes for c in cs], dtype=int)
    flat_widths = np.ones(len(classes)) if widths is None else np.array(
        [w for ws in widths for w in ws], dtype=float)
    return TransectBatch(
        starts=np.zeros((len(hits), 2)), angles=np.zeros(len(hits)), length=1.0,
        offsets=offsets, particle_ids=np.arange(len(classes)), class_ids=classes,
        chords=np.ones(len(classes)), widths=flat_widths,
    )


def list_transition_counts(records, k):
    """Reference: transition counts of a record list, concatenating the
    chains of two or more hits."""
    chains = [rec.class_ids for rec in records if len(rec.class_ids) >= 2]
    if not chains:
        return TransitionCounts(np.zeros((k, k), dtype=np.int64))
    classes = np.concatenate(chains).astype(np.int64, copy=False)
    source = np.ones(len(classes) - 1, dtype=bool)
    source[np.cumsum([len(c) for c in chains[:-1]], dtype=np.intp) - 1] = False
    pairs = classes[:-1][source] * k + classes[1:][source]
    return TransitionCounts(np.bincount(pairs, minlength=k * k).reshape(k, k))


def list_class_weights(records, k, correct=True):
    """Reference: class weights of a record list, concatenating the records
    with hits."""
    hit = [rec for rec in records if rec.n]
    if not hit:
        return np.zeros(k)
    widths = np.concatenate([rec.widths for rec in hit])
    if np.any(widths <= 0):
        raise ValueError("all intercepted particles need positive width")
    weights = 1.0 / widths if correct else np.ones(len(widths))
    return np.bincount(np.concatenate([rec.class_ids for rec in hit]), weights=weights,
                       minlength=k)


def horizontal_record(field, y, length=10.0):
    """One transect along y from x=0, pointing right."""
    return one_segment(field, [0.0, y], 0.0, length)


PARTS = ("particle_ids", "class_ids", "chords", "widths")


def assert_same_bits(a, b, what):
    assert a.dtype == b.dtype, what
    assert a.tobytes() == b.tobytes(), (what, a, b)


def assert_same_records(got, want):
    """Bit-for-bit equality of a batch and a record list, dtypes included:
    record by record, and the batch's offsets and flat arrays against the
    records concatenated."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.start, g.angle, g.length) == (w.start, w.angle, w.length)
        for part in PARTS:
            assert_same_bits(getattr(g, part), getattr(w, part), part)
    hits = [rec.n for rec in want]
    assert got.offsets.tolist() == [0, *np.cumsum(hits, dtype=int).tolist()]
    np.testing.assert_array_equal(got.hits, hits)
    for part in PARTS:
        assert_same_bits(getattr(got, part), np.concatenate([getattr(w, part) for w in want]),
                         part)


class TestGeometry:
    def test_disk_on_line_chord_is_diameter(self):
        field = make_field([5.0], [5.0], [0.5], [0])
        rec = horizontal_record(field, 5.0)
        assert rec.n == 1
        assert rec.chords[0] == pytest.approx(1.0, rel=1e-12)
        assert rec.widths[0] == pytest.approx(1.0, rel=1e-12)

    def test_disk_beyond_radius_not_hit(self):
        field = make_field([5.0], [5.0], [0.5], [0])
        rec = horizontal_record(field, 5.6)
        assert rec.n == 0

    def test_offset_chord_length(self):
        # chord = 2 sqrt(r^2 - d^2) at perpendicular distance d
        field = make_field([5.0], [5.0], [0.5], [0])
        rec = horizontal_record(field, 5.3)
        assert rec.chords[0] == pytest.approx(2 * np.sqrt(0.25 - 0.09), rel=1e-12)

    def test_ordering_by_entry_point(self):
        field = make_field([3.0, 1.0], [5.0, 5.0], [0.2, 0.2], [0, 1])
        rec = horizontal_record(field, 5.0)
        assert rec.particle_ids.tolist() == [1, 0]
        assert rec.class_ids.tolist() == [1, 0]

    def test_segment_truncates_chord(self):
        field = make_field([9.9, 5.0], [5.0, 5.0], [0.5, 0.2], [0, 1])
        rec = horizontal_record(field, 5.0, length=10.0)
        chord_truncated = rec.chords[rec.particle_ids.tolist().index(0)]
        assert chord_truncated == pytest.approx(0.6, rel=1e-12)  # 10 - 9.4

    def test_angled_transect(self):
        field = make_field([5.0], [5.0], [0.5], [0])
        rec = one_segment(field, [4.0, 4.0], np.pi / 4, 5.0)
        assert rec.n == 1
        assert rec.chords[0] == pytest.approx(1.0, rel=1e-12)

    def test_cast_deterministic(self):
        field = make_field([1, 2, 3], [1, 2, 3], [0.3, 0.3, 0.3], [0, 1, 0])
        a = cast_transects(field, 10, "random", 4.0, seed=5)
        b = cast_transects(field, 10, "random", 4.0, seed=5)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.particle_ids, rb.particle_ids)
            np.testing.assert_array_equal(ra.chords, rb.chords)

    def test_empty_field_rejected(self):
        field = make_field([], [], [], [])
        with pytest.raises(ValueError):
            cast_transects(field, 5, "random", 1.0, seed=1)

    def test_batch_indexing(self):
        field = make_field([1, 2, 3], [1, 2, 3], [0.3, 0.3, 0.3], [0, 1, 0])
        batch = cast_transects(field, 10, "random", 4.0, seed=5)
        records = list(batch)
        assert len(batch) == len(records) == 10
        assert batch[-1].angle == records[-1].angle == float(batch.angles[9])
        assert batch[3].start == tuple(batch.starts[3].tolist())
        with pytest.raises(IndexError):
            batch[10]


class TestSegmentInputs:
    """``intersect_segments`` refuses malformed segments, naming the
    argument, rather than casting fewer or raising IndexError."""

    field = make_field([5.0], [5.0], [0.5], [0])

    @pytest.mark.parametrize("starts, angles, length, name", [
        ([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [0.5], 1.0, "angles"),
        ([[1.0, 1.0]], [0.5, 1.0], 1.0, "angles"),
        ([[1.0, 1.0]], [np.nan], 1.0, "angles"),
        ([[1.0, 1.0]], [0.5], -1.0, "length"),
        ([[1.0, 1.0]], [0.5], np.inf, "length"),
        ([[1.0, np.nan]], [0.5], 1.0, "starts"),
        ([1.0, 1.0], [0.5], 1.0, "starts"),
    ], ids=["three-starts-one-angle", "one-start-two-angles", "nan-angle", "negative-length",
            "infinite-length", "nan-start", "flat-starts"])
    def test_malformed_input_names_its_argument(self, starts, angles, length, name):
        with pytest.raises(ValueError, match=name):
            intersect_segments(self.field, np.array(starts), np.array(angles), length)


#: Axis-aligned angles, where one direction component is 0 or about 1e-16,
#: and the diagonal, where |cos| and |sin| tie.
AXIS_ANGLES = (0.0, np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2)


@dataclass(frozen=True)
class FixedGridField(SpatialField):
    """A field whose cell index has ``grid`` cells per axis, whatever its
    radii, so casting can be checked on cells of any size."""

    grid: tuple[int, int] = (1, 1)

    @property
    def cell_grid(self) -> tuple[int, int]:
        return self.grid


class TestStripIndex:
    """``intersect_segments`` walks a cell index; the dense loop above tests
    every particle.  Their records must agree bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        domain=st.sampled_from([(1.0, 1.0), (2.5, 0.7)]),
        n=st.integers(0, 400),
        rmax=st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.3]),
        grid=st.sampled_from(["rule", "half", "fine"]),
        negative=st.booleans(),
        on_edges=st.sampled_from([0.0, 0.5, 1.0]),
        length=st.sampled_from([0.01, 0.2, 1.0, 2.5, 4.0]),
    )
    def test_matches_dense_loop(self, seed, domain, n, rmax, grid, negative, on_edges, length):
        """Grids: the field's own (cells at least 2 r_max wide), cells
        exactly 2 r_max wide along x, where the largest radius is exactly
        r_max, and cells about r_max / 2 wide.  Centres and starts are
        snapped onto cell edges, so axis-parallel segments lie on them, and
        starts onto the domain's edges."""
        width, height = domain
        rng = np.random.default_rng(seed)
        if grid == "half" and rmax > 0:
            nx = max(1, round(width / (2.0 * rmax)))
            rmax = width / nx / 2.0
            shape = (nx, max(1, round(height / (2.0 * rmax))))
        elif grid == "fine" and rmax > 0:
            shape = tuple(min(256, max(1, round(side / (0.5 * rmax)))) for side in domain)
        else:
            shape = grid_shape(width, height, 2.0 * rmax, n)
        nx, ny = shape
        x = rng.uniform(0.0, width, n)
        y = rng.uniform(0.0, height, n)
        # snap a share of the centres onto cell edges of the grid the cast uses
        snap = rng.random(n) < on_edges
        x[snap] = np.minimum(np.round(x[snap] * nx / width) * (width / nx), width)
        y[snap] = np.minimum(np.round(y[snap] * ny / height) * (height / ny), height)
        radius = rng.uniform(0.0, rmax, n)
        if n:
            radius[0] = rmax
        if negative:
            radius[rng.random(n) < 0.5] *= -1.0
        classes = rng.integers(0, 3, n)
        if np.any(radius < 0):
            # negative radii are refused; flipped back (-0.0 stays), the field is cast
            with pytest.raises(ValueError, match="particle radii must be >= 0"):
                FixedGridField(width, height, x, y, radius, classes, grid=shape)
            radius[radius < 0] *= -1.0
        field = FixedGridField(width, height, x, y, radius, classes, grid=shape)
        assert field.column_strips.na == nx and field.column_strips.nb == ny

        count = 150  # more than one block of transects
        starts = np.column_stack(
            [rng.uniform(0.0, width, count), rng.uniform(0.0, height, count)]
        )
        snap = rng.random(count) < on_edges
        starts[snap, 0] = np.round(starts[snap, 0] * nx / width) * (width / nx)
        starts[snap, 1] = np.round(starts[snap, 1] * ny / height) * (height / ny)
        edge = rng.integers(0, 3, size=(count, 2))
        for axis, side in enumerate((width, height)):
            starts[edge[:, axis] == 1, axis] = 0.0
            starts[edge[:, axis] == 2, axis] = np.nextafter(side, 0.0)
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        fixed = rng.random(count) < 0.3
        angles[fixed] = rng.choice(AXIS_ANGLES, int(fixed.sum()))

        got = intersect_segments(field, starts, angles, length)
        want = [dense_record(field, starts[t], float(angles[t]), length) for t in range(count)]
        assert_same_records(got, want)
        np.testing.assert_array_equal(got.starts, starts)
        np.testing.assert_array_equal(got.angles, angles)

    @pytest.mark.parametrize("theta, axis", [(0.1, 0), (np.pi / 2 - 0.1, 1)],
                             ids=["shallow-column-edge", "steep-row-edge"])
    def test_rounding_hits_past_a_cell_edge(self, theta, axis):
        """The chord test accepts radius-0 particles on the line up to about
        1e-8 beyond the segment's end.  Here the end lies 5e-9 before a cell
        edge at 0.75, a column edge for the shallow segment and a row edge
        for the steep one, and some of those particles lie past it, in cells
        that the segment's r_max band (r_max = 0) reaches only through its
        margin; a margin of 2^-30 of the lengths would miss them."""
        length = 0.7
        direction = np.array([np.cos(theta), np.sin(theta)])
        start = np.full(2, 0.2)
        start[axis] = 0.75 - length * direction[axis] - 5e-9
        beyond = length + np.linspace(1e-10, 2.5e-8, 80)
        x, y = start[:, None] + beyond * direction[:, None]
        field = FixedGridField(1.0, 1.0, x, y, np.zeros(80), np.zeros(80, dtype=int),
                               grid=(4, 4))
        want = dense_record(field, start, theta, length)
        assert ((x, y)[axis][want.particle_ids] >= 0.75).any()
        assert_same_records(intersect_segments(field, start[None], np.array([theta]), length),
                            [want])

    def test_cast_matches_dense_loop_on_generated_fields(self):
        table = ClassTable.from_arrays([1, 1], [1, 0], [0.002, 0.004])
        processes = [
            ProcessParams(variant="hardcore", width=1, height=1, mixing=(0.5, 0.5),
                          intensity=3000.0, min_gap=0.002),
            ProcessParams(variant="matern_cluster", width=2.5, height=0.7, mixing=(0.5, 0.5),
                          parent_intensity=100.0, offspring_mean=10.0, cluster_radius=0.02),
        ]
        for seed, params in enumerate(processes):
            field = generate_field(params, table, seed)
            records = cast_transects(field, 200, "random", 1.0, seed)
            want = [dense_record(field, np.array(rec.start), rec.angle, 1.0) for rec in records]
            assert_same_records(records, want)
            assert sum(rec.n for rec in records) > 0

    def test_near_vertical_segment_keeps_far_hits(self):
        """cos(pi/2) is 6e-17, and 1.5 + 6e-17 rounds to 1.5, so only the
        columns of the segment's r_max band are walked.  Each column's rows
        are read where the segment crosses the column's widened edges, at
        distances that clip to 0 and the full length, so they span the whole
        segment."""
        xs = np.full(9, 1.5)
        ys = np.linspace(0.05, 0.95, 9)
        field = make_field(xs, ys, [0.01] * 9, [0] * 9, width=2.5, height=1.0)
        rec = one_segment(field, [1.5, 0.0], np.pi / 2, 1.0)
        assert rec.particle_ids.tolist() == list(range(9))

    def test_entry_ties_ordered_by_particle_id(self):
        """Both disks cover the start, so both enter at 0.  On the 5 x 5 grid
        particle 0 sits one column after particle 1 and must still come
        first."""
        filler = 14  # 16 particles allow 5 cells per axis
        field = make_field([0.65, 0.55] + [0.05] * filler, [0.5, 0.5] + [0.9] * filler,
                           [0.09, 0.09] + [0.01] * filler, [0, 1] + [0] * filler,
                           width=1.0, height=1.0)
        assert grid_shape(1.0, 1.0, 0.18, field.n) == (5, 5)
        rec = one_segment(field, [0.6, 0.5], 0.0, 0.2)
        assert rec.particle_ids.tolist() == [0, 1]
        np.testing.assert_allclose(rec.chords, [0.14, 0.04], rtol=1e-12)

    def test_empty_field_gives_empty_records(self):
        field = make_field([], [], [], [])
        records = intersect_segments(field, np.array([[1.0, 2.0]]), np.array([0.5]), 3.0)
        assert [rec.n for rec in records] == [0]


class TestHitOrder:
    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 600),
           n=st.sampled_from([1, 7, 6000, 65535, 65536, 65537, 200_000]),
           transects=st.sampled_from([1, 3, 256]))
    def test_matches_lexsort(self, seed, m, n, transects):
        """The chained stable sorts equal ``np.lexsort((p, lo, t))``, with
        exact ties in ``lo`` (0.0, -0.0 and repeated values), repeated
        particle ids and, for n > 2**16, 32-bit ids above 65,535."""
        rng = np.random.default_rng(seed)
        t = rng.integers(0, transects, m)
        lo = np.where(rng.random(m) < 0.5, rng.choice([0.0, -0.0, 0.25, 1e-300], m),
                      rng.random(m))
        p = rng.integers(max(n - 70_000, 0), n, m)
        got = intercept._hit_order(t, lo, p, n)
        np.testing.assert_array_equal(got, np.lexsort((p, lo, t)))
        assert got.dtype == np.intp


class TestTransitionCounts:
    def test_alternating(self):
        counts = transition_counts(batch_of([[0, 1, 0]]), k=2)
        assert counts.n[0, 1] == 1
        assert counts.n[1, 0] == 1
        assert counts.total == 2

    def test_short_records_contribute_nothing(self):
        counts = transition_counts(batch_of([[0], []]), k=2)
        assert counts.total == 0

    def test_tally(self):
        counts = transition_counts(batch_of([[0, 0], [0, 0], [1, 0]]), k=2)
        assert counts.n[0, 0] == 2
        assert counts.n[1, 0] == 1
        assert counts.total == 3

    def test_no_cross_record_transitions(self):
        counts = transition_counts(batch_of([[0, 0], [1, 1]]), k=2)
        assert counts.n[0, 1] == 0
        assert counts.n[1, 0] == 0


class TestBatchReductions:
    """Transition counts and class weights of a batch equal those of its
    records, concatenated record by record, bit for bit."""

    @staticmethod
    def assert_reductions_match(batch, k):
        records = list(batch)
        assert_same_bits(transition_counts(batch, k).n, list_transition_counts(records, k).n,
                         "transition counts")
        for correct in (True, False):
            assert_same_bits(class_weights(batch, k, correct),
                             list_class_weights(records, k, correct), "class weights")

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 3), st.floats(1e-6, 10.0)),
                             max_size=5), max_size=12))
    def test_matches_record_lists(self, transects):
        batch = batch_of([[c for c, _ in hits] for hits in transects],
                         [[w for _, w in hits] for hits in transects])
        self.assert_reductions_match(batch, 4)

    @pytest.mark.parametrize("hit_classes", [
        [], [[]], [[], [], []], [[2]], [[], [1], []], [[0], [1], [0]],
        [[], [0, 1], [], [1, 1, 0], []],
    ], ids=["no-transects", "one-empty", "all-empty", "single-hit", "single-hit-between-empty",
            "single-hits", "empty-between-chains"])
    def test_edge_batches(self, hit_classes):
        self.assert_reductions_match(batch_of(hit_classes), 3)

    def test_cast_batches(self):
        table = ClassTable.from_arrays([1, 1, 1], [1, 0, 0], [0.002, 0.004, 0.003])
        params = ProcessParams(variant="matern_cluster", width=1, height=1,
                               mixing=(0.4, 0.3, 0.3), parent_intensity=100.0,
                               offspring_mean=10.0, cluster_radius=0.02)
        for seed in range(3):
            batch = cast_transects(generate_field(params, table, seed), 300, "random", 0.5, seed)
            assert 0 in batch.hits and batch.hits.max() >= 2
            self.assert_reductions_match(batch, 3)


class TestMarkovFit:
    def test_alternating_chain(self):
        fit = markov_fit(TransitionCounts(np.array([[0, 2], [2, 0]])))
        np.testing.assert_allclose(fit.transition, [[0, 1], [1, 0]])
        assert fit.irreducible
        np.testing.assert_allclose(fit.stationary, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(
            fit.stationary @ fit.transition, fit.stationary, atol=1e-10
        )

    def test_reducible_reported(self):
        fit = markov_fit(TransitionCounts(np.array([[4, 0], [0, 4]])))
        assert not fit.irreducible
        assert np.isnan(fit.stationary).all()

    def test_uniform_chain(self):
        fit = markov_fit(TransitionCounts(np.array([[1, 1], [1, 1]])))
        np.testing.assert_allclose(fit.transition, 0.5)
        np.testing.assert_allclose(fit.stationary, [0.5, 0.5], atol=1e-12)

    def test_zero_row_excluded(self):
        fit = markov_fit(TransitionCounts(np.array([[2, 0], [0, 0]])))
        assert fit.known.tolist() == [True, False]
        assert np.isnan(fit.transition[1]).all()

    def test_sticky_chain_solved_exactly(self):
        """A chain that rarely changes class: 2e5 power iterations stopped at
        0.7454 here, far from the answer."""
        fit = markov_fit(TransitionCounts(np.array([[100000, 1], [3, 100000]])))
        p01, p10 = 1 / 100001, 3 / 100003
        want = [p10 / (p01 + p10), p01 / (p01 + p10)]
        np.testing.assert_allclose(fit.stationary, want, rtol=1e-12)

    def test_residual_above_bound_raises(self, monkeypatch):
        import granvar.intercept as intercept

        monkeypatch.setattr(intercept, "STATIONARY_RESIDUAL", -1.0)
        with pytest.raises(GranvarError, match="residual"):
            markov_fit(TransitionCounts(np.array([[1, 2], [3, 1]])))

    def test_random_chains_stationary_property(self):
        rng = derived_rng(123)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            counts = rng.integers(1, 30, size=(k, k))
            fit = markov_fit(TransitionCounts(counts))
            rows = fit.transition[fit.known]
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            if fit.irreducible:
                np.testing.assert_allclose(
                    fit.stationary @ fit.transition, fit.stationary, atol=1e-10
                )
                assert fit.stationary.sum() == pytest.approx(1.0, abs=1e-10)


    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0, 0, 1, 3]), min_size=k, max_size=k), min_size=k, max_size=k
    )))
    def test_irreducible_matches_strong_components(self, counts):
        counts = np.array(counts)
        fit = markov_fit(TransitionCounts(counts))
        idx = np.flatnonzero(counts.sum(axis=1) > 0)
        sub = counts[np.ix_(idx, idx)]
        expected = (
            len(idx) > 0 and bool(np.all(sub.sum(axis=1) > 0))
            and connected_components(sub > 0, directed=True, connection="strong")[0] == 1
        )
        assert fit.irreducible == expected


class TestSizeCorrection:
    def make_records(self, field, n=50, seed=3):
        return cast_transects(field, n, "random", 8.0, seed=seed)

    def test_equal_radii_matches_raw(self):
        table = ClassTable.from_arrays([1, 1], [1, 0], [0.05, 0.05])
        field = generate_field(
            ProcessParams(variant="poisson", width=10, height=10,
                          mixing=(0.5, 0.5), intensity=5.0),
            table, seed=7,
        )
        records = self.make_records(field)
        raw = size_corrected_frequencies(records, 2, correct=False)
        corrected = size_corrected_frequencies(records, 2, correct=True)
        np.testing.assert_allclose(raw, corrected, rtol=1e-12)

    def test_single_class(self):
        table = ClassTable.from_arrays([1], [1], [0.05])
        field = generate_field(
            ProcessParams(variant="poisson", width=10, height=10,
                          mixing=(1.0,), intensity=3.0),
            table, seed=8,
        )
        freq = size_corrected_frequencies(self.make_records(field), 1)
        assert freq.tolist() == [1.0]

    def test_zero_width_rejected(self):
        # radius zero disks are never hit, so build the batch by hand
        with pytest.raises(ValueError):
            size_corrected_frequencies(batch_of([[0]], [[0.0]]), 1)

    def test_intersections_proportional_to_width(self):
        """The size-bias law itself: hit counts scale with number density
        times projected width (moderate-size check; the acceptance suite
        runs the reference configuration)."""
        from granvar.experiments import size_bias_experiment

        res = size_bias_experiment(n_seeds=60, master_seed=17)
        lo, hi = res.raw_ci
        assert lo <= 2.0 <= hi
        lo, hi = res.corrected_ci
        assert lo <= 1.0 <= hi


class TestAdjacencyDependence:
    def test_single_class_is_zero(self):
        counts = TransitionCounts(np.array([[25]]))
        c = c_from_adjacency(counts, np.array([1.0]))
        assert c[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        counts = TransitionCounts(np.array([[3, 7], [2, 9]]))
        c = c_from_adjacency(counts, np.array([0.4, 0.6]))
        np.testing.assert_array_equal(c, c.T)

    def test_more_adjacency_lowers_value(self):
        freq = np.array([0.5, 0.5])
        low = c_from_adjacency(TransitionCounts(np.array([[8, 2], [2, 8]])), freq)
        high = c_from_adjacency(TransitionCounts(np.array([[2, 8], [8, 2]])), freq)
        assert high[0, 1] < low[0, 1]

    def test_zero_baseline_unestimable(self):
        counts = TransitionCounts(np.array([[4, 0], [0, 0]]))
        c = c_from_adjacency(counts, np.array([1.0, 0.0]))
        assert np.isnan(c[0, 1])
        assert np.isnan(c[1, 1])

    def test_needs_transitions(self):
        with pytest.raises(ValueError):
            c_from_adjacency(TransitionCounts(np.zeros((2, 2), dtype=int)), np.array([0.5, 0.5]))

    def test_independent_labels_near_zero(self):
        """Poisson fields with independent labels: adjacency dependence
        centered on zero across seeds."""
        table = ClassTable.from_arrays([1, 1], [1, 0], [0.01, 0.01])
        params = ProcessParams(
            variant="poisson", width=1, height=1, mixing=(0.5, 0.5), intensity=600.0
        )
        spec = TransectSpec(count=25, length=1.0)
        vals = []
        for s in range(40):
            field = generate_field(params, table, seed=4000 + s)
            c, _, _ = adjacency_dependence_for_field(field, table, spec, seed=s)
            vals.append(c[0, 1])
        vals = np.array(vals)
        z = np.nanmean(vals) / (np.nanstd(vals, ddof=1) / np.sqrt(len(vals)))
        assert abs(z) < 4.0

    def test_co_clustered_pairs_negative(self):
        """Single-class clusters produce long same-class runs, pushing the
        same-class adjacency dependence negative."""
        table = ClassTable.from_arrays([1, 1], [1, 0], [0.01, 0.01])
        params = ProcessParams(
            variant="matern_cluster", width=1, height=1, mixing=(0.5, 0.5),
            parent_intensity=40.0, offspring_mean=12.0, cluster_radius=0.03,
            class_correlation=1.0,
        )
        spec = TransectSpec(count=25, length=1.0)
        vals = []
        for s in range(25):
            field = generate_field(params, table, seed=5000 + s)
            c, _, _ = adjacency_dependence_for_field(field, table, spec, seed=s)
            vals.append(c[0, 0])
        vals = np.array(vals)
        z = np.nanmean(vals) / (np.nanstd(vals, ddof=1) / np.sqrt(len(vals)))
        assert z < -3.0


class TestCalibration:
    def test_null_regime_flagged(self):
        table = ClassTable.from_arrays([1, 1], [1, 0], [0.01, 0.01])
        processes = [
            ("poisson", ProcessParams(variant="poisson", width=1, height=1,
                                      mixing=(0.5, 0.5), intensity=500.0)),
        ]
        report = calibrate_against_oracle(
            processes, table, window=(0.1, 0.1),
            transects=TransectSpec(count=20, length=1.0),
            master_seed=9, n_seeds=6,
        )
        assert report.null_regime
        assert len(report.notes) == 2

    def test_cluster_sweep_monotone(self):
        from granvar.experiments import monotonicity_sweep

        res = monotonicity_sweep(
            cluster_radii=(0.10, 0.06, 0.03), n_seeds=10, master_seed=11
        )
        assert res.spearman > 0.8
        # tighter clusters push both estimates further negative
        assert res.oracle_series[0] > res.oracle_series[-1]
        assert res.adjacency_series[0] > res.adjacency_series[-1]

    def test_hardcore_gap_sweep_raises_same_class_dependence(self):
        """Wider exclusion gaps push both same-class dependence values up
        (window oracle; labels are independent, so adjacency is blind here)."""
        from granvar.experiments import binary_table, hardcore_params, window_ensemble

        means_00, means_11 = [], []
        for gap in (0.005, 0.03, 0.06):
            ens = window_ensemble(
                hardcore_params(intensity=80.0, min_gap=gap), binary_table(),
                window=(0.1, 0.1), replicates=200, n_seeds=20, master_seed=14,
            )
            means_00.append(np.nanmean(ens.cell_values(0, 0)))
            means_11.append(np.nanmean(ens.cell_values(1, 1)))
        assert means_00[0] < means_00[1] < means_00[2]
        assert means_11[0] < means_11[1] < means_11[2]

    def test_adjacency_rate_monotone_in_tightness(self):
        """Same-class adjacency rates grow as clusters tighten (5-point
        sweep, 200 seeds per point)."""
        from scipy import stats as sstats

        table = ClassTable.from_arrays([1, 1], [1, 0], [0.01, 0.01])
        radii = (0.12, 0.09, 0.06, 0.04, 0.025)
        spec = TransectSpec(count=25, length=1.0)
        rates = []
        for r in radii:
            params = ProcessParams(
                variant="matern_cluster", width=1, height=1, mixing=(0.5, 0.5),
                parent_intensity=40.0, offspring_mean=12.0, cluster_radius=r,
                class_correlation=1.0,
            )
            per_seed = []
            for s in range(200):
                field = generate_field(params, table, seed=7000 + s)
                _, counts, _ = adjacency_dependence_for_field(field, table, spec, seed=s)
                if counts.total:
                    per_seed.append((counts.n[0, 0] + counts.n[1, 1]) / counts.total)
            rates.append(np.mean(per_seed))
        assert all(b > a for a, b in zip(rates, rates[1:]))
        tightness = [1.0 / r for r in radii]
        rho = sstats.spearmanr(tightness, rates).statistic
        assert rho > 0.8
