import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from granvar import fields
from granvar.errors import SaturationError
from granvar.fields import (
    CellStrips,
    ProcessParams,
    SpatialField,
    assign_classes,
    generate_field,
    load_field_csv,
    save_field_csv,
)
from granvar.model import ClassTable
from granvar.util import derived_rng, write_csv_columns


def poisson_params(intensity=500.0, mixing=(0.5, 0.5)):
    return ProcessParams(
        variant="poisson", width=1.0, height=1.0, mixing=mixing, intensity=intensity
    )


def cluster_params(**kw):
    defaults = dict(
        variant="matern_cluster", width=1.0, height=1.0, mixing=(0.5, 0.5),
        parent_intensity=30.0, offspring_mean=10.0, cluster_radius=0.05,
    )
    defaults.update(kw)
    return ProcessParams(**defaults)


@pytest.fixture
def table():
    return ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0], [0.02, 0.02])


class TestProcessParams:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ProcessParams(variant="gaussian", width=1, height=1, mixing=(1.0,), intensity=5)

    def test_mixing_must_sum_to_one(self):
        with pytest.raises(ValueError):
            poisson_params(mixing=(0.5, 0.6))

    def test_cluster_needs_all_rates(self):
        with pytest.raises(ValueError):
            ProcessParams(
                variant="matern_cluster", width=1, height=1, mixing=(1.0,),
                parent_intensity=10.0, offspring_mean=None, cluster_radius=0.1,
            )

    def test_graded_needs_gradient_per_class(self):
        with pytest.raises(ValueError):
            ProcessParams(
                variant="graded", width=1, height=1, mixing=(0.5, 0.5),
                intensity=10.0, gradient=(0.5,),
            )

    def test_expected_count(self):
        assert cluster_params().expected_count() == pytest.approx(300.0)

    @pytest.mark.parametrize("mixing", [(np.nan, 1.0), (0.5, np.nan), (np.inf, 1.0),
                                        (1.0, -np.inf), (np.inf, -np.inf)])
    def test_mixing_must_be_finite(self, mixing):
        with pytest.raises(ValueError, match="finite"):
            poisson_params(mixing=mixing)


class TestDeterminism:
    @pytest.mark.parametrize("maker", [poisson_params, cluster_params])
    def test_same_seed_same_field(self, maker, table):
        a = generate_field(maker(), table, seed=77)
        b = generate_field(maker(), table, seed=77)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.class_id, b.class_id)

    def test_different_seed_differs(self, table):
        a = generate_field(poisson_params(), table, seed=1)
        b = generate_field(poisson_params(), table, seed=2)
        assert a.n != b.n or not np.array_equal(a.x, b.x)


class TestPoisson:
    def test_count_oracle(self, table):
        """Mean count over 200 seeds consistent with the target intensity
        (two-sided z at the 1% level)."""
        counts = [generate_field(poisson_params(), table, seed=s).n for s in range(200)]
        z = (np.mean(counts) - 500.0) / np.sqrt(500.0 / 200)
        assert abs(z) < sstats.norm.ppf(0.995)

    def test_centers_inside_domain(self, table):
        f = generate_field(poisson_params(), table, seed=3)
        assert f.x.min() >= 0 and f.x.max() <= 1
        assert f.y.min() >= 0 and f.y.max() <= 1

    def test_uniformity_chi_square(self, table):
        """A 4x4 cell count test at the 1% level should pass for >= 95% of
        seeds."""
        passes = 0
        for s in range(100):
            f = generate_field(poisson_params(), table, seed=s)
            cells = (
                np.minimum((f.x * 4).astype(int), 3) * 4
                + np.minimum((f.y * 4).astype(int), 3)
            )
            observed = np.bincount(cells, minlength=16)
            _, p = sstats.chisquare(observed)
            passes += p > 0.01
        assert passes >= 95


def scalar_hardcore(p, table, seed):
    """Reference dart loop: one dart at a time, uniform/uniform/choice, each
    tested against every accepted particle with the toroidal predicate."""
    rng = derived_rng(seed)
    target = int(rng.poisson(p.expected_count()))
    max_attempts = 100 * max(target, 1)
    xs, ys, radii = np.empty(target), np.empty(target), np.empty(target)
    cls = np.empty(target, dtype=int)
    mixing = np.asarray(p.mixing)
    placed = attempts = 0
    while placed < target:
        if attempts >= max_attempts:
            raise SaturationError(placed, target, attempts)
        attempts += 1
        cx = rng.uniform(0.0, p.width)
        cy = rng.uniform(0.0, p.height)
        c = int(rng.choice(len(mixing), p=mixing)) if len(mixing) > 1 else 0
        r = table.radii[c]
        dx = np.abs(xs[:placed] - cx)
        dy = np.abs(ys[:placed] - cy)
        dx = np.minimum(dx, p.width - dx)
        dy = np.minimum(dy, p.height - dy)
        if np.any(np.hypot(dx, dy) < radii[:placed] + r + p.min_gap):
            continue
        xs[placed], ys[placed], cls[placed], radii[placed] = cx, cy, c, r
        placed += 1
    return xs, ys, radii, cls


def dense_gap_violations(field_, gap):
    """All-pairs toroidal count of pairs closer than r_i + r_j + gap."""
    i, j = np.triu_indices(field_.n, k=1)
    dx = np.abs(field_.x[i] - field_.x[j])
    dy = np.abs(field_.y[i] - field_.y[j])
    dx = np.minimum(dx, field_.width - dx)
    dy = np.minimum(dy, field_.height - dy)
    return int(np.count_nonzero(np.hypot(dx, dy) < field_.radius[i] + field_.radius[j] + gap))


def hardcore_case(k, domain, radii, gap, intensity, weights=None):
    width, height = domain
    weights = np.ones(k) if weights is None else np.asarray(weights)
    params = ProcessParams(
        variant="hardcore", width=width, height=height,
        mixing=tuple((weights / weights.sum()).tolist()),
        intensity=intensity / (width * height), min_gap=gap,
    )
    return params, ClassTable.from_arrays([1.0] * k, [0.5] * k, radii)


@st.composite
def hardcore_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    domain = draw(st.sampled_from([(1.0, 1.0), (2.5, 0.7)]))
    radius = st.one_of(st.just(0.0), st.floats(0.0, 0.04), st.floats(0.1, 0.2))
    radii = draw(st.lists(radius, min_size=k, max_size=k))
    gap = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1)))
    # expected particle count over the whole domain
    intensity = draw(st.floats(1.0, 150.0))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    case = hardcore_case(k, domain, radii, gap, intensity, weights)
    return case + (draw(st.integers(0, 2**20)),)


def outcome(make):
    """("field", x, y, radius, class_id), or the counts of a saturation."""
    try:
        result = make()
    except SaturationError as exc:
        return ("saturated", exc.placed, exc.target, exc.attempts)
    if isinstance(result, SpatialField):
        result = (result.x, result.y, result.radius, result.class_id)
    return ("field", *result)


class TestHardcore:
    def params(self, intensity=100.0, gap=0.02):
        return ProcessParams(
            variant="hardcore", width=1.0, height=1.0, mixing=(0.5, 0.5),
            intensity=intensity, min_gap=gap,
        )

    def test_pairwise_clearance(self, table):
        f = generate_field(self.params(), table, seed=11)
        assert f.n > 50
        assert f.gap_violations(0.02) == 0

    def test_no_close_pair_across_seams(self, table):
        """Pairs that are close only across x = 0/W or y = 0/H keep the gap."""
        seam_neighbours = 0
        for seed in range(20):
            f = generate_field(self.params(), table, seed=seed)
            assert dense_gap_violations(f, 0.02) == 0
            i, j = np.triu_indices(f.n, k=1)
            dx = np.abs(f.x[i] - f.x[j])
            dy = np.abs(f.y[i] - f.y[j])
            across = (dx > 0.5) | (dy > 0.5)
            near = np.hypot(np.minimum(dx, 1.0 - dx), np.minimum(dy, 1.0 - dy)) < 0.1
            seam_neighbours += np.count_nonzero(across & near)
        # the seams are populated, so the check above has pairs to test
        assert seam_neighbours > 100

    def test_saturation_raises_with_counts(self, table):
        with pytest.raises(SaturationError) as exc:
            generate_field(self.params(intensity=2000.0, gap=0.05), table, seed=5)
        assert exc.value.attempts == 100 * exc.value.target
        # the same counts as the scalar loop, at a size the loop runs quickly
        params = self.params(intensity=150.0, gap=0.05)
        got = outcome(lambda: generate_field(params, table, seed=5))
        assert got[0] == "saturated"
        assert got == outcome(lambda: scalar_hardcore(params, table, seed=5))
        assert got[3] == 100 * got[2]

    def test_deterministic(self, table):
        a = generate_field(self.params(), table, seed=42)
        b = generate_field(self.params(), table, seed=42)
        np.testing.assert_array_equal(a.x, b.x)

    @settings(deadline=None, max_examples=60)
    @given(case=hardcore_cases())
    @example(case=hardcore_case(1, (1.0, 1.0), [0.0], 0.0, 150.0) + (3,))
    @example(case=hardcore_case(3, (2.5, 0.7), [0.01, 0.0, 0.03], 0.01, 150.0) + (4,))
    # reach 0.4: 2 cells per axis on the unit domain, 1 on the 0.7 axis
    @example(case=hardcore_case(3, (1.0, 1.0), [0.1, 0.15, 0.2], 0.0, 6.0) + (5,))
    @example(case=hardcore_case(3, (2.5, 0.7), [0.1, 0.15, 0.2], 0.0, 6.0) + (6,))
    # benchmark size: about 6000 particles, resolved over several chunks
    @example(case=hardcore_case(2, (1.0, 1.0), [0.002, 0.004], 0.002, 6000.0) + (7,))
    # reach 0.6, one reach-wide cell per axis: at most two particles fit,
    # so about 27 chunks of darts run before the attempt budget is spent
    @example(case=hardcore_case(1, (1.0, 1.0), [0.3], 0.0, 20.0) + (8,))
    # saturating with 5 x 5 reach-wide cells: about 720 chunks whose darts
    # nearly all land next to one of the few accepted particles
    @example(case=hardcore_case(1, (1.0, 1.0), [0.15], 0.05, 500.0) + (3,))
    def test_matches_scalar_loop(self, case):
        params, table, seed = case
        got = outcome(lambda: generate_field(params, table, seed))
        want = outcome(lambda: scalar_hardcore(params, table, seed))
        assert got[0] == want[0]
        if want[0] == "saturated":
            assert got == want
            return
        for array, ref in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(array, ref)
            assert array.dtype == ref.dtype


def on_grid(length, cells):
    """A coordinate in [0, length]: an edge of the domain or of one of its
    ``cells`` cells, or anywhere."""
    return st.one_of(st.just(0.0), st.just(length),
                     st.integers(0, cells).map(lambda c: c * length / cells),
                     st.floats(0.0, length))


@st.composite
def rectangle_cases(draw):
    width, height = draw(st.sampled_from([(1.0, 1.0), (2.5, 0.7)]))
    na, nb = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n = draw(st.integers(0, 30))
    a = draw(st.lists(on_grid(width, na), min_size=n, max_size=n))
    b = draw(st.lists(on_grid(height, nb), min_size=n, max_size=n))
    m = draw(st.integers(1, 6))
    # anchors reach below 0, as a square query around a point does
    a0 = draw(st.lists(st.one_of(on_grid(width, na), st.floats(-width, 0.0)),
                       min_size=m, max_size=m))
    b0 = draw(st.lists(st.one_of(on_grid(height, nb), st.floats(-height, 0.0)),
                       min_size=m, max_size=m))
    # sides up to wider than the domain
    a_side = draw(st.one_of(st.just(width), on_grid(width, na), st.floats(0.0, 2 * width)))
    b_side = draw(st.one_of(st.just(height), on_grid(height, nb), st.floats(0.0, 2 * height)))
    return (width, height, na, nb, np.array(a), np.array(b), np.array(a0), np.array(b0),
            a_side, b_side)


class TestCellStrips:
    @settings(deadline=None, max_examples=100)
    @given(case=rectangle_cases())
    def test_rectangle_holds_each_member_once(self, case):
        """Every particle in a wrapping rectangle is among that query's
        candidates, and no candidate appears twice in one query."""
        width, height, na, nb, a, b, a0, b0, a_side, b_side = case
        strips = CellStrips(a, b, na, nb, width, height)
        query, begin, count = strips.rectangles(a0, a_side, b0, b_side)
        assert np.all(np.diff(query) >= 0)
        candidates = strips.take(begin, count)
        owner = np.repeat(query, count)
        for q in range(len(a0)):
            mine = candidates[owner == q]
            assert len(np.unique(mine)) == len(mine)
            inside = np.flatnonzero((np.mod(a - a0[q], width) < a_side)
                                    & (np.mod(b - b0[q], height) < b_side))
            assert set(inside.tolist()) <= set(mine.tolist())


    @settings(deadline=None, max_examples=100)
    @given(shape=st.sampled_from([(1, 1), (1, 6), (6, 1), (7, 3), (256, 256), (257, 256),
                                  (1 << 16, 1), (1, 1 << 16), ((1 << 16) + 1, 1), (70_000, 1),
                                  (1, 70_000)]),
           length=st.sampled_from([(1.0, 1.0), (2.5, 0.7), (1e-3, 7e5)]),
           data=st.data())
    def test_order_is_the_stable_slot_order(self, shape, length, data):
        """``order`` is np.lexsort((cell_b, cell_a)) and ``offsets`` the
        running bincount of the slots, for empty fields, one-cell axes,
        points on cell edges and on the far edge, grids of 2**16 cells (one
        16-bit digit sort) and of more (two)."""
        (na, nb), (width, height) = shape, length
        drawn = data.draw(st.integers(0, 20))
        m = data.draw(st.integers(0, 3000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))

        def coordinates(side, cells):
            edge = st.one_of(st.just(0.0), st.just(side), st.floats(0.0, side),
                             st.integers(0, cells).map(lambda i: min(i * (side / cells), side)))
            v = np.concatenate([data.draw(st.lists(edge, min_size=drawn, max_size=drawn)),
                                rng.random(m) * side])
            # repeat some values so that cells hold several points
            return np.where(rng.random(len(v)) < 0.3, v[::-1], v)

        a, b = coordinates(width, na), coordinates(height, nb)
        strips = CellStrips(a, b, na, nb, width, height)
        cell_a, cell_b = fields._cell(a, na / width, na), fields._cell(b, nb / height, nb)
        np.testing.assert_array_equal(strips.order, np.lexsort((cell_b, cell_a)))
        assert strips.order.dtype == np.intp
        counts = np.bincount(cell_a * nb + cell_b, minlength=na * nb)
        np.testing.assert_array_equal(strips.offsets, np.concatenate([[0], np.cumsum(counts)]))


    @settings(deadline=None, max_examples=100)
    @given(case=rectangle_cases())
    def test_ring_and_interior_split_the_rectangle(self, case):
        """The ring and interior slices of a query hold the particles of its
        rectangle query, each once, and every interior particle is in the
        half-open wrapping rectangle."""
        width, height, na, nb, a, b, a0, b0, a_side, b_side = case
        strips = CellStrips(a, b, na, nb, width, height)
        ring, interior = strips.ring_and_interior(a0, a_side, b0, b_side)
        query, begin, count = strips.rectangles(a0, a_side, b0, b_side)
        whole = strips.take(begin, count)
        owner = np.repeat(query, count)
        parts = []
        for part_query, part_begin, part_count in (ring, interior):
            assert np.all(np.diff(part_query) >= 0)
            parts.append((strips.take(part_begin, part_count),
                          np.repeat(part_query, part_count)))
        assert np.array_equal(np.unique(ring[0]), np.arange(len(a0)))
        (ring_held, ring_owner), (inner_held, inner_owner) = parts
        for q in range(len(a0)):
            ring_q, inner_q = ring_held[ring_owner == q], inner_held[inner_owner == q]
            assert sorted(np.concatenate([ring_q, inner_q]).tolist()) == sorted(
                whole[owner == q].tolist())
            inside = (np.mod(a - a0[q], width) < a_side) & (np.mod(b - b0[q], height) < b_side)
            assert inside[inner_q].all()

    def test_interior_of_a_wide_rectangle(self):
        """A rectangle 3.5 cells wide on a 10 x 10 grid has 2 or 3 interior
        strips, each with two interior slices, and its interior cells hold
        more than a third of its particles."""
        rng = derived_rng(21)
        a, b = rng.uniform(0.0, 1.0, 5000), rng.uniform(0.0, 1.0, 5000)
        strips = CellStrips(a, b, 10, 10, 1.0, 1.0)
        anchors = rng.uniform(0.0, 1.0, (50, 2))
        anchors[0] = [0.3, 0.9]  # on cell edges, wrapping along b
        _, interior = strips.ring_and_interior(anchors[:, 0], 0.35, anchors[:, 1], 0.35)
        assert set((np.bincount(interior[0], minlength=50) // 2).tolist()) <= {2, 3}
        inside = np.count_nonzero(
            (np.mod(a[:, None] - anchors[:, 0], 1.0) < 0.35)
            & (np.mod(b[:, None] - anchors[:, 1], 1.0) < 0.35))
        assert interior[2].sum() > inside / 3


class TestGapViolations:
    @settings(deadline=None, max_examples=60)
    @given(
        domain=st.sampled_from([(1.0, 1.0), (2.5, 0.7)]),
        radius=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.1, 0.3)),
        gap=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
        seed=st.integers(0, 2**20),
    )
    def test_matches_dense_count(self, domain, radius, gap, seed):
        table = ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0], [radius, radius / 2])
        params = ProcessParams(variant="poisson", width=domain[0], height=domain[1],
                               mixing=(0.5, 0.5), intensity=200.0 / (domain[0] * domain[1]))
        f = generate_field(params, table, seed=seed)
        assert f.gap_violations(gap) == dense_gap_violations(f, gap)

    def test_points_on_the_edges(self):
        """x = 0 and x = W are one point on the torus; tiny fields count 0."""
        f = SpatialField(1.0, 1.0, np.array([0.0, 1.0, 0.5]), np.array([0.3, 0.3, 0.5]),
                         np.zeros(3), np.zeros(3, dtype=int))
        assert f.gap_violations(0.0) == 0
        assert f.gap_violations(1e-9) == 1
        assert f.gap_violations(0.6) == dense_gap_violations(f, 0.6) == 3
        one = SpatialField(1.0, 1.0, np.array([0.5]), np.array([0.5]), np.zeros(1),
                           np.zeros(1, dtype=int))
        assert one.gap_violations(1.0) == 0


def choice_reference(n, mixing, rng, parent_of=None, correlation=0.0):
    """The class draw of ``assign_classes`` through ``rng.choice``."""
    k = len(mixing)
    if k == 1:
        return np.zeros(n, dtype=int)
    own = rng.choice(k, size=n, p=mixing)
    if parent_of is None or correlation == 0.0 or n == 0:
        return own
    cluster_class = rng.choice(k, size=int(parent_of.max()) + 1, p=mixing)
    return np.where(rng.random(n) < correlation, cluster_class[parent_of], own)


def mixing_with_zero(k, zero):
    """Weights 1..k normalized, with entry ``zero`` (if any) set to 0."""
    w = np.arange(1.0, k + 1.0)
    if zero is not None:
        w[zero] = 0.0
    return w / w.sum()


class TestClassAssignment:
    @pytest.mark.parametrize("k, zero", [(1, None), (2, None), (2, 0), (2, 1), (3, None),
                                         (3, 0), (3, 1), (3, 2), (5, None), (5, 0),
                                         (5, 2), (5, 4)])
    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    @pytest.mark.parametrize("correlation", [0.0, 0.3, 1.0])
    def test_labels_equal_rng_choice(self, k, zero, n, correlation):
        """Bit for bit the labels, dtype and stream of rng.choice on the same
        seed, independent and cluster-correlated, with a zero weight first,
        in the middle and last."""
        mixing = mixing_with_zero(k, zero)
        parent_of = np.sort(derived_rng(n).integers(0, 1 + n // 10, n))
        got_rng, want_rng = derived_rng(31), derived_rng(31)
        got = assign_classes(n, mixing, got_rng, parent_of, correlation)
        want = choice_reference(n, mixing, want_rng, parent_of, correlation)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if zero is not None:
            assert not np.any(got == zero)
        # the same stream was consumed
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("k, zero", [(2, None), (3, 1), (5, 0), (5, 4)])
    def test_uniforms_on_cdf_entries(self, k, zero):
        """A uniform (in [0, 1)) equal to a cdf entry, or one ulp either
        side of it, gets the class searchsorted(side="right") gives it."""
        cdf = fields._mixing_cdf(mixing_with_zero(k, zero))
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[:-1],
                            np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0)])
        u = u[u < 1.0]
        got = fields._classes_of(u, cdf)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("mixing, message", [
        ([0.5, np.nan], "NaN"), ([np.inf, -np.inf], "NaN"), ([-0.1, 1.1], ">= 0"),
        ([0.5, 0.5 + 2e-8], "sum to 1"), ([0.0, 0.0], "sum to 1"), ([np.inf, 0.0], "sum to 1"),
        ([0.3, 0.3, 0.3], "sum to 1"), ([1.5], "sum to 1"),
    ])
    def test_refuses_what_rng_choice_refuses(self, mixing, message):
        mixing = np.array(mixing)
        if len(mixing) > 1:
            with pytest.raises(ValueError):
                derived_rng(1).choice(len(mixing), size=3, p=mixing)
        with pytest.raises(ValueError, match=message):
            assign_classes(3, mixing, derived_rng(1))

    @pytest.mark.parametrize("mixing", [[0.5, 0.5 + 1e-8], [0.5, 0.5 - 1e-8], [1.0 - 1e-8]])
    def test_accepts_what_rng_choice_accepts(self, mixing):
        """Sums within sqrt(float64 eps) of 1 pass, as in rng.choice."""
        mixing = np.array(mixing)
        got = assign_classes(50, mixing, derived_rng(2))
        assert np.array_equal(got, choice_reference(50, mixing, derived_rng(2)))

    def test_independent_matches_mixing(self):
        rng = derived_rng(5)
        ids = assign_classes(20000, np.array([0.3, 0.7]), rng)
        p_hat = np.mean(ids == 0)
        se = np.sqrt(0.3 * 0.7 / 20000)
        assert abs(p_hat - 0.3) < 4 * se

    def test_full_correlation_gives_pure_clusters(self):
        rng = derived_rng(6)
        parent_of = np.repeat(np.arange(40), 25)
        ids = assign_classes(1000, np.array([0.5, 0.5]), rng, parent_of, correlation=1.0)
        for p in range(40):
            members = ids[parent_of == p]
            assert len(set(members.tolist())) == 1

    def test_zero_correlation_reduces_to_independent(self):
        rng = derived_rng(7)
        parent_of = np.repeat(np.arange(40), 250)
        ids = assign_classes(10000, np.array([0.5, 0.5]), rng, parent_of, correlation=0.0)
        # within-cluster purity should look binomial, not degenerate
        purity = [np.mean(ids[parent_of == p] == 0) for p in range(40)]
        assert np.std(purity) < 0.1

    def test_single_class(self):
        rng = derived_rng(8)
        assert assign_classes(10, np.array([1.0]), rng).tolist() == [0] * 10

    def test_marginal_preserved_under_correlation(self):
        rng = derived_rng(9)
        parent_of = np.repeat(np.arange(200), 50)
        ids = assign_classes(10000, np.array([0.25, 0.75]), rng, parent_of, correlation=0.8)
        assert abs(np.mean(ids == 0) - 0.25) < 0.03


class TestCluster:
    def test_offspring_wrap_toroidally(self, table):
        f = generate_field(cluster_params(cluster_radius=0.3), table, seed=13)
        assert f.x.min() >= 0 and f.x.max() <= 1
        assert f.y.min() >= 0 and f.y.max() <= 1

    def test_count_near_expectation(self, table):
        counts = [
            generate_field(cluster_params(), table, seed=s).n for s in range(100)
        ]
        # parent and offspring Poisson noise compound; just sanity-band it
        assert 200 < np.mean(counts) < 400


class TestGraded:
    def test_positive_gradient_shifts_mass_upward(self, table):
        params = ProcessParams(
            variant="graded", width=1.0, height=1.0, mixing=(0.5, 0.5),
            intensity=2000.0, gradient=(0.8, -0.8),
        )
        f = generate_field(params, table, seed=21)
        up = f.y[f.class_id == 0].mean()
        down = f.y[f.class_id == 1].mean()
        # E[y] = 1/2 + g/6
        assert up == pytest.approx(0.5 + 0.8 / 6, abs=0.02)
        assert down == pytest.approx(0.5 - 0.8 / 6, abs=0.02)


def round_trip(field_, directory):
    save_field_csv(field_, directory / "field.csv")
    return load_field_csv(directory / "field.csv")


def assert_same_particles(back, field_):
    for name in ("x", "y", "radius", "class_id"):
        got, want = getattr(back, name), getattr(field_, name)
        assert got.dtype.kind == want.dtype.kind and got.tobytes() == want.tobytes(), name


class TestFieldCsv:
    def test_round_trip(self, table, tmp_path):
        f = generate_field(poisson_params(intensity=50.0), table, seed=4)
        path = tmp_path / "field.csv"
        save_field_csv(f, path)
        back = load_field_csv(path)
        np.testing.assert_array_equal(back.x, f.x)
        np.testing.assert_array_equal(back.radius, f.radius)
        np.testing.assert_array_equal(back.class_id, f.class_id)
        assert back.width == f.width
        assert back.process_tag == f.process_tag

    @pytest.mark.parametrize("params", [
        poisson_params(intensity=300.0),
        cluster_params(),
        ProcessParams(variant="hardcore", width=2.5, height=0.7, mixing=(0.5, 0.5),
                      intensity=100.0, min_gap=0.01),
        ProcessParams(variant="graded", width=1.0, height=3.0, mixing=(0.5, 0.5),
                      intensity=100.0, gradient=(0.5, -0.5)),
    ], ids=lambda p: p.variant)
    def test_round_trip_is_bit_identical(self, params, table, tmp_path):
        f = generate_field(params, table, seed=8)
        assert_same_particles(round_trip(f, tmp_path), f)

    @settings(deadline=None, max_examples=30)
    @given(width=st.sampled_from([1.0, 2.5, 1e-3, 7e5]), data=st.data())
    def test_round_trip_of_drawn_coordinates(self, width, data, tmp_path_factory):
        """Exact zeros, values below 1e-4 (subnormals too) and the rest of
        [0, W) come back with every bit."""
        coordinate = st.one_of(st.just(0.0), st.floats(0.0, 1e-4),
                               st.floats(0.0, width, exclude_max=True))
        n = data.draw(st.integers(1, 40))
        x, y = (np.array(data.draw(st.lists(coordinate, min_size=n, max_size=n)))
                for _ in range(2))
        radius = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        classes = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
        f = SpatialField(width, width, x, y, radius, classes)
        assert_same_particles(round_trip(f, tmp_path_factory.mktemp("csv")), f)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_both_readers_give_the_saved_bits(self, data, tmp_path_factory):
        """With comment lines before the header, blank lines, CRLF line
        endings and spaces or tabs around cells, the one-call reader and the
        line walk both return the saved field's arrays, bit for bit."""
        n = data.draw(st.integers(0, 20))
        x, y, radius = (np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                                    max_size=n)), dtype=float)
                        for _ in range(3))
        classes = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
                           dtype=np.int64)
        f = SpatialField(1.0, 1.0, x, y, radius, classes)
        path = tmp_path_factory.mktemp("csv") / "field.csv"
        save_field_csv(f, path, comment="seed=1")
        head, *rows = path.read_text().splitlines()[1:]
        pad = st.sampled_from(["", " ", "  ", "\t"])
        lines = [f"# {text}" for text in data.draw(st.lists(st.text("ab ,#"), max_size=2))]
        lines.append(head)
        for row in rows:
            lines += [""] * data.draw(st.integers(0, 2))
            lines.append(",".join(data.draw(pad) + cell + data.draw(pad)
                                  for cell in row.split(",")))
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        path.write_bytes("".join(line + eol for line in lines).encode())

        if n:  # an empty body only warns in np.loadtxt, and is walked
            with mock.patch.object(fields, "_parse_field_lines",
                                   side_effect=AssertionError("line walk")):
                assert_same_particles(load_field_csv(path), f)
        with mock.patch.object(fields.np, "loadtxt", side_effect=ValueError("fast path")):
            assert_same_particles(load_field_csv(path), f)

    @staticmethod
    def save_and_compare(f, path, monkeypatch) -> bool:
        """Save ``f`` and check its bytes against writing all four columns
        cell by cell; True when the per-class path wrote it."""
        tails = []
        monkeypatch.setattr(fields, "write_csv_columns", lambda out, columns, tail=None:
                            tails.append(tail) or write_csv_columns(out, columns, tail))
        save_field_csv(f, path)
        reference = io.BytesIO()
        write_csv_columns(reference, [f.x, f.y, f.radius, f.class_id])
        assert path.read_bytes() == b"x,y,radius,class_id\n" + reference.getvalue()
        return tails[0] is not None

    @pytest.mark.parametrize("radius, class_id, per_class", [
        ([0.02, 0.5, 0.02, 0.02, 1e-5], [0, 2, 0, 0, 1], True),
        ([0.02, 0.5, 0.02, 0.02, 0.02], [0, 2, 0, 0, 0], True),  # class 1 absent
        ([0.01, 0.02, 0.03, 0.04, 0.05], [0, 0, 1, 1, 1], False),  # per-particle radii
        ([0.0, 0.3, -0.0, 0.3, 0.0], [0, 1, 0, 1, 0], False),  # 0.0 and -0.0 in class 0
        ([0.1, 0.1, 0.2, 0.2, 0.2], [-1, -1, 0, 0, 0], False),  # negative class id
        ([0.1, 0.1, 0.2, 0.2, 0.2], [2**40, 2**40, 0, 0, 0], False),
        ([0.1, 0.1, 0.2, 0.2, 0.2], [5, 5, 0, 0, 0], False),  # class id n
        ([0.1, 0.1, 0.2, 0.2, 0.2], [4, 4, 0, 0, 0], True),  # class id n - 1
        ([], [], False),
    ])
    def test_per_class_columns_write_the_same_bytes(self, tmp_path, monkeypatch,
                                                    radius, class_id, per_class):
        """radius,class_id is formatted once per class only when every
        particle of a class has the same radius bits and the class ids are
        integers in [0, n); either way the bytes are those of writing all
        four columns cell by cell."""
        n = len(radius)
        rng = np.random.default_rng(n)
        f = SpatialField(1.0, 1.0, rng.random(n), rng.random(n), np.array(radius, float),
                         np.array(class_id, dtype=np.int64))
        assert self.save_and_compare(f, tmp_path / "field.csv", monkeypatch) == per_class

    def test_generated_field_takes_the_per_class_path(self, table, tmp_path, monkeypatch):
        f = generate_field(cluster_params(), table, seed=3)
        assert self.save_and_compare(f, tmp_path / "field.csv", monkeypatch)

    def test_round_trip_with_comment(self, table, tmp_path):
        f = generate_field(poisson_params(intensity=50.0), table, seed=4)
        path = tmp_path / "field.csv"
        save_field_csv(f, path, comment="tool=x config=y seed=4")
        back = load_field_csv(path)
        assert back.n == f.n

    @pytest.mark.parametrize("row", ["nan,0.5,0.01,0", "0.5,0.5,nan,1", "0.5,inf,0.01,0"])
    def test_non_finite_row_is_refused(self, table, tmp_path, row):
        f = generate_field(poisson_params(intensity=50.0), table, seed=4)
        path = tmp_path / "field.csv"
        save_field_csv(f, path)
        with path.open("a", encoding="utf-8") as out:
            out.write(row + "\n")
        with pytest.raises(ValueError, match="must be finite"):
            load_field_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("0.5,0.5,0.01", "expected 4 values, got 3"),
        ("0.5,0.5,0.01,0,1", "expected 4 values, got 5"),
        ("abc,0.5,0.01,0", "could not convert string to float: 'abc'"),
        ("0.5,0.5,,0", "could not convert string to float: ''"),
        ("0.5,0.5,0.01,1.5", "invalid literal for int"),
        ("0.5,0.5,0.01,one", "invalid literal for int"),
        ("# a comment after the header", "expected 4 values, got 1"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        """A short or long row, a non-numeric cell, a non-integer class id
        or a comment line below the header is refused with the file and the
        line it sits on."""
        path = tmp_path / "field.csv"
        path.with_suffix(".json").write_text('{"width": 1.0, "height": 1.0}')
        path.write_text(f"# comment\nx,y,radius,class_id\n0.2,0.2,0.01,1\n\n{row}\n")
        with pytest.raises(ValueError) as info:
            load_field_csv(path)
        assert str(info.value).startswith(f"{path}, line 5: ")
        assert message in str(info.value)


class TestSpatialField:
    def test_rejects_outside_centers(self):
        with pytest.raises(ValueError):
            SpatialField(
                1.0, 1.0, np.array([1.5]), np.array([0.5]),
                np.array([0.01]), np.array([0]),
            )

    @pytest.mark.parametrize("name", ["x", "y", "radius"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_particle_data(self, name, bad):
        """NaN passes the domain checks (every comparison with it is false),
        so non-finite centres and radii are refused on their own."""
        values = {"x": np.array([0.5, 0.2]), "y": np.array([0.5, 0.2]),
                  "radius": np.array([0.01, 0.01])}
        values[name][1] = bad
        with pytest.raises(ValueError, match=f"particle {name} values must be finite"):
            SpatialField(1.0, 1.0, values["x"], values["y"], values["radius"],
                         np.array([0, 1]))

    def test_rejects_negative_radius_naming_the_particle(self):
        with pytest.raises(ValueError, match=r"particle 0 has radius -0\.1$"):
            SpatialField(1.0, 1.0, np.array([0.5, 0.2]), np.array([0.5, 0.7]),
                         np.array([-0.1, 0.05]), np.array([0, 1]))
        with pytest.raises(ValueError, match=r"particle 2 has radius -5e-324$"):
            SpatialField(1.0, 1.0, np.full(4, 0.5), np.full(4, 0.5),
                         np.array([0.0, 0.1, -5e-324, -1.0]), np.zeros(4, dtype=int))

    def test_sequences_are_taken_as_arrays(self):
        f = SpatialField(1, 1, [0.5, 0.2], [0.5, 0.7], [0.1, 0.05], [0, 1])
        assert_same_particles(f, SpatialField(
            1.0, 1.0, np.array([0.5, 0.2]), np.array([0.5, 0.7]), np.array([0.1, 0.05]),
            np.array([0, 1])))
        assert f.x.dtype == np.float64
        assert SpatialField(1, 1, [], [], [], []).class_id.dtype.kind == "i"

    @pytest.mark.parametrize("name, values, message", [
        ("x", ["0.5", 0.2], "particle x values must be numbers"),
        ("radius", [None, 0.1], "particle radius values must be numbers"),
        ("class_id", [0.0, 1.0], "particle class_id values must be integers"),
        ("class_id", ["0", "1"], "particle class_id values must be integers"),
    ])
    def test_non_numeric_values_are_refused_by_name(self, name, values, message):
        arrays = {"x": [0.5, 0.2], "y": [0.5, 0.7], "radius": [0.1, 0.05], "class_id": [0, 1]}
        arrays[name] = values
        with pytest.raises(ValueError, match=message):
            SpatialField(1.0, 1.0, **arrays)

    def test_zero_radius_is_accepted(self):
        f = SpatialField(1.0, 1.0, np.array([0.5, 0.2]), np.array([0.5, 0.7]),
                         np.array([0.0, -0.0]), np.array([0, 1]))
        assert f.n == 2

    def test_loaded_negative_radius_is_refused(self, tmp_path):
        path = tmp_path / "field.csv"
        path.with_suffix(".json").write_text('{"width": 1.0, "height": 1.0}')
        path.write_text("x,y,radius,class_id\n0.2,0.2,0.01,1\n0.5,0.5,0,0\n0.7,0.1,-0.02,1\n")
        with pytest.raises(ValueError, match=r"particle 2 has radius -0\.02$"):
            load_field_csv(path)

    def test_class_counts(self, table):
        f = generate_field(poisson_params(intensity=200.0), table, seed=9)
        counts = f.class_counts(2)
        assert counts.sum() == f.n
