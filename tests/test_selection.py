import dataclasses
import hashlib
import itertools
import json
import math
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granvar import fields, selection
from granvar.cli import main as cli_main
from granvar.errors import EmptySampleError
from granvar.fields import ProcessParams, SpatialField, generate_field
from granvar.experiments import calibrate_against_oracle, random_pairwise_design
from granvar.intercept import TransectSpec, intersect_segments
from granvar.model import ClassTable, derive_expectation
from granvar.selection import (
    ComparisonRow,
    InclusionEstimate,
    ReplicateStats,
    SelectionDesign,
    compare_estimators,
    distinct_rows,
    empirical_dependence,
    enumerate_design,
    inclusion_from_fractions,
    pair_fractions,
    replicate_counts,
    run_replicates,
    variance_se,
    window_counts,
)
from granvar.util import derived_rng


@pytest.fixture
def two_particle_table():
    """Two classes, one particle each, class 0 carries the analyte."""
    return ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0])


def brute_force_enumeration(design, table):
    """Reference oracle: the pairwise pmf summed over all 2^n subsets,
    particle by particle (n <= 12).  Returns the class-level values and the
    largest within-class spread of the particle and pair probabilities, or
    None when no subset of positive weight is non-empty."""
    cls = np.asarray(design.class_of)
    n, k = len(cls), table.k
    assert n <= 12
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    q = np.asarray(design.q)[cls]
    w = np.prod(np.where(bits == 1, q, 1.0 - q), axis=1)
    for i, j in itertools.combinations(range(n), 2):
        w = w * np.where(bits[:, i] & bits[:, j], design.phi[cls[i], cls[j]], 1.0)
    mass = bits @ table.masses[cls]
    nonempty = mass > 0
    if w[nonempty].sum() == 0:
        return None
    pi, pi_pair = w @ bits / w.sum(), (bits.T * w) @ bits / w.sum()
    cs = bits[nonempty] @ (table.masses * table.concentrations)[cls] / mass[nonempty]
    p = w[nonempty] / w[nonempty].sum()
    mean = p @ cs
    pi1, pi2, spread = np.full(k, np.nan), np.full((k, k), np.nan), 0.0
    for u, v in itertools.combinations_with_replacement(range(k), 2):
        mu, mv = np.flatnonzero(cls == u), np.flatnonzero(cls == v)
        if u == v and len(mu):
            pi1[u], spread = pi[mu].mean(), max(spread, np.ptp(pi[mu]))
        vals = [pi_pair[i, j] for i in mu for j in mv if u != v or i < j]
        if vals:
            pi2[u, v] = pi2[v, u] = np.mean(vals)
            spread = max(spread, np.ptp(vals))
    outer = np.outer(pi1, pi1)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(outer > 0, 1.0 - pi2 / outer, np.nan)
    return SimpleNamespace(pi1=pi1, pi2=pi2, c_exact=c, mean_cs=mean,
                           var_cs=p @ (cs - mean) ** 2, p_empty=w[~nonempty].sum() / w.sum(),
                           spread=spread)


@st.composite
def pairwise_cases(draw):
    """Small pairwise designs: forbidden (phi = 0) cells, q = 1, absent and
    single-member classes all come up."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    class_of = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))

    def values(strategy, size):
        return draw(st.lists(strategy, min_size=size, max_size=size))

    q = values(st.one_of(st.just(1.0), st.floats(0.05, 1.0)), k)
    phi = np.zeros((k, k))
    phi[np.triu_indices(k)] = values(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.1, 5.0)), k * (k + 1) // 2
    )
    phi = phi + np.triu(phi, 1).T
    # concentrations are 0 or normal floats: subnormals carry no 1e-12 precision
    table = ClassTable.from_arrays(
        values(st.floats(0.5, 2.0), k),
        values(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)), k),
    )
    return SelectionDesign.pairwise_pmf(q, phi, class_of), table


#: Class 0 forced in by q = 1 and kept apart from class 2 by phi = 0, so
#: class 2 (one member) is never selected; class 1 is absent.
FORBIDDEN_EDGE_CASE = (
    SelectionDesign.pairwise_pmf(
        [1.0, 0.5, 0.4], [[0.7, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, 1.0]], [0, 2, 0, 0]
    ),
    ClassTable.from_arrays([1.0, 1.5, 0.8], [1.0, 0.5, 0.0]),
)
#: q = 1 forces both members in and phi = 0 forbids the pair: no subset weighs.
UNNORMALIZABLE_CASE = (
    SelectionDesign.pairwise_pmf([1.0], [[0.0]], [0, 0]),
    ClassTable.from_arrays([1.0], [1.0]),
)


class TestDesignValidation:
    def test_bernoulli_q_range(self):
        with pytest.raises(ValueError):
            SelectionDesign.bernoulli([0.0], [0])

    def test_pairwise_phi_nonnegative(self):
        with pytest.raises(ValueError):
            SelectionDesign.pairwise_pmf([0.5], [[-1.0]], [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pairwise_phi_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SelectionDesign.pairwise_pmf([0.5, 0.5], [[1.0, bad], [bad, 1.0]], [0, 1])

    def test_pairwise_phi_symmetric(self):
        with pytest.raises(ValueError):
            SelectionDesign.pairwise_pmf(
                [0.5, 0.5], [[1.0, 2.0], [0.5, 1.0]], [0, 1]
            )

    def test_pairwise_state_limit(self):
        """The bound is on the prod(n_u + 1) class-count states, not on n."""
        with pytest.raises(ValueError, match="class-count states"):
            SelectionDesign.pairwise_pmf([0.5] * 25, np.ones((25, 25)), range(25))
        at_bound = SelectionDesign.pairwise_pmf([0.5] * 24, np.ones((24, 24)), range(24))
        assert at_bound.n == 24
        one_class = SelectionDesign.pairwise_pmf([0.5], [[1.0]], [0] * 5000)
        assert one_class.n == 5000
        over = SelectionDesign.bernoulli([0.5] * 25, range(25))
        with pytest.raises(ValueError, match="class-count states"):
            enumerate_design(over, ClassTable.from_arrays([1.0] * 25, [0.5] * 25))

    def test_window_must_fit(self, two_particle_table):
        field = generate_field(
            ProcessParams(variant="poisson", width=1, height=1, mixing=(0.5, 0.5),
                          intensity=50.0),
            two_particle_table, seed=1,
        )
        with pytest.raises(ValueError):
            SelectionDesign.window(field, 1.5, 0.5)


class TestEnumeration:
    def test_uniform_three_particles(self):
        """q = 1/2 with no pair interaction: every subset weighs the same."""
        table = ClassTable.from_arrays([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
        design = SelectionDesign.pairwise_pmf(
            [0.5] * 3, np.ones((3, 3)), [0, 1, 2]
        )
        exact = enumerate_design(design, table)
        np.testing.assert_allclose(exact.pi1, 0.5, rtol=1e-12)
        off_diag = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(exact.pi2[off_diag], 0.25, rtol=1e-12)
        # single-particle classes have no distinct same-class pairs: NaN diagonal
        assert np.isnan(np.diag(exact.pi2)).all()
        np.testing.assert_allclose(exact.c_exact[off_diag], 0.0, atol=1e-12)
        assert np.isnan(np.diag(exact.c_exact)).all()

    def test_forbidden_pair(self, two_particle_table):
        """phi = 0 forbids co-selection: states {}, {1}, {2} at weight 1/4
        each; conditioning gives inclusion 1/3 and pair dependence 1."""
        design = SelectionDesign.pairwise_pmf(
            [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0, 1]
        )
        exact = enumerate_design(design, two_particle_table)
        np.testing.assert_allclose(exact.pi1, 1.0 / 3.0, rtol=1e-12)
        assert exact.pi2[0, 1] == 0.0
        assert exact.c_exact[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_attractive_pair(self, two_particle_table):
        """phi = 2 doubles the both-selected weight: Z = 5/4, pair probability
        2/5, inclusion 3/5, dependence -1/9."""
        design = SelectionDesign.pairwise_pmf(
            [0.5, 0.5], [[1.0, 2.0], [2.0, 1.0]], [0, 1]
        )
        exact = enumerate_design(design, two_particle_table)
        np.testing.assert_allclose(exact.pi1, 0.6, rtol=1e-12)
        assert exact.pi2[0, 1] == pytest.approx(0.4, rel=1e-12)
        assert exact.c_exact[0, 1] == pytest.approx(-1.0 / 9.0, rel=1e-12)

    def test_attractive_pair_moments(self, two_particle_table):
        """Hand enumeration of the non-empty concentration distribution:
        c_s takes 1, 0, 1/2 at conditional weights 1/4, 1/4, 1/2."""
        design = SelectionDesign.pairwise_pmf(
            [0.5, 0.5], [[1.0, 2.0], [2.0, 1.0]], [0, 1]
        )
        exact = enumerate_design(design, two_particle_table)
        assert exact.mean_cs == pytest.approx(0.5, rel=1e-12)
        assert exact.var_cs == pytest.approx(0.125, rel=1e-12)
        assert exact.p_empty == pytest.approx(0.2, rel=1e-12)

    def test_bernoulli_exact_independence(self):
        table = ClassTable.from_arrays([1.0, 2.0], [1.0, 0.3])
        design = SelectionDesign.bernoulli([0.3, 0.7], [0, 0, 1, 1, 1])
        exact = enumerate_design(design, table)
        assert exact.pi1[0] == 0.3
        assert exact.pi2[0, 1] == 0.3 * 0.7
        assert exact.pi2[1, 1] == 0.7 * 0.7
        assert np.all(exact.c_exact == 0.0)

    def test_within_class_homogeneity(self):
        """Class-exchangeable pairwise designs give every particle of a class
        the same inclusion probability, and every pair of a class pair the
        same pair probability: the premise of the class-count states."""
        table = ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0])
        design = SelectionDesign.pairwise_pmf(
            [0.4, 0.6], [[1.5, 0.7], [0.7, 1.2]], [0, 0, 1, 0, 1, 1, 1]
        )
        ref = brute_force_enumeration(design, table)
        assert ref.spread <= 1e-12
        np.testing.assert_allclose(enumerate_design(design, table).pi2, ref.pi2, rtol=1e-12)

    @settings(deadline=None, max_examples=150)
    @given(case=pairwise_cases())
    @example(case=FORBIDDEN_EDGE_CASE)
    @example(case=UNNORMALIZABLE_CASE)
    def test_matches_subset_enumeration(self, case):
        """The class-count states reproduce the 2^n subset sum to rounding."""
        design, table = case
        ref = brute_force_enumeration(design, table)
        if ref is None:
            with pytest.raises((ValueError, EmptySampleError)):
                enumerate_design(design, table)
            return
        got = enumerate_design(design, table)
        assert ref.spread <= 1e-12
        for name in ("pi1", "pi2", "mean_cs", "p_empty"):
            np.testing.assert_allclose(getattr(got, name), getattr(ref, name), rtol=1e-12)
        # c = 1 - pi2/(pi1 pi1) carries the rounding of that ratio
        np.testing.assert_allclose(1.0 - got.c_exact, 1.0 - ref.c_exact, rtol=1e-12)
        np.testing.assert_allclose(
            got.var_cs, ref.var_cs, rtol=1e-12,
            atol=1e-12 * (ref.var_cs + ref.mean_cs**2),
        )

    def test_large_two_class_design(self):
        """3000 particles in two classes: 1201 x 1801 states enumerate in well
        under a second, and Monte Carlo draws agree with them."""
        table = ClassTable.from_arrays([1.0, 2.0], [1.0, 0.2])
        phi = np.exp([[2e-4, -1e-4], [-1e-4, 1e-4]])
        design = SelectionDesign.pairwise_pmf([0.3, 0.6], phi, [0] * 1200 + [1] * 1800)
        start = time.perf_counter()
        exact = enumerate_design(design, table)
        assert time.perf_counter() - start < 1.0
        _, est = run_replicates(design, table, r=20_000, seed=41)
        assert np.all(np.abs(est.pi1 - exact.pi1) <= 5 * est.pi1_se)
        assert np.all(np.abs(est.pi2 - exact.pi2) <= 5 * est.pi2_se)

    def test_each_state_weighed_once(self, monkeypatch):
        """Enumeration evaluates every class-count state's log weight once."""
        design, table = random_pairwise_design(derived_rng(5, 3), 16)
        weighed = []
        log_weights = selection._ClassStates.log_weights

        def spy(states, s):
            weighed.append(s.shape[1])
            return log_weights(states, s)

        monkeypatch.setattr(selection._ClassStates, "log_weights", spy)
        enumerate_design(design, table)
        pop = np.bincount(design.class_of, minlength=table.k)
        assert sum(weighed) == math.prod(pop + 1) == 250

    def test_window_not_enumerable(self, two_particle_table):
        field = generate_field(
            ProcessParams(variant="poisson", width=1, height=1, mixing=(0.5, 0.5),
                          intensity=20.0),
            two_particle_table, seed=1,
        )
        design = SelectionDesign.window(field, 0.5, 0.5)
        with pytest.raises(ValueError):
            enumerate_design(design, two_particle_table)

    def test_all_weights_zero(self, two_particle_table):
        design = SelectionDesign.pairwise_pmf(
            [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0, 1]
        )
        # q = 1 forces both in, phi = 0 forbids it: nothing is normalizable
        with pytest.raises((ValueError, EmptySampleError)):
            enumerate_design(design, two_particle_table)


class TestRunReplicates:
    def test_take_everything_design(self, two_particle_table):
        design = SelectionDesign.bernoulli([1.0, 1.0], [0, 0, 1, 1])
        stats, est = run_replicates(design, two_particle_table, r=100, seed=5)
        assert stats.v_e == 0.0
        assert stats.n_empty == 0
        assert np.all(stats.counts == 2)
        assert est.pi1[0] == 1.0

    def test_bernoulli_counts_are_binomial(self):
        """Each class's replicate counts have the binomial mean n_u q_u and
        variance n_u q_u (1 - q_u), within 5 standard errors."""
        q, pop = np.array([0.05, 0.5, 0.9, 1.0]), np.array([40, 7, 300, 3])
        table = ClassTable.from_arrays([1.0] * 4, [1.0, 0.5, 0.0, 0.2])
        design = SelectionDesign.bernoulli(q, np.repeat(np.arange(4), pop))
        r = 20_000
        counts = replicate_counts(design, table, r, seed=2024)
        assert counts.shape == (r, 4) and counts.dtype == np.int64
        mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
        want_mean, want_var = pop * q, pop * q * (1.0 - q)
        var_se = np.array([variance_se(c.astype(float)) for c in counts.T])
        assert np.all(np.abs(mean - want_mean) <= 5 * np.sqrt(want_var / r))
        assert np.all(np.abs(var - want_var) <= 5 * var_se)
        assert np.all(counts[:, 3] == 3)  # q = 1 selects every member

    def test_bernoulli_class_count_must_match_the_table(self):
        """A design of 2 classes on a 3-class table is refused, as
        enumeration refuses it, instead of drawing a zero column."""
        design = SelectionDesign.bernoulli([0.5, 0.5], [0, 1, 1])
        table = ClassTable.from_arrays([1.0] * 3, [1.0, 0.0, 0.5])
        for call in (replicate_counts, run_replicates):
            with pytest.raises(ValueError, match="design has 2 classes, the class table 3"):
                call(design, table, 10, 1)
        with pytest.raises(ValueError, match="design has 2 classes, the class table 3"):
            enumerate_design(design, table)

    def test_deterministic(self, two_particle_table):
        design = SelectionDesign.bernoulli([0.4, 0.4], [0, 0, 1, 1])
        a, _ = run_replicates(design, two_particle_table, r=500, seed=9)
        b, _ = run_replicates(design, two_particle_table, r=500, seed=9)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.v_e == b.v_e

    def test_pairwise_sampling_matches_enumeration(self, two_particle_table):
        design = SelectionDesign.pairwise_pmf(
            [0.5, 0.5], [[1.0, 2.0], [2.0, 1.0]], [0, 1]
        )
        stats, est = run_replicates(design, two_particle_table, r=100_000, seed=31)
        assert abs(est.pi2[0, 1] - 0.4) <= 3 * est.pi2_se[0, 1]
        assert abs(est.pi1[0] - 0.6) <= 3 * est.pi1_se[0]

    def test_forbidden_pair_never_cooccurs(self, two_particle_table):
        design = SelectionDesign.pairwise_pmf(
            [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0, 1]
        )
        stats, est = run_replicates(design, two_particle_table, r=20_000, seed=32)
        assert est.pi2[0, 1] == 0.0
        assert est.c_hat[0, 1] == pytest.approx(1.0)

    def test_window_covering_domain(self, two_particle_table):
        field = generate_field(
            ProcessParams(variant="poisson", width=1, height=1, mixing=(0.5, 0.5),
                          intensity=100.0),
            two_particle_table, seed=8,
        )
        design = SelectionDesign.window(field, 1.0, 1.0)
        stats, _ = run_replicates(design, two_particle_table, r=50, seed=6)
        # c_s identical every replicate: variance is zero up to rounding
        assert stats.v_e == pytest.approx(0.0, abs=1e-30)
        assert np.all(stats.counts.sum(axis=1) == field.n)

    def test_empty_replicates_counted_not_fatal(self, two_particle_table):
        field = generate_field(
            ProcessParams(variant="poisson", width=1, height=1, mixing=(0.5, 0.5),
                          intensity=20.0),
            two_particle_table, seed=8,
        )
        design = SelectionDesign.window(field, 0.05, 0.05)
        stats, _ = run_replicates(design, two_particle_table, r=2000, seed=6)
        assert stats.n_empty > 0
        assert np.isnan(stats.cs[stats.mass == 0]).all()
        assert np.isfinite(stats.v_e)

    def test_window_first_order_matches_area_fraction(self, two_particle_table):
        """Toroidal windows give every particle inclusion probability equal
        to the window area fraction; the estimate must agree."""
        field = generate_field(
            ProcessParams(variant="poisson", width=1, height=1, mixing=(0.5, 0.5),
                          intensity=300.0),
            two_particle_table, seed=18,
        )
        design = SelectionDesign.window(field, 0.25, 0.2)
        _, est = run_replicates(design, two_particle_table, r=20_000, seed=19)
        for u in range(2):
            assert abs(est.pi1[u] - 0.05) <= 4 * est.pi1_se[u]

    def test_mass_cv_reported(self, two_particle_table):
        design = SelectionDesign.bernoulli([0.5, 0.5], [0, 0, 0, 1, 1, 1])
        stats, _ = run_replicates(design, two_particle_table, r=5000, seed=44)
        assert 0.0 < stats.mass_cv < 1.0

    def test_empty_window_probability_matches_expectation(self, two_particle_table):
        """Across Poisson fields the empty-window fraction averages to
        exp(-intensity * window area)."""
        intensity, area = 100.0, 0.01
        fractions = []
        for s in range(60):
            field = generate_field(
                ProcessParams(variant="poisson", width=1, height=1,
                              mixing=(0.5, 0.5), intensity=intensity),
                two_particle_table, seed=6000 + s,
            )
            design = SelectionDesign.window(field, 0.1, 0.1)
            stats, _ = run_replicates(design, two_particle_table, r=200, seed=s)
            fractions.append(stats.n_empty / stats.replicates)
        fractions = np.array(fractions)
        expected = np.exp(-intensity * area)
        se = fractions.std(ddof=1) / np.sqrt(len(fractions))
        assert abs(fractions.mean() - expected) < 4 * se


def dense_window_counts(field, anchors, width, height, k):
    """Reference: every particle tested against every window."""
    dx = np.mod(field.x[None, :] - anchors[:, :1], field.width)
    dy = np.mod(field.y[None, :] - anchors[:, 1:], field.height)
    member = (dx < width) & (dy < height)
    return np.stack([member[:, field.class_id == u].sum(axis=1) for u in range(k)], axis=1)


def point_field(width, height, xs, ys, classes, radius=0.0):
    n = len(xs)
    return SpatialField(
        width, height, np.array(xs, dtype=float), np.array(ys, dtype=float),
        np.full(n, radius), np.array(classes, dtype=int),
    )


def ulp_around(values):
    """Each value and the floats just below and above it."""
    return [v for value in values
            for v in (float(np.nextafter(value, -np.inf)), value,
                      float(np.nextafter(value, np.inf)))]


@st.composite
def window_cases(draw):
    """A field, anchors and a window on a random domain.  Coordinates are
    uniform, or drawn from the domain's and the cells' edges, the floats
    next to them and the whole range.  With up to 400 particles the index
    has up to 21 cells per axis, and windows from three cells wide up to
    the whole side have interior cells.  Anchors and anchor + width fall on
    cell edges and one ulp either side of them, and some classes lie
    outside [0, 3)."""
    width = draw(st.sampled_from([1.0, 2.5, 0.7, 3.0e-3, 1.0e4]))
    height = draw(st.sampled_from([1.0, 0.7, 2.5]))
    below = float(np.nextafter(width, 0.0))
    n = draw(st.integers(1, 400))
    # the grid of point_field's radius-0 particles
    nx, ny = fields.grid_shape(width, height, 0.0, n)

    def side(length, cells):
        return st.one_of(
            st.sampled_from([length, float(np.nextafter(length, 0.0)), 1e-12 * length,
                             0.5 * length, min(3.0 / cells, 1.0) * length]),
            st.floats(0.0, length, exclude_min=True),
            st.floats(min(3.0 / cells, 1.0) * length, length))

    def on_edges(length, cells, shift):
        """Cell edges less ``shift``, wrapped into [0, length), and the
        floats next to them."""
        edges = [float(np.mod(j * (length / cells) - shift, length)) for j in range(cells)]
        return st.sampled_from([v for v in ulp_around(edges)
                                if 0.0 <= v < length] or [0.0])

    def coord(length, cells):
        edge = st.sampled_from([0.0, length, float(np.nextafter(length, 0.0)), 0.5 * length])
        return st.one_of(edge, st.floats(0.0, length), on_edges(length, cells, 0.0))

    # uniform coordinates, some replaced by drawn ones
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = rng.uniform(0.0, width, n), rng.uniform(0.0, height, n)
    picked = draw(st.lists(st.tuples(st.integers(0, n - 1), coord(width, nx),
                                     coord(height, ny)),
                           max_size=min(n, 30)))
    for i, x, y in picked:
        xs[i], ys[i] = x, y
    xs, ys = xs.tolist(), ys.tolist()
    classes = rng.integers(-2, 5, n)
    w, h = draw(side(width, nx)), draw(side(height, ny))
    anchor_x = st.one_of(st.sampled_from([0.0, below, *xs]), st.floats(0.0, below),
                         on_edges(width, nx, 0.0), on_edges(width, nx, w))
    anchor_y = st.one_of(st.floats(0.0, float(np.nextafter(height, 0.0))),
                         on_edges(height, ny, 0.0), on_edges(height, ny, h))
    anchors = draw(st.lists(st.tuples(anchor_x, anchor_y), min_size=1, max_size=20))
    return point_field(width, height, xs, ys, classes), np.array(anchors), w, h


class TestWindowIndex:
    """Counting through the field's cell index must reproduce the dense
    membership test exactly."""

    @pytest.mark.parametrize("width,height", [(1.0, 1.0), (2.5, 0.7)])
    @pytest.mark.parametrize("w_frac", [1.0, 1e-12, 0.3])
    def test_domain_edges(self, width, height, w_frac):
        below = float(np.nextafter(width, 0.0))
        w = w_frac * width
        anchors_x = [0.0, below, 0.5 * width, 1e-300]
        xs = [0.0, width, below, 5e-324, 0.5 * width]
        # particles one ulp either side of every strip edge
        for a in anchors_x:
            for edge in (a, np.mod(a + w, width)):
                xs += [float(np.nextafter(edge, -np.inf)), edge,
                       float(np.nextafter(edge, np.inf))]
        xs = [x for x in xs if 0.0 <= x <= width]
        ys = [0.1 * height] * len(xs)
        ys[:2] = [0.0, height]
        field = point_field(width, height, xs, ys, [i % 2 for i in range(len(xs))])
        anchors = np.array([[a, 0.05 * height] for a in anchors_x]
                           + [[a, float(np.nextafter(height, 0.0))] for a in anchors_x])
        for h in (height, 0.5 * height):
            got = window_counts(field, anchors, w, h, 2)
            np.testing.assert_array_equal(got, dense_window_counts(field, anchors, w, h, 2))

    @pytest.mark.parametrize("width,height", [(1.0, 1.0), (0.7, 2.5)])
    @pytest.mark.parametrize("h_frac", [1.0, 1e-12, 0.3])
    def test_row_edges(self, width, height, h_frac):
        """test_domain_edges on the rows: centres one ulp either side of every
        window edge and every row edge of the index, and exactly at H."""
        below = float(np.nextafter(height, 0.0))
        h = h_frac * height
        anchors_y = [0.0, below, 0.5 * height, 1e-300]
        # radius 0.12 fixes the grid at floor(side / 0.24) cells per axis
        radius = 0.12
        ny = int(height // (2.0 * radius))
        edges = anchors_y + [float(np.mod(a + h, height)) for a in anchors_y]
        ys = [0.0, height, below, 5e-324, 0.5 * height]
        ys += ulp_around(edges + [j * (height / ny) for j in range(ny + 1)])
        ys = [y for y in ys if 0.0 <= y <= height]
        ys += [height * (i + 0.5) / 100 for i in range(100)]  # n >= 100: up to 11 cells
        xs = [(0.37 * i) % width for i in range(len(ys))]
        field = point_field(width, height, xs, ys, [i % 2 for i in range(len(ys))], radius)
        assert field.cell_grid[1] == ny
        anchors = np.array([[0.05 * width, a] for a in anchors_y]
                           + [[float(np.nextafter(width, 0.0)), a] for a in anchors_y])
        for w in (width, 0.5 * width):
            got = window_counts(field, anchors, w, h, 2)
            np.testing.assert_array_equal(got, dense_window_counts(field, anchors, w, h, 2))

    @pytest.mark.parametrize("radius,cells", [(0.3, 1), (0.2, 2)])
    @pytest.mark.parametrize("side", [1e-12, 0.3, 0.55, 0.999, 1.0])
    def test_coarse_grid(self, radius, cells, side):
        """1 or 2 cells per axis: a widened window's column and row runs
        wrap onto cells they already hold, and must take each once."""
        rng = derived_rng(12)
        n = 300
        xs = np.concatenate([rng.uniform(0.0, 1.0, n), [0.0, 0.5, 1.0]])
        ys = np.concatenate([rng.uniform(0.0, 1.0, n), [1.0, 0.5, 0.0]])
        field = point_field(1.0, 1.0, xs, ys, rng.integers(0, 3, n + 3), radius)
        assert field.cell_grid == (cells, cells)
        anchors = np.column_stack([rng.uniform(0.0, 1.0, 60), rng.uniform(0.0, 1.0, 60)])
        anchors[:4] = [[0.0, 0.0], [0.5, 0.5], [np.nextafter(1.0, 0.0)] * 2, [0.25, 0.75]]
        got = window_counts(field, anchors, side, side, 3)
        np.testing.assert_array_equal(got, dense_window_counts(field, anchors, side, side, 3))

    def test_classes_outside_k_are_not_counted(self):
        rng = derived_rng(13)
        xs, ys = rng.uniform(0.0, 2.5, 400), rng.uniform(0.0, 0.7, 400)
        classes = rng.choice([-3, -1, 0, 1, 2, 7], 400)
        field = point_field(2.5, 0.7, xs, ys, classes)
        anchors = np.column_stack([rng.uniform(0.0, 2.5, 50), rng.uniform(0.0, 0.7, 50)])
        for k in (1, 2):
            got = window_counts(field, anchors, 0.8, 0.3, k)
            np.testing.assert_array_equal(got, dense_window_counts(field, anchors, 0.8, 0.3, k))
        assert window_counts(field, anchors, 2.5, 0.7, 2).sum(axis=1).tolist() == [
            int(np.isin(classes, [0, 1]).sum())] * 50

    def test_windows_and_transects_share_one_index(self, two_particle_table, monkeypatch):
        """One field is sorted once, into one column index, whichever sampler
        asks first."""
        built = []
        init = fields.CellStrips.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(fields.CellStrips, "__init__", counting_init)
        table = ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0], [0.01, 0.01])
        field = generate_field(
            ProcessParams(variant="poisson", width=2.5, height=0.7, mixing=(0.5, 0.5),
                          intensity=400.0), table, seed=3)
        anchors = np.array([[0.1, 0.2], [2.4, 0.6]])
        starts, angles = np.array([[0.5, 0.1], [1.0, 0.6]]), np.array([0.3, 1.4])
        window_counts(field, anchors, 0.2, 0.1, 2)
        assert len(built) == 1
        intersect_segments(field, starts, angles, 0.5)
        window_counts(field, anchors, 0.3, 0.2, 2)
        intersect_segments(field, starts, angles, 1.0)
        field.gap_violations(0.0)
        assert len(built) == 1
        assert built[0][0] is field.x and built[0][1] is field.y
        assert field.column_strips is field.column_strips

        built.clear()
        calibrate_against_oracle(
            [("cluster", ProcessParams(variant="matern_cluster", width=1.0, height=1.0,
                                       mixing=(0.5, 0.5), parent_intensity=40.0,
                                       offspring_mean=10.0, cluster_radius=0.05))],
            table, window=(0.1, 0.1), replicates=20,
            transects=TransectSpec(count=10, length=0.5), master_seed=1, n_seeds=3,
        )
        assert len(built) == 3  # one field per seed, one sort per field

    @settings(deadline=None, max_examples=200)
    @given(case=window_cases())
    # a particle at y = H lies in the last row, which the window [H/2, H)
    # covers; mod(H - H/2, H) = H/2 is not below h = H/2
    @example(case=(point_field(1.0, 1.0, [0.0, 0.7, 0.3], [1.0, 0.6, 0.2], [0, 1, 1]),
                   np.array([[0.0, 0.5]]), 1.0, 0.5))
    def test_matches_dense_reference(self, case):
        field, anchors, w, h = case
        got = window_counts(field, anchors, w, h, 3)
        np.testing.assert_array_equal(got, dense_window_counts(field, anchors, w, h, 3))

    def test_interior_is_counted_without_a_test(self, monkeypatch):
        """A window 3 or more cells wide sends fewer particles through the
        membership test than it holds, and counts them all."""
        tested = []
        membership = selection._window_membership

        def counting(x, *args):
            tested.append(len(x))
            return membership(x, *args)

        monkeypatch.setattr(selection, "_window_membership", counting)
        rng = derived_rng(14)
        field = point_field(1.0, 1.0, rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 1.0, 2000),
                            rng.integers(0, 2, 2000))
        assert field.cell_grid == (45, 45)
        anchors = rng.uniform(0.0, 1.0, (40, 2))
        got = window_counts(field, anchors, 0.2, 0.3, 2)
        np.testing.assert_array_equal(got, dense_window_counts(field, anchors, 0.2, 0.3, 2))
        assert 0 < sum(tested) < got.sum() / 2

    @pytest.mark.parametrize("side", [0.05, 0.6, 1.0])
    def test_cluster_field_many_windows(self, two_particle_table, side):
        """Clustered field, enough windows to span several candidate batches."""
        field = generate_field(
            ProcessParams(variant="matern_cluster", width=2.5, height=0.7,
                          mixing=(0.5, 0.5), parent_intensity=200.0,
                          offspring_mean=20.0, cluster_radius=0.02),
            two_particle_table, seed=5,
        )
        rng = derived_rng(9)
        anchors = np.column_stack([rng.uniform(0.0, 2.5, 300), rng.uniform(0.0, 0.7, 300)])
        w, h = side * 2.5, side * 0.7
        np.testing.assert_array_equal(
            window_counts(field, anchors, w, h, 2),
            dense_window_counts(field, anchors, w, h, 2),
        )

    def test_replicate_counts_use_the_same_anchors(self, two_particle_table):
        """run_replicates draws every anchor x, then every anchor y, from the
        replicate stream and counts exactly those windows."""
        field = generate_field(
            ProcessParams(variant="poisson", width=2.5, height=0.7, mixing=(0.5, 0.5),
                          intensity=400.0),
            two_particle_table, seed=3,
        )
        design = SelectionDesign.window(field, 0.2, 0.1)
        stats, _ = run_replicates(design, two_particle_table, r=500, seed=4)
        rng = derived_rng(4)
        anchors = np.column_stack([rng.uniform(0.0, 2.5, 500), rng.uniform(0.0, 0.7, 500)])
        np.testing.assert_array_equal(
            stats.counts, dense_window_counts(field, anchors, 0.2, 0.1, 2)
        )


class TestReplicateAggregation:
    def test_per_replicate_population_rows_match_shared_population(self, rng):
        pop = np.array([7, 1, 0, 1_000_003])
        counts = rng.integers(0, pop + 1, size=(40, 4))
        shared = pair_fractions(counts, pop)
        per_row = pair_fractions(counts, np.tile(pop, (40, 1)))
        for a, b in zip(shared, per_row):
            assert a.tobytes() == b.tobytes()

    def test_per_replicate_population_nan_pattern(self):
        pops = np.array([[0, 5], [1, 5], [2, 5], [3, 1]])
        counts = np.array([[0, 2], [1, 3], [2, 0], [1, 1]])
        f1, f2 = pair_fractions(counts, pops)
        np.testing.assert_array_equal(np.isnan(f1), pops == 0)
        assert f1[1, 0] == 1.0 and f1[3, 1] == 1.0
        nan_diag = np.isnan(np.diagonal(f2, axis1=1, axis2=2))
        np.testing.assert_array_equal(nan_diag, pops < 2)
        np.testing.assert_array_equal(np.isnan(f2[:, 0, 1]), [True, False, False, False])
        np.testing.assert_array_equal(f2[:, 0, 1], f2[:, 1, 0])
        assert f2[2, 0, 0] == 1.0 and f2[2, 0, 1] == 0.0 and f2[3, 0, 1] == 1.0 / 3.0

    def test_summary_guards(self, two_particle_table):
        one_nonempty = ReplicateStats.from_counts(np.array([[0, 0], [1, 0], [0, 0]]),
                                                  two_particle_table)
        assert one_nonempty.n_empty == 2
        assert np.isnan([one_nonempty.v_e, one_nonempty.v_e_se,
                         one_nonempty.mean_cs]).all()
        assert np.isfinite(one_nonempty.mass_cv)
        all_empty = ReplicateStats.from_counts(np.zeros((3, 2), dtype=np.int64),
                                               two_particle_table)
        assert all_empty.n_empty == 3 and np.isnan(all_empty.mass_cv)


def direct_summaries(counts, table):
    """Reference: ``ReplicateStats.from_counts`` evaluated replicate by
    replicate, in Python floats, with the module's operation order (sums
    added left to right from 0), c_s exactly the classes' concentration
    when they share one; the aggregates as in the module."""
    m, conc = table.masses.tolist(), table.concentrations.tolist()
    common = len(set(conc)) == 1
    mass, cs = [], []
    for row in counts.tolist():
        total = analyte = 0.0
        for n_u, m_u, c_u in zip(row, m, conc):
            total = total + n_u * m_u
            analyte = analyte + n_u * (m_u * c_u)
        mass.append(total)
        cs.append(np.nan if total <= 0 else conc[0] if common else analyte / total)
    mass, cs = np.array(mass), np.array(cs)
    cs_ok = cs[mass > 0]
    if len(cs_ok) >= 2:
        moments = (float(np.var(cs_ok, ddof=1)), variance_se(cs_ok), float(cs_ok.mean()))
    else:
        moments = (np.nan, np.nan, np.nan)
    mass_cv = float(mass.std(ddof=1) / mass.mean()) if mass.mean() > 0 else np.nan
    return mass, cs, moments, mass_cv, int((mass <= 0).sum())


def direct_variance(estimator, row, mass, cs, table, c):
    """Reference: one replicate's moment or Horvitz-Thompson variance."""
    m, conc, k = table.masses.tolist(), table.concentrations.tolist(), table.k
    if estimator == "moment":
        dev = [c_u - cs for c_u in conc]
        gy = 0.0
        for u in range(k):
            gy = gy + row[u] * (m[u] * m[u]) * dev[u] * dev[u]
        a = [row[u] * m[u] * dev[u] for u in range(k)]
        corr = 0.0
        for i in range(k):
            for j in range(k):
                corr = corr + (a[i] * c[i, j]) * a[j]
        return (gy - corr) / (mass * mass)
    if np.any(c >= 1.0):
        return np.nan
    first = 0.0
    for u in range(k):
        first = first + row[u] * (m[u] * m[u] * conc[u] * conc[u] / (1.0 - c[u, u]))
    w = [row[u] * (m[u] * conc[u]) for u in range(k)]
    ratio = c / (1.0 - c)
    second = 0.0
    for i in range(k):
        for j in range(k):
            second = second + (w[i] * ratio[i, j]) * w[j]
    return (first - second) / (mass * mass)


def direct_comparison(counts, est, table):
    """Reference: ``compare_estimators`` evaluated replicate by replicate,
    the R-length means as numpy takes them and the mean count row exact,
    rounded once (Python's int division); None when it must raise.  Each
    row comes with the largest |per-replicate value| of its mean, the
    scale of its floor in ``SUMMARY_FLOORS``."""
    mass, cs, (v_e, v_e_se, _), _, _ = direct_summaries(counts, table)
    ok = mass > 0
    if ok.sum() < 2:
        return None
    c_emp = np.where(np.isnan(est.c_hat), 0.0, est.c_hat)
    kept = counts[ok].tolist()
    mean_counts = np.array([sum(column) / len(kept) for column in zip(*kept)])
    exp = derive_expectation(mean_counts, table)
    rows = []
    for estimator in ("moment", "horvitz_thompson"):
        for dep, c in (("zero", np.zeros((table.k, table.k))), ("empirical", c_emp)):
            per_rep = [
                direct_variance(estimator, row, m_s, c_s, table, c)
                for row, m_s, c_s in zip(counts[ok].astype(float).tolist(), mass[ok], cs[ok])
            ]
            one = direct_variance(estimator, mean_counts.tolist(), exp.mass,
                                  exp.concentration, table, c)
            scale = float(np.max(np.abs(per_rep)))
            for mode, value in (("replicate_mean", float(np.mean(per_rep))),
                                ("mean_summary", float(one))):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.float64(value) / v_e if v_e else np.nan
                    z = (np.float64(value) - v_e) / v_e_se if v_e_se else np.nan
                rows.append((ComparisonRow(estimator, dep, mode, value, v_e,
                                           float(ratio), float(z)), scale))
    return rows


#: Relative tolerance of the multiplicity-weighted aggregates (``v_e``,
#: ``v_e_se``, ``mean_cs``, ``mass_cv`` and the ``replicate_mean`` values)
#: against the per-replicate reference.  Both sum the same terms in
#: different orders (each distinct row's term times its multiplicity, and
#: one term per replicate), so they agree to rounding.
SUMMARY_RTOL = 1e-9
#: Absolute floors, in units of each value's input scale: the largest
#: |c_s| for ``mean_cs``, its square for ``v_e`` and ``v_e_se``, the
#: largest mass over the mean mass for ``mass_cv``, and the largest
#: |per-replicate value| for a replicate mean.  A variance near 0 sums
#: squared deviations from a mean that rounding moves by about 1e-16 of
#: the scale; a standard error of the variance is a difference of fourth
#: moments, good only to about the square root of that.
SUMMARY_FLOORS = {"mean_cs": 1e-12, "v_e": 1e-12, "v_e_se": 1e-7, "mass_cv": 1e-12,
                  "replicate_mean": 1e-12}


def summary_tolerance(name, want, scale):
    """The allowed |got - want| of aggregate ``name`` (NaN for a NaN ``want``)."""
    return SUMMARY_RTOL * abs(want) + SUMMARY_FLOORS[name] * scale


def assert_close(name, got, want, tol):
    """``got`` is NaN where ``want`` is, and within ``tol`` of it elsewhere."""
    if np.isnan(want):
        assert np.isnan(got), (name, got, want)
    else:
        assert abs(got - want) <= tol, (name, got, want, tol)


def assert_summaries_close(stats, counts, table):
    """``stats`` against ``direct_summaries`` of the replicate ``counts``:
    each distinct row's mass and c_s and ``n_empty`` bit for bit, the
    aggregates to SUMMARY_RTOL and SUMMARY_FLOORS.  Returns each
    aggregate's (reference value, tolerance) by name."""
    mass, cs, (v_e, v_e_se, mean_cs), mass_cv, n_empty = direct_summaries(counts, table)
    assert same_bits(stats.mass[stats.inverse], mass)
    assert same_bits(stats.cs[stats.inverse], cs) and stats.n_empty == n_empty
    cs_scale = float(np.abs(cs[mass > 0]).max(initial=0.0))
    mass_scale = float(mass.max() / mass.mean()) if mass.mean() > 0 else 0.0
    bands = {}
    for name, got, want, scale in (
        ("mean_cs", stats.mean_cs, mean_cs, cs_scale), ("v_e", stats.v_e, v_e, cs_scale**2),
        ("v_e_se", stats.v_e_se, v_e_se, cs_scale**2),
        ("mass_cv", stats.mass_cv, mass_cv, mass_scale),
    ):
        bands[name] = want, summary_tolerance(name, want, scale)
        assert_close(name, got, want, bands[name][1])
    return bands


def assert_comparison_close(report, expected, bands):
    """``report`` against the rows of ``direct_comparison``: mean-summary
    values bit for bit, replicate means to SUMMARY_RTOL and their floor,
    and the v_e, ratio and z columns within what the tolerances of the
    value and of v_e and v_e_se (``bands``, from
    :func:`assert_summaries_close`) allow.  A ratio or z whose
    denominator's tolerance reaches 0 is not compared."""
    (_, tol_v_e), (v_e_se, tol_se) = bands["v_e"], bands["v_e_se"]
    for got, (want, scale) in zip(report.rows, expected, strict=True):
        assert dataclasses.astuple(got)[:3] == dataclasses.astuple(want)[:3]
        if want.mode == "mean_summary":
            assert same_bits(got.value, want.value), (got, want)
            tol_value = 0.0
        else:
            tol_value = summary_tolerance("replicate_mean", want.value, scale)
            assert_close("value", got.value, want.value, tol_value)
        assert_close("v_e", got.v_e, want.v_e, tol_v_e)
        # |a'/b' - a/b| <= (|a' - a| + |a/b| |b' - b|) / (|b| - |b' - b|)
        for name, quotient, numerator_tol, den, den_tol in (
            ("ratio", want.ratio, tol_value, want.v_e, tol_v_e),
            ("z", want.z, tol_value + tol_v_e, v_e_se, tol_se),
        ):
            if abs(den) > den_tol:
                bound = (numerator_tol + abs(quotient) * den_tol) / (abs(den) - den_tol)
                assert_close(name, getattr(got, name), quotient,
                             bound + SUMMARY_RTOL * abs(quotient))


def same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@st.composite
def count_cases(draw):
    """(R, K) replicate counts with repeated rows and a class table: empty
    replicates, all-equal rows, all-distinct rows, K = 1 and counts whose
    mixed-radix codes overflow int64 all come up."""
    k = draw(st.integers(1, 4))
    r = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(["pool", "equal", "distinct", "huge"]))
    if shape == "huge":
        pool = np.array(draw(st.lists(
            st.lists(st.integers(0, 2**62), min_size=k, max_size=k), min_size=1, max_size=5
        )), dtype=np.int64)
    else:
        pool = np.array(draw(st.lists(
            st.lists(st.integers(0, 6), min_size=k, max_size=k), min_size=1, max_size=8
        )), dtype=np.int64)
    if shape == "equal":
        counts = np.repeat(pool[:1], r, axis=0)
    elif shape == "distinct":
        counts = np.array([[i] + [int(v) for v in pool[i % len(pool), 1:]]
                           for i in range(r)], dtype=np.int64)
    else:
        counts = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=r, max_size=r))]
    table = ClassTable.from_arrays(
        draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)),
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)), min_size=k, max_size=k)),
    )
    return counts, table


class TestDistinctRows:
    def test_codes_and_inverse(self):
        counts = np.array([[2, 0], [0, 1], [2, 0], [0, 0], [0, 1]])
        distinct, multiplicity, inverse = distinct_rows(counts)
        assert distinct.dtype == counts.dtype
        np.testing.assert_array_equal(distinct, [[0, 0], [0, 1], [2, 0]])
        np.testing.assert_array_equal(multiplicity, [1, 2, 2])
        np.testing.assert_array_equal(distinct[inverse], counts)

    def test_overflowing_radix_or_float_counts_make_every_row_distinct(self):
        for counts in (np.array([[2**40, 2**40], [2**40, 2**40]]),
                       np.array([[2.0**60, 1.0], [2.0**60, 0.0]])):
            distinct, multiplicity, inverse = distinct_rows(counts)
            np.testing.assert_array_equal(distinct, counts)
            np.testing.assert_array_equal(multiplicity, [1, 1])
            np.testing.assert_array_equal(inverse, [0, 1])

    def test_negative_count_is_refused_with_its_row(self, two_particle_table):
        """Codes of rows with a negative count collide with valid codes
        ([1, -1] and [0, 2] are both 2 in base 3), so they are refused."""
        counts = np.array([[0, 2], [1, -1], [0, 2], [-3, 0]])
        with pytest.raises(ValueError, match=r"row 1 is \[1, -1\]"):
            distinct_rows(counts)
        for groups in (None, 2):
            with pytest.raises(ValueError, match=r"row 1 is \[1, -1\]"):
                ReplicateStats.from_counts(counts, two_particle_table, groups=groups)
        with pytest.raises(ValueError, match=r"row 0 is \[-0.5, 0.0\]"):
            distinct_rows(np.array([[-0.5, 0.0]]))

    @pytest.mark.parametrize("bases", [
        (16, 16), (257,), (256, 256), (65537,), (65536, 65536), (641, 6700417),
        (7, (2**63 - 1) // 7),
    ], ids=["2^8", "2^8+1", "2^16", "2^16+1", "2^32", "2^32+1", "2^63-1"])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_code_dtype_boundaries(self, bases, dtype):
        """Around each unsigned width the product of the bases crosses, the
        distinct rows are those of int64 codes through ``np.unique``.  Codes
        0, prod - 2 and prod - 1 are all drawn, so codes that wrapped in too
        narrow a dtype, or were rounded as floats, would merge rows."""
        rng = derived_rng(len(bases) * 1000 + bases[-1] % 1000)
        top = np.array(bases) - 1
        pool = np.vstack([np.zeros_like(top), top, top - np.eye(len(bases), dtype=int)[-1],
                          [[int(rng.integers(0, b)) for b in bases] for _ in range(30)]])
        counts = pool[rng.integers(0, len(pool), size=400)].astype(dtype)
        counts[:3] = pool[:3]
        place = [math.prod(bases[u + 1:]) for u in range(len(bases))]
        codes = np.array([sum(int(c) * p for c, p in zip(row, place)) for row in counts.tolist()],
                         dtype=np.int64)
        assert codes.max() == math.prod(bases) - 1
        _, want_first, want_inverse, want_counts = np.unique(
            codes, return_index=True, return_inverse=True, return_counts=True)
        distinct, multiplicity, inverse = distinct_rows(counts)
        assert distinct.dtype == counts.dtype
        np.testing.assert_array_equal(distinct, counts[want_first])
        np.testing.assert_array_equal(multiplicity, want_counts)
        np.testing.assert_array_equal(inverse, want_inverse)

    def test_code_dtype_int64_overflow_fallback(self):
        """Bases whose product passes int64 make every row its own distinct
        row; those rows, distinct and in increasing order, are also what
        ``np.unique`` makes of them."""
        counts = np.array([[0, 0], [0, 2**62], [1, 5], [1, 2**62]], dtype=np.int64)
        assert math.prod(int(b) + 1 for b in counts.max(axis=0)) > np.iinfo(np.int64).max
        want, want_inverse, want_counts = np.unique(counts, axis=0, return_inverse=True,
                                                    return_counts=True)
        distinct, multiplicity, inverse = distinct_rows(counts)
        np.testing.assert_array_equal(distinct, want)
        np.testing.assert_array_equal(multiplicity, want_counts)
        np.testing.assert_array_equal(inverse, want_inverse.ravel())

    @settings(deadline=None, max_examples=300)
    @given(case=count_cases())
    def test_distinct_row_path_matches_direct_evaluation(self, case):
        counts, table = case
        distinct, multiplicity, inverse = distinct_rows(counts)
        np.testing.assert_array_equal(distinct[inverse], counts)
        np.testing.assert_array_equal(multiplicity, np.bincount(inverse))
        assert len({tuple(row) for row in distinct.tolist()}) == len(distinct) or (
            np.array_equal(inverse, np.arange(len(counts)))
        )

        stats = ReplicateStats.from_counts(counts, table)
        bands = assert_summaries_close(stats, counts, table)

        pop = counts.max(axis=0) + 1
        est = inclusion_from_fractions(*pair_fractions(counts, pop))
        expected = direct_comparison(counts, est, table)
        if expected is None:
            with pytest.raises(EmptySampleError):
                compare_estimators(stats, est, table)
            return
        # the empty replicates stay out: nothing divides by a zero mass
        with np.errstate(divide="raise", invalid="raise"):
            report = compare_estimators(stats, est, table)
        assert_comparison_close(report, expected, bands)


def reference_inclusion(f1, f2):
    """Reference: the per-replicate aggregation that ``inclusion_from_fractions``
    replaced, cell by cell, with finiteness masks and ``np.cov``."""
    r, k = f1.shape
    pi1, pi1_se = np.full(k, np.nan), np.full(k, np.nan)
    pi2, pi2_se = np.full((k, k), np.nan), np.full((k, k), np.nan)
    c_hat, c_se = np.full((k, k), np.nan), np.full((k, k), np.nan)
    with warnings.catch_warnings():
        # std(ddof=1) of a single value gives NaN, with a warning
        warnings.simplefilter("ignore", RuntimeWarning)
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
            pi2_se[u, v] = pi2_se[v, u] = pair.std(ddof=1) / np.sqrt(n_used)
            if np.isnan(pi1[u]) or np.isnan(pi1[v]) or pi1[u] == 0 or pi1[v] == 0:
                continue
            a, b, c = pi2[u, v], pi1[u], pi1[v]
            c_hat[u, v] = c_hat[v, u] = 1.0 - a / (b * c)
            if u == v:
                grad = np.array([-1.0 / (b * b), 2.0 * a / b**3])
                cov = np.cov(np.vstack([pair, f1[mask, u]]), ddof=1) / n_used
            else:
                grad = np.array([-1.0 / (b * c), a / (b * b * c), a / (b * c * c)])
                cov = np.cov(np.vstack([pair, f1[mask, u], f1[mask, v]]), ddof=1) / n_used
            c_se[u, v] = c_se[v, u] = np.sqrt(max(float(grad @ cov @ grad), 0.0))
    return InclusionEstimate(pi1, pi1_se, pi2, pi2_se, c_hat, c_se, r)


#: Relative tolerance of the weighted inclusion pass against the
#: per-replicate reference.  Both sum the same terms in different orders
#: (distinct rows times multiplicities, and influence values instead of a
#: covariance matrix), so they agree to rounding.
INCLUSION_RTOL = 1e-9
#: Absolute floors, in units of each value's input scale: 1 for fractions,
#: and the delta-method gradient's size for c_hat and its standard error.
#: The reference forms c_hat_se^2 as grad' cov grad, which cancels to about
#: 1e-16 of the squared scale, so its SE is only good to the square root of
#: that (seen: 8.4e-9 where the exact value is 0).
INCLUSION_FLOORS = {"pi1": 1e-12, "pi1_se": 1e-12, "pi2": 1e-12, "pi2_se": 1e-12,
                    "c_hat": 1e-12, "c_hat_se": 1e-7}


def assert_inclusion_close(got, want):
    """``got`` has ``want``'s NaN cells and agrees elsewhere to INCLUSION_RTOL."""
    b = want.pi1[:, None] * want.pi1[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        gradient = np.abs(1.0 / b) * (1.0 + 2.0 * np.abs(want.pi2) / np.minimum.outer(
            want.pi1, want.pi1))
    for name, floor in INCLUSION_FLOORS.items():
        a, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(np.isnan(a), np.isnan(w)), name
        scale = np.broadcast_to(gradient if name.startswith("c_") else 1.0, w.shape)
        ok = ~np.isnan(w)
        assert np.all(np.abs(a - w)[ok] <= (INCLUSION_RTOL * np.abs(w) + floor * scale)[ok]), \
            (name, a, w)


class TestRunReplicatesDistinctRows:
    @settings(deadline=None, max_examples=60)
    @given(case=pairwise_cases(), seed=st.integers(0, 2**31), r=st.integers(2, 300))
    def test_matches_direct_evaluation(self, case, seed, r):
        """The estimate over distinct rows, weighted by multiplicity, is the
        per-replicate reference's to INCLUSION_RTOL; the summaries and the
        comparison are the direct evaluation's to SUMMARY_RTOL, each
        distinct row's mass and c_s and the mean-summary values bit for
        bit."""
        design, table = case
        try:
            stats, est = run_replicates(design, table, r=r, seed=seed)
        except ValueError:  # unnormalizable designs
            return
        pop = np.bincount(design.class_of, minlength=table.k)
        assert_inclusion_close(est, reference_inclusion(*pair_fractions(stats.counts, pop)))
        assert est.replicates == r == stats.replicates
        assert np.array_equal(stats.multiplicity, np.bincount(stats.inverse))
        bands = assert_summaries_close(stats, stats.counts, table)
        expected = direct_comparison(stats.counts, est, table)
        if expected is None:
            with pytest.raises(EmptySampleError):
                compare_estimators(stats, est, table)
        else:
            assert_comparison_close(compare_estimators(stats, est, table), expected, bands)


def assert_same_replicates(got, want):
    """Two (ReplicateStats, InclusionEstimate) pairs equal bit for bit."""
    (stats, est), (ref_stats, ref_est) = got, want
    for name in ("distinct", "multiplicity", "inverse"):
        a, b = getattr(stats, name), getattr(ref_stats, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("mass", "cs", "v_e", "v_e_se", "mean_cs", "mass_cv"):
        assert same_bits(getattr(stats, name), getattr(ref_stats, name)), name
    assert (stats.n_empty, stats.replicates, stats.groups) == (
        ref_stats.n_empty, ref_stats.replicates, ref_stats.groups)
    for f in dataclasses.fields(est):
        assert same_bits(getattr(est, f.name), getattr(ref_est, f.name)), f.name


def counts_path(design, table, r, seed):
    """Reference: the pairwise run through (R, K) counts and
    ``ReplicateStats.from_counts``, estimated as ``run_replicates`` does."""
    stats = ReplicateStats.from_counts(replicate_counts(design, table, r, seed), table)
    pop = np.bincount(design.class_of, minlength=table.k)
    return stats, inclusion_from_fractions(*pair_fractions(stats.distinct, pop),
                                           weights=stats.multiplicity)


def assert_same_comparison(got, want, table):
    try:
        expected = compare_estimators(*want, table)
    except EmptySampleError:
        with pytest.raises(EmptySampleError):
            compare_estimators(*got, table)
        return
    report = compare_estimators(*got, table)
    assert report.nan_dependence_cells == expected.nan_dependence_cells
    for a, b in zip(report.rows, expected.rows, strict=True):
        a, b = dataclasses.astuple(a), dataclasses.astuple(b)
        assert a[:3] == b[:3] and same_bits(a[3:], b[3:]), (a, b)


#: q = 1 for every class: the full selection is the only state of weight.
SINGLE_STATE_CASE = (
    SelectionDesign.pairwise_pmf([1.0, 1.0], [[2.0, 0.5], [0.5, 1.0]], [0, 1, 1]),
    ClassTable.from_arrays([1.0, 2.0], [1.0, 0.0]),
)


class TestStateIndexReplicates:
    """Pairwise runs keep their replicates as drawn state indices; they
    equal the run through (R, K) counts bit for bit."""

    @settings(deadline=None, max_examples=80)
    @given(case=pairwise_cases(), seed=st.integers(0, 2**31), r=st.integers(2, 300))
    @example(case=FORBIDDEN_EDGE_CASE, seed=3, r=2)
    @example(case=SINGLE_STATE_CASE, seed=4, r=2)
    @example(case=SINGLE_STATE_CASE, seed=5, r=50)
    def test_matches_counts_path(self, case, seed, r):
        design, table = case
        try:
            want = counts_path(design, table, r, seed)
        except ValueError:  # unnormalizable designs
            with pytest.raises(ValueError):
                run_replicates(design, table, r, seed)
            return
        seen = []
        decode = selection._ClassStates.decode

        def spy(states, index):
            seen.append(np.asarray(index))
            return decode(states, index)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection._ClassStates, "decode", spy)
            got = run_replicates(design, table, r, seed)
        # decode sees the state batches of the cdf and the distinct draws only
        assert all(np.unique(index).size == index.size for index in seen)
        assert seen[-1].size == len(got[0].distinct)
        assert_same_replicates(got, want)
        assert_same_comparison(got, want, table)

    def test_benchmark_shape(self):
        """20 particles in 3 classes, 1e5 replicates: the shape of the
        pairwise oracle benchmark."""
        rng = derived_rng(14)
        class_of = rng.permutation(np.arange(20) % 3)
        phi = rng.uniform(0.5, 1.5, size=(3, 3))
        phi = np.triu(phi) + np.triu(phi, 1).T
        design = SelectionDesign.pairwise_pmf(rng.uniform(0.2, 0.8, size=3), phi, class_of)
        table = ClassTable.from_arrays(rng.uniform(0.5, 2.0, size=3), rng.uniform(0.0, 1.5, size=3))
        got = run_replicates(design, table, 100_000, seed=7)
        want = counts_path(design, table, 100_000, seed=7)
        assert 1 < len(got[0].distinct) <= 7 * 8 * 8
        assert_same_replicates(got, want)
        assert_same_comparison(got, want, table)


def guide_buckets(states: int) -> int:
    """The guide table's bucket count for a cdf of ``states`` entries."""
    return min(max(1 << (8 * states - 1).bit_length(), 1 << 10), 1 << 16)


@st.composite
def cdf_cases(draw):
    """(cdf, last, u): a cdf of 1 to 4096 states whose largest weight is 1,
    with zero-weight runs at the start, in the middle and at the end, or
    one positive state, and sometimes a last positive weight too small to
    move the cdf; and draws u at 0, at 1, next to 1, and one and two ulps
    either side of every cdf entry and bucket edge (as fractions of Z)."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    w = rng.random(n) ** draw(st.sampled_from([1, 8, 40]))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        w[start:start + draw(st.integers(1, max(1, n // 3)))] = 0.0
    if draw(st.booleans()):
        w[:draw(st.integers(0, n - 1))] = 0.0
    if draw(st.booleans()):
        w[draw(st.integers(1, n)):] = 0.0
    if draw(st.booleans()) or not w.any():
        w[:] = 0.0
        w[draw(st.integers(0, n - 1))] = 1.0
    w /= w.max()
    if n > 1 and draw(st.booleans()):
        w[-1] = 1e-300  # positive, yet the cdf does not move
    cdf = np.cumsum(w)
    last = int(np.flatnonzero(w > 0)[-1])
    z, g = cdf[-1], guide_buckets(n)
    picks = rng.integers(0, n, min(n, 150))
    edges = rng.integers(0, g + 1, 150) * (z / g)
    near = np.concatenate([cdf[picks], edges]) / z
    for _ in range(2):
        near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, 2.0)])
    u = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0)], near, rng.random(200)])
    return cdf, last, rng.permutation(np.clip(u, 0.0, 1.0))


class TestPairwiseKernels:
    """The guide-table draw and the tally of distinct codes equal what they
    replaced, and the mean counts are exact, bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(case=cdf_cases())
    def test_guide_table_matches_searchsorted(self, case):
        cdf, last, u = case
        want = np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), last)
        for per_bucket in (0, 1):  # the table at every size, then from G draws on
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(selection, "_GUIDE_DRAWS_PER_BUCKET", per_bucket)
                got = selection._invert_cdf(cdf, last, u.copy())
                single = [selection._invert_cdf(cdf, last, u[i:i + 1].copy())[0]
                          for i in range(5)]
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert single == want[:5].tolist()

    def test_product_rounding_up_onto_a_bucket_edge(self, monkeypatch):
        """u = 0.6621093749999999 lies in bucket 677 of 1024, and u Z rounds
        up onto E_678, where the first cdf entry sits: that entry is <= t,
        so the draw is state 1, which a bracket closed at E_678 on the
        left side of ``searchsorted`` would miss."""
        z = 1.5118216247002567
        edge = 678 * (z / 1024)
        cdf = np.array([edge, z])
        u = np.array([0.6621093749999999])
        assert int(u[0] * 1024) == 677 and u[0] * z == edge
        monkeypatch.setattr(selection, "_GUIDE_DRAWS_PER_BUCKET", 0)
        assert selection._invert_cdf(cdf, 1, u).tolist() == [1]

    def test_benchmark_shape_draws_from_the_table(self):
        """On the pairwise oracle benchmark's shape (448 states, 1e5 draws)
        the table is built once and the draws equal the plain search."""
        rng = derived_rng(14)
        class_of = rng.permutation(np.arange(20) % 3)
        phi = rng.uniform(0.5, 1.5, size=(3, 3))
        design = SelectionDesign.pairwise_pmf(rng.uniform(0.2, 0.8, size=3),
                                              np.triu(phi) + np.triu(phi, 1).T, class_of)
        states = selection._ClassStates(design, 3)
        lw = states.log_weights(states.decode(np.arange(states.size)))
        assert np.array_equal(states.weights, np.exp(lw - lw.max()))
        assert states.last == np.flatnonzero(lw > -np.inf)[-1]
        cdf = np.cumsum(np.exp(lw - lw.max()))
        u = derived_rng(7).random(100_000)
        want = np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"),
                          np.flatnonzero(lw > -np.inf)[-1])
        tables = []
        guide_table = selection._guide_table

        def spy(*args):
            tables.append(guide_table(*args))
            return tables[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_guide_table", spy)
            got = states.draw(derived_rng(7), 100_000)
        assert len(tables) == 1 and len(tables[0]) == guide_buckets(448) + 1
        assert np.array_equal(got, want)
        # the draws that search the cdf are a small share
        assert np.mean(tables[0][(u * guide_buckets(448)).astype(np.intp)] < 0) < 0.1

    @pytest.mark.parametrize("r", [1, 2, 7, 300, 5000])
    def test_tally_matches_np_unique(self, r, monkeypatch):
        """Codes below a bound of R or R + 1, random, all equal and all at
        the bound's top: ``np.unique``'s values (and their dtype), inverse
        and counts, with ``np.unique`` called only above R."""
        rng = derived_rng(r)
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
        for bound in (r, r + 1):
            narrow = next(t for t in (np.uint8, np.uint16, np.uint32)
                          if bound - 1 <= np.iinfo(t).max)
            for codes in (rng.integers(0, bound, r), np.zeros(r, dtype=np.intp),
                          np.full(r, bound - 1)):
                want = unique(codes.astype(narrow), return_inverse=True, return_counts=True)
                calls.clear()
                got = selection._unique_codes(codes, bound)
                assert calls == ([] if bound <= r else [1])
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("grouped", [False, True], ids=["ungrouped", "grouped"])
    @pytest.mark.parametrize("size, top", [(6361, (2**53 - 1) // 6361), (3, (2**53 + 1) // 3)],
                             ids=["max_times_size_below_2^53", "above_2^53"])
    def test_mean_counts_match_the_gather(self, size, top, grouped):
        """Each run's distinct rows weighted by their multiplicities give
        the exact mean of the run's rows, rounded once, and below 2^53
        numpy's mean of the gathered float rows, bit for bit.  The first run
        holds ``top`` in class 0 on every row, so max x size is 2^53 - 1,
        summed as doubles, or 2^53 + 1, summed as Python integers; grouped
        runs of equal and unequal sizes."""
        distinct = np.array([[top, 0, 1], [top - 1, 5, 0], [1, top, 2]], dtype=np.int64)
        rng = derived_rng(size)
        for sizes in ([size], [size, size], [size, size - 1]) if grouped else ([size],):
            sizes = np.array(sizes)
            rows = rng.integers(0, 3, sizes.sum())
            rows[:size] = 0
            runs = np.split(rows, np.cumsum(sizes)[:-1])
            tallies = [np.unique(run, return_counts=True) for run in runs]
            got = selection._mean_counts(
                np.concatenate([distinct[used] for used, _ in tallies]),
                np.concatenate([tally for _, tally in tallies]),
                np.array([len(used) for used, _ in tallies]), sizes)
            exact = [[sum(int(distinct[i, u]) for i in run.tolist()) / len(run) for u in range(3)]
                     for run in runs]
            assert same_bits(got, exact)
            if top * size < 2**53:
                assert same_bits(got, [distinct.astype(float)[run].mean(axis=0) for run in runs])

    def test_pairwise_simulate_tree_keeps_its_digests(self, tmp_path):
        """``simulate`` on the pairwise oracle scenario (1e5 draws of a
        4-state design) takes the guide table, the tally and the exact
        mean counts, and writes the recorded bytes."""
        root = Path(__file__).resolve().parents[1]
        golden = json.loads((root / "tests" / "golden" / "example_scenarios.json").read_text())
        if (np.__version__, scipy.__version__) != (golden["numpy"], golden["scipy"]):
            pytest.skip("golden digests were recorded with other numpy and scipy versions")
        used = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_guide_table", "_unique_codes", "_mean_counts"):
                fn = getattr(selection, name)
                mp.setattr(selection, name, lambda *a, _fn=fn, _name=name:
                           used.append(_name) or _fn(*a))
            mp.setattr(np, "unique", lambda *a, **kw: pytest.fail("np.unique called"))
            assert cli_main(["simulate", "--config",
                             str(root / "scripts" / "scenarios" / "pairwise_oracle.json"),
                             "--out", str(tmp_path), "--threads", "1"]) == 0
        assert sorted(set(used)) == ["_guide_table", "_mean_counts", "_unique_codes"]
        got = {f"pairwise_oracle/simulate/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
        assert got == {key: v for key, v in golden["digests"].items()
                       if key.startswith("pairwise_oracle/simulate/")}


@st.composite
def grouped_runs(draw):
    """(runs, class table): 1-3 runs of per-replicate (populations, counts),
    with populations shared by a run or drawn per replicate, absent (0) and
    single-member (1) classes, empty replicates, and pair-free runs (counts
    capped at 1), whose diagonal cells estimate c = 1."""
    k = draw(st.integers(1, 3))
    runs, r = draw(st.integers(1, 3)), draw(st.integers(2, 20))
    shared = draw(st.booleans())
    cap = draw(st.sampled_from([1, 4]))
    out = []
    for _ in range(runs):
        pop_rows = st.lists(st.integers(0, 4), min_size=k, max_size=k)
        if shared:
            pops = np.tile(draw(pop_rows), (r, 1))
        else:
            pops = np.array(draw(st.lists(pop_rows, min_size=r, max_size=r)))
        counts = np.array([[draw(st.integers(0, min(p, cap))) for p in row] for row in pops])
        counts[draw(st.lists(st.integers(0, r - 1), max_size=2))] = 0
        out.append((pops.astype(np.int64), counts.astype(np.int64)))
    table = ClassTable.from_arrays(
        draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)),
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)), min_size=k, max_size=k)),
    )
    return out, table


class TestGroupedAggregation:
    @settings(deadline=None, max_examples=200)
    @given(case=grouped_runs(), grouped=st.booleans())
    def test_weighted_inclusion_matches_per_replicate_reference(self, case, grouped):
        """Each run's distinct (population, count) rows with their
        multiplicities, padded with weight-0 rows to a common length and
        estimated together, give each run's per-replicate reference."""
        runs, _ = case
        rows, weights = [], []
        for pops, counts in runs:
            distinct, multiplicity = np.unique(np.hstack([pops, counts]), axis=0,
                                               return_counts=True)
            rows.append(distinct)
            weights.append(multiplicity)
        size = max(len(d) for d in rows)
        rows = np.concatenate([np.vstack([d, np.repeat(d[:1], size - len(d), axis=0)])
                               for d in rows])
        weights = np.concatenate([np.pad(m, (0, size - len(m))) for m in weights])
        k = runs[0][0].shape[1]
        groups = len(runs) if grouped or len(runs) > 1 else None
        est = inclusion_from_fractions(*pair_fractions(rows[:, k:], rows[:, :k]),
                                       weights, groups)
        for g, (pops, counts) in enumerate(runs):
            got = est if groups is None else InclusionEstimate(
                *(getattr(est, f.name)[g] for f in dataclasses.fields(est)))
            assert_inclusion_close(got, reference_inclusion(*pair_fractions(counts, pops)))
            assert got.replicates == len(counts)

    @settings(deadline=None, max_examples=200)
    @given(case=grouped_runs())
    def test_grouped_pass_equals_each_run_alone(self, case):
        """Summaries, estimates and comparisons of stacked runs equal those of
        each run aggregated alone, bit for bit, empty replicates included.
        A run's summaries alone are taken as a group of one, whose rows
        are its replicates with unit weights; ungrouped, its distinct rows
        would sum in another order."""
        runs, table = case
        pops, counts = (np.concatenate(parts) for parts in zip(*runs))
        g = len(runs)
        stats = ReplicateStats.from_counts(counts, table, groups=g)
        est = inclusion_from_fractions(*pair_fractions(counts, pops), groups=g)
        alone = []
        for run_pops, run_counts in runs:
            run_stats = ReplicateStats.from_counts(run_counts, table, groups=1)
            alone.append((run_stats, inclusion_from_fractions(
                *pair_fractions(run_counts, run_pops))))
        for name in ("v_e", "v_e_se", "mean_cs", "mass_cv"):
            assert same_bits(getattr(stats, name),
                             np.concatenate([getattr(s, name) for s, _ in alone])), name
        assert stats.n_empty == sum(s.n_empty for s, _ in alone)
        for f in dataclasses.fields(est):
            assert same_bits(getattr(est, f.name), [getattr(e, f.name) for _, e in alone]), f
        try:
            expected = [compare_estimators(s, e, table) for s, e in alone]
        except EmptySampleError:
            with pytest.raises(EmptySampleError):
                compare_estimators(stats, est, table)
            return
        report = compare_estimators(stats, est, table)
        assert same_bits(report.nan_dependence_cells,
                         np.concatenate([r.nan_dependence_cells for r in expected]))
        for i, row in enumerate(report.rows):
            assert (row.estimator, row.dependence, row.mode) == dataclasses.astuple(
                expected[0].rows[i])[:3]
            for name in ("value", "v_e", "ratio", "z"):
                assert same_bits(getattr(row, name),
                                 np.concatenate([getattr(r.rows[i], name) for r in expected])), \
                    (row, name)


def old_variance_se(values):
    """Reference: ``variance_se`` before the fourth moment became (c c)(c c)."""
    n = len(values)
    if n < 4:
        return np.nan
    centered = values - values.mean()
    s2 = centered @ centered / (n - 1)
    m4 = (centered**4).mean()
    return float(np.sqrt(max((m4 - s2 * s2 * (n - 3) / (n - 1)) / n, 0.0)))


class TestVarianceSe:
    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300))
    def test_matches_the_power_formula(self, values):
        """Within 1e-12 of the former formula, relative to the variance's
        scale, along the last axis of a stack too."""
        values = np.array(values)
        got, want = variance_se(values), old_variance_se(values)
        if np.isnan(want):
            assert np.isnan(got)
            return
        scale = float(np.mean((values - values.mean()) ** 2)) / np.sqrt(len(values))
        assert abs(got - want) <= 1e-12 * max(want, scale)
        np.testing.assert_array_equal(variance_se(np.vstack([values, values])), [got, got])


class TestEmpiricalDependence:
    def test_independent_design_covers_zero(self, two_particle_table):
        design = SelectionDesign.bernoulli([0.3, 0.3], [0] * 6 + [1] * 6)
        _, est = run_replicates(design, two_particle_table, r=100_000, seed=77)
        dep = empirical_dependence(est)
        assert dep.covers_zero()[0, 1]
        assert dep.covers_zero()[0, 0]

    def test_symmetry(self, two_particle_table):
        design = SelectionDesign.bernoulli([0.3, 0.6], [0, 0, 0, 1, 1])
        _, est = run_replicates(design, two_particle_table, r=5000, seed=78)
        dep = empirical_dependence(est)
        np.testing.assert_array_equal(dep.c_hat, dep.c_hat.T)

    def test_unestimable_class_is_nan(self, two_particle_table):
        # class 1 has no particles at all
        design = SelectionDesign.bernoulli([0.5, 0.5], [0, 0, 0])
        _, est = run_replicates(design, two_particle_table, r=1000, seed=79)
        assert np.isnan(est.pi1[1])
        assert np.isnan(est.c_hat[0, 1])


class TestCompareEstimators:
    def test_bernoulli_independence_regime(self, two_particle_table):
        """Rare independent selection from a large population (the
        infinite-batch regime): the dependence-free moment estimator sits
        within Monte Carlo error of the empirical variance.  Selection
        fractions near 1 leave the binomial finite-population factor 1 - q
        visible instead; that regime belongs to the finite-batch form."""
        design = SelectionDesign.bernoulli([0.01, 0.01], [0] * 5000 + [1] * 5000)
        stats, est = run_replicates(design, two_particle_table, r=5000, seed=91)
        report = compare_estimators(stats, est, two_particle_table)
        row = report.row("moment", "zero", "replicate_mean")
        assert abs(row.z) < 3.0

    def test_all_equal_concentrations(self):
        table = ClassTable.from_arrays([1.0, 1.0], [0.5, 0.5])
        design = SelectionDesign.bernoulli([0.5, 0.5], [0] * 10 + [1] * 10)
        stats, est = run_replicates(design, table, r=2000, seed=92)
        report = compare_estimators(stats, est, table)
        assert stats.v_e == 0.0
        for row in report.rows:
            if row.estimator == "moment":
                assert row.value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 3])
    def test_shared_concentration_gives_exact_cs(self, k):
        """When every class has concentration 0.1, c_s is 0.1 itself, not
        n (m 0.1) / (n m) rounded per n: v_e, v_e_se and the exact
        variance are 0, every ratio and z NaN, and the moment form 0."""
        table = ClassTable.from_arrays([0.3, 0.7, 1.9][:k], [0.1] * k)
        design = SelectionDesign.bernoulli([0.5] * k, [u % k for u in range(40)])
        stats, est = run_replicates(design, table, 2000, 3)
        nonempty = stats.mass > 0
        assert np.all(stats.cs[nonempty] == 0.1) and stats.mean_cs == 0.1
        assert stats.v_e == 0.0 and stats.v_e_se == 0.0
        report = compare_estimators(stats, est, table)
        for row in report.rows:
            assert row.v_e == 0.0 and np.isnan(row.ratio) and np.isnan(row.z)
            if row.estimator == "moment":
                assert row.value == 0.0
        exact = enumerate_design(design, table)
        assert exact.mean_cs == 0.1 and exact.var_cs == 0.0
        assert derive_expectation([3.0] * k, table).concentration == 0.1
        grouped = ReplicateStats.from_counts(np.tile(stats.counts[:50], (2, 1)), table, groups=2)
        assert np.all(grouped.v_e == 0.0) and np.all(grouped.mean_cs == 0.1)

    def test_rows_cover_grid(self, two_particle_table):
        design = SelectionDesign.bernoulli([0.5, 0.5], [0, 0, 1, 1])
        stats, est = run_replicates(design, two_particle_table, r=2000, seed=93)
        report = compare_estimators(stats, est, two_particle_table)
        combos = {(r.estimator, r.dependence, r.mode) for r in report.rows}
        assert len(combos) == 8


class TestClusterSigns:
    """Sign heuristics realized by spatial structure (moderate sizes; the
    acceptance suite runs the full-scale versions)."""

    def test_co_clustered_same_class_negative(self, two_particle_table):
        params = ProcessParams(
            variant="matern_cluster", width=1, height=1, mixing=(0.5, 0.5),
            parent_intensity=40.0, offspring_mean=12.0, cluster_radius=0.03,
            class_correlation=1.0,
        )
        values = []
        for s in range(15):
            field = generate_field(params, two_particle_table, seed=1000 + s)
            design = SelectionDesign.window(field, 0.04, 0.04)
            _, est = run_replicates(design, two_particle_table, r=200, seed=s)
            values.append(est.c_hat[0, 0])
        values = np.array(values)
        z = values.mean() / (values.std(ddof=1) / np.sqrt(len(values)))
        assert z < -4.0

    def test_independent_labels_make_all_pairs_negative(self, two_particle_table):
        params = ProcessParams(
            variant="matern_cluster", width=1, height=1, mixing=(0.5, 0.5),
            parent_intensity=40.0, offspring_mean=12.0, cluster_radius=0.03,
            class_correlation=0.0,
        )
        values = []
        for s in range(15):
            field = generate_field(params, two_particle_table, seed=2000 + s)
            design = SelectionDesign.window(field, 0.04, 0.04)
            _, est = run_replicates(design, two_particle_table, r=200, seed=s)
            values.append(est.c_hat[0, 1])
        values = np.array(values)
        z = values.mean() / (values.std(ddof=1) / np.sqrt(len(values)))
        assert z < -4.0

    def test_hardcore_diagonal_positive(self):
        from granvar.experiments import binary_table, hardcore_params, window_ensemble

        # particle radius enters the exclusion distance, so use the standard
        # finite-radius table here
        ens = window_ensemble(
            hardcore_params(), binary_table(), window=(0.1, 0.1),
            replicates=200, n_seeds=25, master_seed=6_08,
        )
        assert ens.cell_z(0, 0) > 4.0
        assert ens.cell_z(1, 1) > 4.0
