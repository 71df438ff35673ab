import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granvar import estimators as est
from granvar.errors import (
    DegenerateDependenceError,
    EmptySampleError,
    FeasibilityError,
    NonIdentifiableError,
)
from granvar.model import (
    BatchSpec,
    ClassTable,
    DependenceMatrix,
    derive_expectation,
    derive_summary,
)
from granvar.selection import (
    ReplicateStats,
    compare_estimators,
    inclusion_from_fractions,
    pair_fractions,
)
from granvar.verify import (
    REFERENCE_GRID,
    grid_matches_reference,
    random_single_class_case,
    random_summary_scenario,
)


class TestSecondOrderInclusion:
    def test_independent(self):
        assert est.second_order_inclusion(0.5, 0.5, 0.0) == 0.25

    def test_near_total_dependence(self):
        assert est.second_order_inclusion(0.5, 0.5, 0.999) == pytest.approx(2.5e-4, rel=1e-12)

    def test_negative_dependence(self):
        assert est.second_order_inclusion(0.2, 0.1, -0.5) == pytest.approx(0.03, rel=1e-12)

    def test_dependence_at_one_rejected(self):
        with pytest.raises(DegenerateDependenceError):
            est.second_order_inclusion(0.5, 0.5, 1.0)

    def test_infeasible_pair_probability(self):
        # 0.9 * 0.9 * 1.9 = 1.539 > min(q_i, q_j)
        with pytest.raises(FeasibilityError):
            est.second_order_inclusion(0.9, 0.9, -0.9)

    @settings(deadline=None, max_examples=300)
    @given(
        q_i=st.floats(0.01, 1.0),
        q_j=st.floats(0.01, 1.0),
        c=st.floats(-0.9, 0.99),
    )
    def test_feasible_results_bounded(self, q_i, q_j, c):
        try:
            pi = est.second_order_inclusion(q_i, q_j, c)
        except FeasibilityError:
            assert q_i * q_j * (1 - c) > min(q_i, q_j)
        else:
            assert 0.0 <= pi <= min(q_i, q_j)


@pytest.fixture
def canonical():
    """The 5+5 unit-mass sample with a single analyte class."""
    table = ClassTable.from_arrays([1.0, 1.0], [1.0, 0.0])
    return table, derive_summary([5, 5], table)


class TestMomentEstimators:
    def test_expected_hand_case(self, canonical):
        table, _ = canonical
        exp = derive_expectation([5.0, 5.0], table)
        c = np.zeros((2, 2))
        c[0, 0] = 0.02
        r = est.variance_expected(exp, table, c)
        assert r.gy_term == pytest.approx(0.025, rel=1e-12)
        assert r.correction_term == pytest.approx(0.00125, rel=1e-12)
        assert r.value == pytest.approx(0.02375, rel=1e-12)

    def test_sample_matches_expected_on_same_numbers(self, canonical):
        table, s = canonical
        c = np.zeros((2, 2))
        c[0, 0] = 0.02
        assert est.variance_sample(s, table, c).value == pytest.approx(0.02375, rel=1e-12)

    def test_zero_when_all_concentrations_equal(self):
        table = ClassTable.from_arrays([1.0, 2.0], [0.7, 0.7])
        s = derive_summary([3, 4], table)
        r = est.variance_sample(s, table, np.full((2, 2), -0.4))
        assert r.value == pytest.approx(0.0, abs=1e-18)

    def test_zero_dependence_reduces_to_gy(self, canonical):
        table, s = canonical
        r = est.variance_sample(s, table, np.zeros((2, 2)))
        assert r.correction_term == 0.0
        assert r.value == r.gy_term == est.variance_gy(s, table)

    def test_gy_hand_case(self, canonical):
        table, s = canonical
        assert est.variance_gy(s, table) == pytest.approx(0.025, rel=1e-12)

    def test_gy_zero_for_single_uniform_class(self):
        table = ClassTable.from_arrays([1.0], [0.4])
        s = derive_summary([9], table)
        assert est.variance_gy(s, table) == pytest.approx(0.0, abs=1e-18)

    def test_single_class_reference_differs_from_gy_term(self, canonical):
        """Two deliberately distinct quantities: the independence term of the
        moment estimator (0.025 here) and the single-class reference value
        c_s c_k m_k / M_s (0.05 here) used by the dependence solver."""
        table, s = canonical
        v_ref = est.gy_reference_variance(s.concentration, 1.0, 1.0, s.mass)
        assert v_ref == pytest.approx(0.05, rel=1e-12)
        assert est.variance_gy(s, table) == pytest.approx(0.025, rel=1e-12)


class TestHorvitzThompson:
    def test_zero_dependence_single_class(self, canonical):
        table, s = canonical
        r = est.variance_ht(s, table, np.zeros((2, 2)))
        assert r.value == pytest.approx(0.05, rel=1e-12)  # = c_s c_k m_k / M_s

    def test_negative_diagonal_hand_case(self, canonical):
        table, s = canonical
        c = np.zeros((2, 2))
        c[0, 0] = -0.5
        # 0.05 * (1 - 5*(-0.5)) / (1 - (-0.5)) = 7/60
        assert est.variance_ht(s, table, c).value == pytest.approx(7.0 / 60.0, rel=1e-12)

    def test_all_zero_concentration(self):
        table = ClassTable.from_arrays([1.0, 2.0], [0.0, 0.0])
        s = derive_summary([4, 4], table)
        assert est.variance_ht(s, table, np.full((2, 2), -0.3)).value == 0.0

    def test_degenerate_dependence_rejected(self, canonical):
        table, s = canonical
        for value in (1.0, np.nan):
            c = np.zeros((2, 2))
            c[1, 1] = value
            with pytest.raises(DegenerateDependenceError):
                est.variance_ht(s, table, c)
            with pytest.raises(DegenerateDependenceError):
                est.variance_ht_finite_batch(s, table, c, BatchSpec.correct(100.0, s.mass, 2))
            with pytest.raises(DegenerateDependenceError):
                est.ht_single_class(0.5, 1.0, 1.0, 10.0, 5, value)

    def test_single_class_formula_matches(self):
        assert est.ht_single_class(0.5, 1.0, 1.0, 10.0, 5, -0.5) == pytest.approx(
            7.0 / 60.0, rel=1e-12
        )

    def test_single_class_zero_dependence_is_reference(self):
        v = est.ht_single_class(0.5, 1.0, 1.0, 10.0, 5, 0.0)
        assert v == est.gy_reference_variance(0.5, 1.0, 1.0, 10.0)

    @settings(deadline=None, max_examples=200)
    @given(c_kk=st.floats(-5.0, 0.99))
    def test_single_particle_cancellation(self, c_kk):
        # N_k = 1 cancels the dependence factor entirely
        v = est.ht_single_class(0.5, 1.0, 2.0, 10.0, 1, c_kk)
        assert v == pytest.approx(0.1, rel=1e-12)

    def test_embedding_matches_full_estimator(self, rng):
        """Single-analyte two-class samples: closed form vs full double sum."""
        for _ in range(1000):
            n_k = int(rng.integers(1, 100))
            n_other = int(rng.integers(1, 100))
            table = ClassTable.from_arrays(
                [rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)],
                [rng.uniform(0.05, 2.0), 0.0],
            )
            s = derive_summary([n_k, n_other], table)
            c = rng.uniform(-2.0, 0.9, (2, 2))
            c = (c + c.T) / 2
            full = est.variance_ht(s, table, c).value
            single = est.ht_single_class(
                s.concentration, table[0].concentration, table[0].mass,
                s.mass, n_k, c[0, 0],
            )
            assert full == pytest.approx(single, rel=1e-10)


class TestDependenceSolver:
    @pytest.mark.parametrize(
        "ratio,n_k,expected",
        [
            (0.1, 10, 9.1e-2),
            (1.0, 10, 0.0),
            (4.0, 10, -5.0e-1),
            (2.0, 100, -1.0e-2),
        ],
    )
    def test_grid_spot_values(self, ratio, n_k, expected):
        sol = est.solve_single_class_dependence(
            est.EmpiricalVarianceInput(v_e=ratio, n_k=n_k), v_gy=1.0
        )
        tol = 0.05 * abs(expected) if expected else 1e-15
        assert sol.value == pytest.approx(expected, abs=tol)
        assert not sol.infeasible

    def test_zero_at_reference_variance(self):
        sol = est.solve_single_class_dependence(
            est.EmpiricalVarianceInput(v_e=0.05, n_k=700), v_gy=0.05
        )
        assert sol.value == 0.0

    def test_non_identifiable(self):
        with pytest.raises(NonIdentifiableError):
            est.solve_single_class_dependence(
                est.EmpiricalVarianceInput(v_e=5.0, n_k=10), v_gy=0.5
            )

    def test_infeasible_flag_instead_of_error(self):
        # V_e > N_k * v_gy pushes the solution above 1
        sol = est.solve_single_class_dependence(
            est.EmpiricalVarianceInput(v_e=20.0, n_k=10), v_gy=1.0
        )
        assert sol.infeasible
        assert sol.value > 1.0

    def test_round_trip(self, rng):
        for _ in range(1000):
            c_s, c_k, m_k, mass, n_k, v_e = random_single_class_case(rng)
            v_gy = est.gy_reference_variance(c_s, c_k, m_k, mass)
            sol = est.solve_single_class_dependence(
                est.EmpiricalVarianceInput(v_e=v_e, n_k=n_k), v_gy
            )
            back = est.ht_single_class(c_s, c_k, m_k, mass, n_k, sol.value)
            assert back == pytest.approx(v_e, rel=1e-12)


class TestDependenceGrid:
    def test_shape(self):
        assert est.dependence_grid().shape == (4, 6)

    def test_matches_reference_to_two_significant_figures(self):
        ok, worst = grid_matches_reference()
        assert ok, f"worst deviation {worst} reference-figure units"

    @pytest.mark.parametrize(
        "row,col,expected",
        [(3, 0, 9.0e-5), (2, 4, -1.0e-3), (1, 2, 6.0e-3)],
    )
    def test_reference_spot_cells(self, row, col, expected):
        assert REFERENCE_GRID[row][col] == expected
        grid = est.dependence_grid()
        assert grid[row, col] == pytest.approx(expected, abs=0.05 * abs(expected))


class TestPiExpanded:
    def test_reduces_to_sample_concentration(self, rng):
        for _ in range(200):
            table, s, batch, _, _ = random_summary_scenario(rng)
            assert est.pi_expanded_concentration(s, table, batch) == pytest.approx(
                s.concentration, rel=1e-12
            )

    def test_zero_concentrations(self):
        table = ClassTable.from_arrays([1.0], [0.0])
        s = derive_summary([4], table)
        batch = BatchSpec(100.0, [0.1])
        assert est.pi_expanded_concentration(s, table, batch) == 0.0

    def test_direct_sum(self):
        table = ClassTable.from_arrays([1.0], [1.0])
        s = derive_summary([4], table)
        batch = BatchSpec(100.0, [0.1])
        assert est.pi_expanded_concentration(s, table, batch) == pytest.approx(0.4, rel=1e-12)


class TestGeneralHorvitzThompson:
    def test_factorized_pairs_leave_only_self_pair_correction(self, canonical):
        """Fully factorized pair probabilities kill the double sum; what
        remains is the self-pair correction, the independence value of the
        finite-batch form."""
        table, s = canonical
        q = 0.25
        batch = BatchSpec.correct(s.mass / q, s.mass, 2)
        pi = np.full(2, q)
        pij = np.full((2, 2), q * q)
        got = est.variance_ht_general(s, table, pi, pij, batch)
        diag = float(np.sum(s.counts_array * table.masses**2 * table.concentrations**2))
        expected = (1.0 - q) * diag / s.mass**2
        assert got == pytest.approx(expected, rel=1e-12)
        finite = est.variance_ht_finite_batch(s, table, np.zeros((2, 2)), batch)
        assert got == pytest.approx(finite, rel=1e-12)

    def test_self_pair_probability_zeroes_single_sum(self, canonical):
        """Setting the same-class pair probability to the first-order value
        (the self-pair reduction) makes the single sum vanish, leaving only
        the double-sum diagonal weight."""
        table, s = canonical
        q = 0.25
        batch = BatchSpec.correct(s.mass / q, s.mass, 2)
        pi = np.full(2, q)
        pij = np.full((2, 2), q * q)
        np.fill_diagonal(pij, q)
        got = est.variance_ht_general(s, table, pi, pij, batch)
        counts = s.counts_array
        w = counts * table.masses * table.concentrations
        expected = float(
            np.sum(w * w) * (1.0 / (q * q) - 1.0 / q)
        ) / batch.batch_mass**2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_infinite_batch_at_tiny_sampling_ratio(self, canonical):
        table, s = canonical
        q = 1e-9
        batch = BatchSpec.correct(s.mass / q, s.mass, 2)
        pi = np.full(2, q)
        pij = np.full((2, 2), q * q)  # dependence-model pairs at C = 0
        general = est.variance_ht_general(s, table, pi, pij, batch)
        infinite = est.variance_ht(s, table, np.zeros((2, 2))).value
        assert general == pytest.approx(infinite, rel=1e-8)

    def test_equals_finite_batch_substitution(self, rng):
        """Substituting the dependence-model pair probabilities reproduces the
        finite-batch closed form exactly."""
        for _ in range(500):
            table, s, batch, dep, q = random_summary_scenario(rng)
            pi = np.full(table.k, q)
            pij = q * q * (1.0 - dep.values)
            general = est.variance_ht_general(s, table, pi, pij, batch)
            finite = est.variance_ht_finite_batch(s, table, dep, batch)
            scale = max(abs(general), abs(finite), 1e-300)
            assert abs(general - finite) <= 1e-10 * scale

    def test_zero_pi_in_needed_denominator(self, canonical):
        table, s = canonical
        batch = BatchSpec.correct(100.0, s.mass, 2)
        pi = np.full(2, 0.1)
        pij = np.zeros((2, 2))
        with pytest.raises(FeasibilityError):
            est.variance_ht_general(s, table, pi, pij, batch)

    def test_all_zero_concentration(self):
        table = ClassTable.from_arrays([1.0, 1.0], [0.0, 0.0])
        s = derive_summary([4, 4], table)
        batch = BatchSpec.correct(80.0, s.mass, 2)
        pi = np.full(2, 0.1)
        pij = np.zeros((2, 2))  # zero pair probabilities are fine: never needed
        assert est.variance_ht_general(s, table, pi, pij, batch) == 0.0


class TestFiniteBatch:
    def test_converges_to_infinite_batch(self, rng):
        for _ in range(200):
            table, s, _, dep, _ = random_summary_scenario(rng)
            batch = BatchSpec.correct(s.mass * 1e9, s.mass, table.k)
            finite = est.variance_ht_finite_batch(s, table, dep, batch)
            infinite = est.variance_ht(s, table, dep).value
            scale = max(abs(infinite), 1e-300)
            assert abs(finite - infinite) <= max(1e-8 * scale, 1e-30)

    def test_finite_population_correction_visible(self, canonical):
        """At zero dependence the pair sum vanishes and the diagonal carries
        an explicit (1 - M_s/M_batch) style factor."""
        table, s = canonical
        batch = BatchSpec.correct(40.0, s.mass, 2)
        got = est.variance_ht_finite_batch(s, table, np.zeros((2, 2)), batch)
        diag = float(np.sum(s.counts_array * table.masses**2 * table.concentrations**2))
        expected = (1.0 - s.mass / 40.0) * diag / s.mass**2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_all_zero_concentration(self):
        table = ClassTable.from_arrays([1.0], [0.0])
        s = derive_summary([4], table)
        batch = BatchSpec.correct(40.0, s.mass, 1)
        assert est.variance_ht_finite_batch(s, table, np.zeros((1, 1)), batch) == 0.0


class TestAlgebraicProperties:
    def test_linear_in_dependence(self, rng):
        for _ in range(300):
            table, s, _, dep, _ = random_summary_scenario(rng)
            zero = est.variance_sample(s, table, np.zeros((table.k, table.k)))
            full = est.variance_sample(s, table, dep.values)
            half = est.variance_sample(s, table, 0.5 * dep.values)
            lhs = full.value - zero.value
            rhs = 2.0 * (half.value - zero.value)
            scale = max(abs(lhs), abs(rhs), abs(zero.value), 1e-300)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_constant_matrix_null(self, rng):
        for _ in range(300):
            table, s, _, _, _ = random_summary_scenario(rng)
            kappa = float(rng.uniform(-2.0, 0.9))
            r = est.variance_sample(s, table, np.full((table.k, table.k), kappa))
            dev = table.concentrations - s.concentration
            abs_dev = float(np.sum(s.counts_array * table.masses * np.abs(dev))) / s.mass
            assert abs(r.correction_term) <= abs(kappa) * (1e-20 + 1e-12 * abs_dev**2)

    def test_moment_form_shift_invariant_ht_form_not(self, rng):
        shifted_ht = 0
        for _ in range(100):
            table, s, _, dep, _ = random_summary_scenario(rng)
            delta = 0.7
            shifted_table = ClassTable.from_arrays(
                table.masses, table.concentrations + delta
            )
            shifted = derive_summary(s.counts, shifted_table)
            a = est.variance_sample(s, table, dep).value
            b = est.variance_sample(shifted, shifted_table, dep).value
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-12)
            ht_a = est.variance_ht(s, table, dep).value
            ht_b = est.variance_ht(shifted, shifted_table, dep).value
            if abs(ht_a - ht_b) > 1e-6 * max(abs(ht_a), abs(ht_b), 1e-12):
                shifted_ht += 1
        assert shifted_ht > 90


class TestVarianceResult:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            est.VarianceResult(value=1.0, gy_term=1.0, correction_term=0.5)

    def test_decomposition_holds(self, canonical):
        table, s = canonical
        c = np.full((2, 2), -0.25)
        r = est.variance_sample(s, table, c)
        assert r.value == pytest.approx(r.gy_term - r.correction_term, rel=1e-12)


def fsum_scaled(terms) -> tuple[float, float]:
    """(compensated sum, compensated sum of magnitudes) of ``terms``."""
    terms = [float(t) for t in terms]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def reference_totals(counts, table):
    """Sample mass and analyte mass as compensated sums."""
    m, conc = table.masses, table.concentrations
    return fsum_scaled(counts * m), fsum_scaled(counts * m * conc)


def reference_moment(counts, mass, conc, table, c):
    """The moment form as compensated sums: (Gy term, correction term),
    each a (value, scale) pair divided by M^2."""
    m, dev, k = table.masses, table.concentrations - conc, table.k
    a = counts * m * dev
    gy = fsum_scaled(counts * m * m * dev * dev)
    corr = fsum_scaled(c[i, j] * a[i] * a[j] for i in range(k) for j in range(k))
    return [(v / (mass * mass), sc / (mass * mass)) for v, sc in (gy, corr)]


def reference_ht(s, table, c):
    """Infinite-batch Horvitz-Thompson (first, second) terms, as above."""
    counts, m, conc, k = s.counts_array, table.masses, table.concentrations, table.k
    w = counts * m * conc
    first = fsum_scaled(counts[i] * m[i] ** 2 * conc[i] ** 2 / (1.0 - c[i, i])
                        for i in range(k))
    second = fsum_scaled(c[i, j] * w[i] * w[j] / (1.0 - c[i, j])
                         for i in range(k) for j in range(k))
    return [(v / s.mass**2, sc / s.mass**2) for v, sc in (first, second)]


def reference_finite_batch(s, table, c, batch):
    """Finite-batch Horvitz-Thompson (value, scale)."""
    counts, m, conc, k = s.counts_array, table.masses, table.concentrations, table.k
    w = counts * m * conc
    ratio = s.mass / batch.batch_mass
    terms = [w[i] * w[j] * (1.0 - 1.0 / (1.0 - c[i, j])) for i in range(k) for j in range(k)]
    terms += [(1.0 / (1.0 - c[i, i]) - ratio) * counts[i] * m[i] ** 2 * conc[i] ** 2
              for i in range(k)]
    value, scale = fsum_scaled(terms)
    return value / s.mass**2, scale / s.mass**2


def reference_general(s, table, pi, pi_pair, batch):
    """General Horvitz-Thompson (value, scale); terms with a zero
    coefficient are skipped."""
    counts, m, conc, k = s.counts_array, table.masses, table.concentrations, table.k
    w = counts * m * conc
    terms = [w[i] * w[j] * (1.0 / (pi[i] * pi[j]) - 1.0 / pi_pair[i, j])
             for i in range(k) for j in range(k) if w[i] * w[j] != 0.0]
    terms += [counts[i] * m[i] ** 2 * conc[i] ** 2 * (1.0 / pi_pair[i, i] - 1.0 / pi[i])
              for i in range(k) if counts[i] * m[i] ** 2 * conc[i] ** 2 != 0.0]
    value, scale = fsum_scaled(terms)
    return value / batch.batch_mass**2, scale / batch.batch_mass**2


@st.composite
def summary_scenarios(draw):
    """(table, sample, batch, dependence, q) drawn as
    ``verify.random_summary_scenario`` draws them, plus zero counts and zero
    concentrations; other concentrations stay at 1e-3 or above, where no
    product of the formulas is subnormal."""
    k = draw(st.integers(1, 4))

    def per_class(strategy, size=k):
        return draw(st.lists(strategy, min_size=size, max_size=size))

    table = ClassTable.from_arrays(
        per_class(st.floats(0.5, 3.0)),
        per_class(st.one_of(st.just(0.0), st.floats(1e-3, 2.0))),
    )
    counts = per_class(st.integers(0, 59))
    assume(any(counts))
    sample = derive_summary(counts, table)
    q = draw(st.floats(0.01, 0.5))
    batch = BatchSpec.correct(sample.mass / q, sample.mass, k)
    c = np.array(per_class(st.floats(max(1.0 - 1.0 / q, -3.0), 0.9), k * k)).reshape(k, k)
    return table, sample, batch, DependenceMatrix((c + c.T) / 2.0, q=[q] * k), q


def close(got, reference, rtol=1e-12, floor=0.0) -> bool:
    """Within ``rtol`` of the reference's scale (its sum of magnitudes)."""
    value, scale = reference
    return abs(got - value) <= rtol * scale + floor


class TestKernelsAgainstCompensatedSums:
    """The row-local kernels against the compensated-sum formulas they
    replaced, through every scalar form."""

    @settings(deadline=None, max_examples=300)
    @given(case=summary_scenarios())
    def test_scalar_forms_match_reference(self, case):
        table, s, batch, dep, q = case
        counts, c = s.counts_array, dep.values
        mass, analyte = est.sample_totals(counts[None, :], table)
        mass_ref, analyte_ref = reference_totals(counts, table)
        assert close(mass[0], mass_ref) and close(analyte[0], analyte_ref)
        conc = table.concentrations
        common = np.all(conc == conc[0])  # then c_s is that concentration, unrounded
        assert s.mass == mass[0]
        assert s.concentration == (conc[0] if common else analyte[0] / mass[0])

        dev = table.concentrations - s.concentration
        abs_dev = float(np.sum(counts * table.masses * np.abs(dev))) / s.mass
        # the constant_dependence_null bound on a correction that cancels
        null_floor = np.abs(c).max() * (1e-20 + 1e-12 * abs_dev * abs_dev)
        gy, corr = reference_moment(counts, s.mass, s.concentration, table, c)
        for got in (est.variance_sample(s, table, dep),
                    est.variance_expected(derive_expectation(counts, table), table, dep)):
            assert close(got.gy_term, gy)
            assert close(got.correction_term, corr, floor=null_floor)
        assert close(est.variance_gy(s, table), gy)

        first, second = reference_ht(s, table, c)
        ht = est.variance_ht(s, table, dep)
        assert close(ht.gy_term, first) and close(ht.correction_term, second)
        assert close(est.variance_ht_finite_batch(s, table, dep, batch),
                     reference_finite_batch(s, table, c, batch))
        pi, pij = np.full(table.k, q), q * q * (1.0 - c)
        assert close(est.variance_ht_general(s, table, pi, pij, batch),
                     reference_general(s, table, pi, pij, batch))
        weights = table.masses * table.concentrations / (batch.batch_mass * batch.q)
        assert close(est.pi_expanded_concentration(s, table, batch),
                     fsum_scaled(counts * weights))

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), k=st.integers(1, 4), r=st.integers(2, 30))
    def test_expected_form_equals_mean_summary_row(self, data, k, r):
        """``variance_expected`` on the mean counts is the comparison's
        moment mean-summary row, bit for bit."""
        counts = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 6), min_size=k, max_size=k), min_size=r, max_size=r
        )), dtype=np.int64)
        table = ClassTable.from_arrays(
            data.draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k)),
            data.draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k)),
        )
        stats = ReplicateStats.from_counts(counts, table)
        pop = counts.max(axis=0) + 1
        inclusion = inclusion_from_fractions(*pair_fractions(counts, pop))
        try:
            report = compare_estimators(stats, inclusion, table)
        except EmptySampleError:
            assume(False)
        mean_counts = counts[stats.mass[stats.inverse] > 0].astype(float).mean(axis=0)
        exp = derive_expectation(mean_counts, table)
        c_emp = np.where(np.isnan(inclusion.c_hat), 0.0, inclusion.c_hat)
        for dep, c in (("zero", np.zeros((k, k))), ("empirical", c_emp)):
            want = report.row("moment", dep, "mean_summary").value
            got = est.variance_expected(exp, table, c).value
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (dep, got, want)
