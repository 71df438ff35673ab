import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granvar.errors import EmptySampleError
from granvar.model import (
    BatchSpec,
    ClassTable,
    DependenceMatrix,
    ParticleClass,
    derive_expectation,
    derive_summary,
    validate_dependence,
)


class TestParticleClass:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ParticleClass(0, mass=0.0, concentration=0.5)

    def test_rejects_negative_concentration(self):
        with pytest.raises(ValueError):
            ParticleClass(0, mass=1.0, concentration=-0.1)

    def test_concentration_above_one_allowed(self):
        # ppm-style units legitimately exceed 1
        ParticleClass(0, mass=1.0, concentration=1e4)

    def test_diameter(self):
        assert ParticleClass(0, 1.0, 0.0, radius=0.3).diameter == 0.6


class TestClassTable:
    def test_ids_must_be_contiguous(self):
        with pytest.raises(ValueError):
            ClassTable([ParticleClass(0, 1, 1), ParticleClass(2, 1, 0)])

    def test_needs_at_least_one_class(self):
        with pytest.raises(ValueError):
            ClassTable([])

    def test_from_arrays(self):
        table = ClassTable.from_arrays([1.0, 2.0], [0.1, 0.0])
        assert table.k == 2
        assert table[1].mass == 2.0

    def test_class_arrays_built_once_and_read_only(self):
        table = ClassTable.from_arrays([1.0, 2.0], [0.1, 0.0], [0.5, 0.25])
        for name, want in (("masses", [1.0, 2.0]), ("concentrations", [0.1, 0.0]),
                           ("radii", [0.5, 0.25])):
            array = getattr(table, name)
            assert array is getattr(table, name)
            assert array.tolist() == want
            with pytest.raises(ValueError):
                array[0] = 3.0


class TestDeriveSummary:
    def test_basic(self):
        table = ClassTable.from_arrays([1, 1], [1, 0])
        s = derive_summary([5, 5], table)
        assert s.mass == 10.0
        assert s.concentration == 0.5

    def test_single_particle(self):
        table = ClassTable.from_arrays([2, 1], [0.5, 0])
        s = derive_summary([1, 0], table)
        assert s.mass == 2.0
        assert s.concentration == 0.5

    def test_hand_evaluated_sums(self):
        # sum N m = 3*2 + 7*1 = 13; sum N m c = 6; c_s = 6/13
        table = ClassTable.from_arrays([2, 1], [1, 0])
        s = derive_summary([3, 7], table)
        assert s.mass == pytest.approx(13.0, rel=1e-15)
        assert s.concentration == pytest.approx(6.0 / 13.0, rel=1e-15)

    def test_all_zero_counts(self):
        table = ClassTable.from_arrays([1], [1])
        with pytest.raises(EmptySampleError):
            derive_summary([0], table)

    def test_length_mismatch(self):
        table = ClassTable.from_arrays([1], [1])
        with pytest.raises(ValueError):
            derive_summary([1, 2], table)

    def test_consistency_check_rejects_bad_mass(self):
        table = ClassTable.from_arrays([1, 1], [1, 0])
        s = derive_summary([5, 5], table)
        bad = type(s)(s.counts, s.mass * 1.001, s.concentration)
        with pytest.raises(ValueError):
            bad.check_consistent(table)

    def test_expectation_accepts_real_counts(self):
        table = ClassTable.from_arrays([1, 1], [1, 0])
        e = derive_expectation([2.5, 2.5], table)
        assert e.mass == 5.0
        assert e.concentration == 0.5


@settings(deadline=None, max_examples=200)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=5),
)
def test_deviation_weights_sum_to_zero(data, k):
    """The defining identity of the sample concentration: the mass-weighted
    concentration deviations cancel to within 1e-10 of the sample mass."""
    masses = data.draw(
        st.lists(st.floats(0.01, 100.0), min_size=k, max_size=k)
    )
    concs = data.draw(st.lists(st.floats(0.0, 50.0), min_size=k, max_size=k))
    counts = data.draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k))
    if not any(counts):
        counts[0] = 1
    table = ClassTable.from_arrays(masses, concs)
    s = derive_summary(counts, table)
    residual = float(
        np.sum(s.counts_array * table.masses * (table.concentrations - s.concentration))
    )
    assert abs(residual) <= 1e-10 * s.mass


class TestValidateDependence:
    def test_zero_matrix_valid(self):
        assert validate_dependence(np.zeros((3, 3))) == []

    def test_asymmetry_reported(self):
        c = np.zeros((2, 2))
        c[0, 1], c[1, 0] = 0.5, 0.4
        violations = validate_dependence(c)
        assert any("asymmetry at (0,1)" in v for v in violations)

    def test_unit_diagonal_rejected(self):
        c = np.zeros((1, 1))
        c[0, 0] = 1.0
        violations = validate_dependence(c)
        assert any("must be < 1" in v for v in violations)

    def test_feasibility_vs_q(self):
        # pair probability would exceed min(q_i, q_j)
        c = np.full((2, 2), -3.0)
        violations = validate_dependence(c, q=[0.5, 0.5])
        assert violations
        assert all("feasibility" in v for v in violations)

    def test_messages_print_plain_numbers(self):
        """A bad ``dependence`` section reaches the user as these messages,
        so they print numbers, not numpy reprs."""
        assert validate_dependence([[0, 0.5], [0.2, 1.5]]) == [
            "asymmetry at (0,1): 0.5 != 0.2",
            "C[1,1] must be < 1, got 1.5",
        ]
        assert validate_dependence([[-3.0]], q=[0.5]) == [
            "C[0,0]=-3.0 below feasibility bound -1.0 "
            "(pair probability would exceed min(q_i,q_j))"
        ]

    def test_feasible_negative_value_passes(self):
        c = np.full((2, 2), -0.5)
        assert validate_dependence(c, q=[0.5, 0.5]) == []

    @settings(deadline=None, max_examples=200)
    @given(value=st.floats(-5.0, 2.0))
    def test_accepts_exactly_positive_denominators(self, value):
        """A matrix passes (without q) exactly when every 1 - C_ij > 0."""
        c = np.full((2, 2), value)
        valid = validate_dependence(c) == []
        assert valid == (1.0 - value > 0.0)


class TestDependenceMatrix:
    def test_construction_validates(self):
        with pytest.raises(ValueError):
            DependenceMatrix([[0.0, 0.2], [0.3, 0.0]])

    def test_values_read_only(self):
        dep = DependenceMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dep.values[0, 0] = 0.5

    def test_zeros_factory(self):
        assert DependenceMatrix.zeros(3).k == 3


class TestBatchSpec:
    def test_q_bounds(self):
        with pytest.raises(ValueError):
            BatchSpec(100.0, [0.0])
        with pytest.raises(ValueError):
            BatchSpec(100.0, [1.5])

    def test_correct_sampling_requires_equal_q(self):
        with pytest.raises(ValueError):
            BatchSpec(100.0, [0.1, 0.2], correct_sampling=True)

    def test_correct_factory(self):
        b = BatchSpec.correct(batch_mass=100.0, sample_mass=10.0, k=3)
        assert b.correct_sampling
        assert all(q == 0.1 for q in b.first_order_q)
