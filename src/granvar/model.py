"""Domain types shared by every other module.

All types are immutable after construction and safe to share between
concurrent readers.  Summaries are built through the ``derive_*``
constructors so their mass/concentration identities hold by construction
instead of being trusted from the caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptySampleError

#: Relative tolerance for the summary consistency identities.
CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class ParticleClass:
    """One particle class: every member shares mass, analyte content and size.

    ``concentration`` is the analyte mass fraction of a particle of this
    class.  Any proportional unit works (the variance formulas are
    homogeneous of degree two in concentration), and values above 1 are
    allowed for ppm-style units.  ``radius`` is only consulted by the
    spatial field and transect modules.
    """

    id: int
    mass: float
    concentration: float
    radius: float = 0.0

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"class id must be >= 0, got {self.id}")
        if not self.mass > 0:
            raise ValueError(f"class {self.id}: mass must be > 0, got {self.mass}")
        if self.concentration < 0:
            raise ValueError(
                f"class {self.id}: concentration must be >= 0, got {self.concentration}"
            )
        if self.radius < 0:
            raise ValueError(f"class {self.id}: radius must be >= 0, got {self.radius}")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class ClassTable:
    """Ordered collection of particle classes; ids must be 0..K-1."""

    classes: tuple[ParticleClass, ...]

    def __init__(self, classes: Sequence[ParticleClass]):
        object.__setattr__(self, "classes", tuple(classes))
        if self.k < 1:
            raise ValueError("a class table needs at least one class")
        ids = [c.id for c in self.classes]
        if ids != list(range(self.k)):
            raise ValueError(f"class ids must be 0..{self.k - 1} without gaps, got {ids}")

    @classmethod
    def from_arrays(
        cls,
        masses: Sequence[float],
        concentrations: Sequence[float],
        radii: Sequence[float] | None = None,
    ) -> "ClassTable":
        if radii is None:
            radii = [0.0] * len(masses)
        if not (len(masses) == len(concentrations) == len(radii)):
            raise ValueError("masses, concentrations and radii must have equal length")
        return cls(
            [
                ParticleClass(i, m, c, r)
                for i, (m, c, r) in enumerate(zip(masses, concentrations, radii))
            ]
        )

    @property
    def k(self) -> int:
        return len(self.classes)

    # the class tuple is immutable, so each array is built once and shared
    # read-only: a caller that writes into one fails instead of aliasing
    @cached_property
    def masses(self) -> np.ndarray:
        return _read_only([c.mass for c in self.classes])

    @cached_property
    def concentrations(self) -> np.ndarray:
        return _read_only([c.concentration for c in self.classes])

    @cached_property
    def radii(self) -> np.ndarray:
        return _read_only([c.radius for c in self.classes])

    @cached_property
    def common_concentration(self) -> float | None:
        """The concentration every class shares, or None when two differ."""
        first = self.classes[0].concentration
        return first if all(c.concentration == first for c in self.classes) else None

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i: int) -> ParticleClass:
        return self.classes[i]


def _read_only(values: Sequence[float]) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


def _check_square(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"dependence matrix must be square, got shape {c.shape}")
    return c


def validate_dependence(
    c: "DependenceMatrix | np.ndarray | Sequence[Sequence[float]]",
    q: Sequence[float] | None = None,
) -> list[str]:
    """Report-style validation of a dependence matrix.

    Returns one message per violation; an empty list means the matrix is a
    valid dependence parameter set: symmetric, every entry strictly below 1
    (every 1 - C denominator positive), and, when first-order probabilities
    ``q`` are supplied, feasible in the sense that the implied second-order
    inclusion probability q_i*q_j*(1-C_ij) does not exceed min(q_i, q_j).
    """
    if isinstance(c, DependenceMatrix):
        c = c.values
    c = _check_square(c)
    k = c.shape[0]
    c = c.tolist()  # Python floats, so the messages print plain numbers
    violations: list[str] = []
    for i in range(k):
        for j in range(i + 1, k):
            if c[i][j] != c[j][i]:
                violations.append(f"asymmetry at ({i},{j}): {c[i][j]!r} != {c[j][i]!r}")
    for i in range(k):
        for j in range(i, k):
            if not c[i][j] < 1.0:
                violations.append(f"C[{i},{j}] must be < 1, got {c[i][j]!r}")
    if q is not None:
        q = np.asarray(q, dtype=float)
        if q.shape != (k,):
            raise ValueError(f"q must have length {k}, got shape {q.shape}")
        for i in range(k):
            for j in range(i, k):
                lower = 1.0 - 1.0 / float(max(q[i], q[j]))
                if c[i][j] < lower:
                    violations.append(
                        f"C[{i},{j}]={c[i][j]!r} below feasibility bound "
                        f"{lower!r} (pair probability would exceed min(q_i,q_j))"
                    )
    return violations


def dependence_from_inclusion(pi1: np.ndarray, pi2: np.ndarray) -> np.ndarray:
    """The dependence values 1 - pi2_ij / (pi1_i pi1_j) of first-order
    probabilities ``pi1`` (..., K) and pair probabilities ``pi2`` (..., K,
    K); NaN (unestimable) where the product pi1_i pi1_j is 0 or not finite."""
    outer = pi1[..., :, None] * pi1[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 1.0 - pi2 / outer
    c[~np.isfinite(outer) | (outer == 0)] = np.nan
    return c


@dataclass(frozen=True)
class DependenceMatrix:
    """Symmetric per-class-pair dependence parameters, all strictly < 1.

    Entry (i, j) measures how far the inclusion of an (i, j) particle pair
    deviates from independent selection: 0 is independent, negative values
    mean the pair is selected together more often (clustering), positive
    values less often (repulsion).
    """

    values: np.ndarray

    def __init__(self, values, q: Sequence[float] | None = None):
        arr = _check_square(np.array(values, dtype=float, copy=True))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        violations = validate_dependence(arr, q)
        if violations:
            raise ValueError("invalid dependence matrix: " + "; ".join(violations))

    @classmethod
    def zeros(cls, k: int) -> "DependenceMatrix":
        return cls(np.zeros((k, k)))

    @property
    def k(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, ij) -> float:
        return float(self.values[ij])


def _summary_identities(counts: np.ndarray, table: ClassTable) -> tuple[float, float]:
    # imported here: the estimators module imports this one
    from .estimators import sample_concentration, sample_totals

    mass, analyte = sample_totals(counts[None, :], table)
    if mass[0] <= 0:
        raise EmptySampleError("sample has zero total mass")
    return float(mass[0]), float(sample_concentration(mass, analyte, table, counts[None, :])[0])


class _Summary:
    """What the sample and expectation summaries share: per-class counts with
    the mass and concentration derived from them."""

    _label = ""

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def counts_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=float)

    def check_consistent(self, table: ClassTable) -> None:
        """Raise if mass/concentration do not follow from the counts."""
        mass, conc = _summary_identities(self.counts_array, table)
        if abs(self.mass - mass) > CONSISTENCY_RTOL * mass:
            raise ValueError(
                f"{self._label} mass {self.mass!r} inconsistent with counts (expected {mass!r})"
            )
        if abs(self.concentration - conc) > CONSISTENCY_RTOL * max(abs(conc), 1.0):
            raise ValueError(
                f"{self._label} concentration {self.concentration!r} inconsistent "
                f"with counts (expected {conc!r})"
            )


@dataclass(frozen=True)
class SampleSummary(_Summary):
    """Observed per-class particle counts with the derived mass and
    concentration of the sample."""

    counts: tuple[int, ...]
    mass: float
    concentration: float
    _label = "sample"


@dataclass(frozen=True)
class ExpectationSummary(_Summary):
    """Expected per-class counts (real-valued) with derived expected mass
    and concentration."""

    counts: tuple[float, ...]
    mass: float
    concentration: float
    _label = "expected"


def derive_summary(counts: Sequence[int], table: ClassTable) -> SampleSummary:
    """Build a SampleSummary from counts; mass and concentration are computed,
    never trusted.

    Raises EmptySampleError when every count is zero.
    """
    counts = list(counts)
    if len(counts) != table.k:
        raise ValueError(f"expected {table.k} counts, got {len(counts)}")
    if any(n < 0 for n in counts):
        raise ValueError("counts must be non-negative")
    if any(int(n) != n for n in counts):
        raise ValueError("sample counts must be integers")
    counts = [int(n) for n in counts]
    if not any(counts):
        raise EmptySampleError("all class counts are zero")
    mass, conc = _summary_identities(np.array(counts, dtype=float), table)
    return SampleSummary(tuple(counts), mass, conc)


def derive_expectation(counts: Sequence[float], table: ClassTable) -> ExpectationSummary:
    """ExpectationSummary analogue of derive_summary (real-valued counts)."""
    counts = [float(n) for n in counts]
    if len(counts) != table.k:
        raise ValueError(f"expected {table.k} counts, got {len(counts)}")
    if any(n < 0 for n in counts):
        raise ValueError("counts must be non-negative")
    if not any(counts):
        raise EmptySampleError("all expected class counts are zero")
    mass, conc = _summary_identities(np.array(counts), table)
    return ExpectationSummary(tuple(counts), mass, conc)


def first_order_probabilities(q: Sequence[float]) -> tuple[float, ...]:
    """``q`` as floats, each checked to be an inclusion probability in (0, 1]."""
    q = tuple(float(v) for v in q)
    for i, qi in enumerate(q):
        if not (0.0 < qi <= 1.0):
            raise ValueError(f"q[{i}] must be in (0, 1], got {qi}")
    return q


@dataclass(frozen=True)
class BatchSpec:
    """Batch mass and per-class first-order inclusion probabilities.

    Under correct sampling all particles share q = M_sample / M_batch; the
    ``correct_sampling`` flag enforces equal q across classes.
    """

    batch_mass: float
    first_order_q: tuple[float, ...]
    correct_sampling: bool = False

    def __init__(self, batch_mass: float, first_order_q: Sequence[float],
                 correct_sampling: bool = False):
        object.__setattr__(self, "batch_mass", float(batch_mass))
        if not self.batch_mass > 0:
            raise ValueError(f"batch mass must be > 0, got {batch_mass}")
        object.__setattr__(self, "first_order_q", first_order_probabilities(first_order_q))
        object.__setattr__(self, "correct_sampling", bool(correct_sampling))
        if self.correct_sampling and len(set(self.first_order_q)) > 1:
            raise ValueError("correct sampling requires all q_i equal")

    @classmethod
    def correct(cls, batch_mass: float, sample_mass: float, k: int) -> "BatchSpec":
        """Correct-sampling batch: every class gets q = sample_mass / batch_mass."""
        q = sample_mass / batch_mass
        return cls(batch_mass, [q] * k, correct_sampling=True)

    @property
    def k(self) -> int:
        return len(self.first_order_q)

    @property
    def q(self) -> np.ndarray:
        return np.array(self.first_order_q)
