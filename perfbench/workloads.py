"""The four benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a ``Workload`` with three steps:

* ``make_input(rng)`` draws one scenario (the JSON the program reads) from
  the seeded generator.  Only sizes fixed here set an operation's cost; the
  seed varies the realisation (scenario seed, class table, design weights).
* ``run(ctx)`` is one timed operation, a complete user action driven
  through ``granvar.cli.main`` or the public API, in-process.
* ``check(ctx, result)`` verifies the outputs of that operation against an
  exact law.  It runs outside the timed region and returns a list of
  failure messages (empty when the outputs are correct).

Every check has a stated false-alarm rate, so a failure on some seed is a
finding, never a reason to re-seed or resize.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.stats import poisson

from granvar.cli import main as cli_main
from granvar.estimators import variance_expected
from granvar.experiments import gy_null_ensemble
from granvar.model import derive_expectation
from granvar.scenario import ScenarioConfig, build_design, load_scenario
from granvar.selection import enumerate_design


@dataclass
class Context:
    """One generated scenario: its file, as parsed, and the output directory."""

    config_path: Path
    config: ScenarioConfig
    out_dir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[np.random.Generator], dict]
    run: Callable[[Context], Any]
    check: Callable[[Context, Any], list[str]]


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _cli_op(command: str) -> Callable[[Context], int]:
    def run(ctx: Context) -> int:
        return cli_main([command, "--config", str(ctx.config_path),
                         "--out", str(ctx.out_dir), "--threads", "1"])
    return run


def _exit_failures(code: int) -> list[str]:
    return [] if code == 0 else [f"cli exited with code {code}"]


def _within(name: str, estimate: float, exact: float, se: float, sigma: float,
            atol: float = 0.0) -> list[str]:
    if not (math.isfinite(estimate) and math.isfinite(se)):
        return [f"{name}: non-finite estimate {estimate!r} (se {se!r})"]
    if abs(estimate - exact) > sigma * se + atol:
        return [f"{name}: {estimate!r} is {abs(estimate - exact) / se:.2f} SE "
                f"from the exact {float(exact)!r} (limit {sigma})"]
    return []


# ---------------------------------------------------------------------------
# window_cluster
# ---------------------------------------------------------------------------

#: Window-design replicates and window side of ``window_cluster``.
WINDOW_REPLICATES = 500
WINDOW_SIDE = 0.05
#: Per-class pi1 must lie within this many SE of the window area fraction.
#: The law is exact for a fixed field on the torus (every particle is in a
#: uniformly placed window with probability equal to the area fraction);
#: under the normal approximation a class fails by chance with
#: probability 6.3e-5.
WINDOW_SIGMA = 4.0


def _window_cluster_input(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(2**31)),
        "classes": [
            {"mass": float(rng.uniform(0.5, 2.0)), "concentration": 1.0, "radius": 0.002},
            {"mass": float(rng.uniform(0.5, 2.0)), "concentration": 0.0, "radius": 0.002},
        ],
        "replicates": WINDOW_REPLICATES,
        "field": {
            "variant": "matern_cluster",
            "mixing": [0.5, 0.5],
            "parent_intensity": 6250,
            "offspring_mean": 16,
            "cluster_radius": 0.02,
            "class_correlation": float(rng.uniform(0.5, 1.0)),
        },
        "design": {"variant": "window", "width": WINDOW_SIDE, "height": WINDOW_SIDE},
    }


def _window_cluster_check(ctx: Context, code: int) -> list[str]:
    failures = _exit_failures(code)
    if failures:
        return failures
    area_fraction = WINDOW_SIDE * WINDOW_SIDE
    for row in _read_csv(ctx.out_dir / "first_order.csv"):
        failures += _within(f"pi1[{row['i']}]", float(row["pi_i"]), area_fraction,
                            float(row["se"]), WINDOW_SIGMA)
    n_rows = len(_read_csv(ctx.out_dir / "replicates.csv"))
    if n_rows != WINDOW_REPLICATES:
        failures.append(f"replicates.csv has {n_rows} rows, expected {WINDOW_REPLICATES}")
    return failures


# ---------------------------------------------------------------------------
# pairwise_oracle
# ---------------------------------------------------------------------------

PAIRWISE_PARTICLES = 20
PAIRWISE_CLASSES = 3
PAIRWISE_REPLICATES = 100_000
#: Monte Carlo pi1, pi2 and v_e must lie within this many SE of the exact
#: enumeration.  Ten cells are tested per operation; under the normal
#: approximation (R = 1e5) an operation fails by chance with probability
#: 5.7e-6.
PAIRWISE_SIGMA = 5.0


def _pairwise_oracle_input(rng: np.random.Generator) -> dict:
    k = PAIRWISE_CLASSES
    # every class gets at least two members, so every pi2 cell is defined
    class_of = rng.permutation(np.arange(PAIRWISE_PARTICLES) % k)
    phi = rng.uniform(0.5, 1.5, size=(k, k))
    phi = np.triu(phi) + np.triu(phi, 1).T
    return {
        "seed": int(rng.integers(2**31)),
        "classes": [
            {"mass": float(rng.uniform(0.5, 2.0)),
             "concentration": float(rng.uniform(0.0, 1.5))}
            for _ in range(k)
        ],
        "replicates": PAIRWISE_REPLICATES,
        "design": {
            "variant": "pairwise_pmf",
            "q": [float(v) for v in rng.uniform(0.2, 0.8, size=k)],
            "phi": phi.tolist(),
            "class_of": [int(c) for c in class_of],
        },
    }


def _pairwise_oracle_run(ctx: Context):
    code = _cli_op("simulate")(ctx)
    table = ctx.config.table
    design = build_design(ctx.config, None)
    exact = enumerate_design(design, table)
    population = np.bincount(design.class_of, minlength=table.k)
    expectation = derive_expectation(population * exact.pi1, table)
    model = variance_expected(expectation, table, exact.c_exact)
    return code, exact, model


def _pairwise_oracle_check(ctx: Context, result) -> list[str]:
    code, exact, model = result
    failures = _exit_failures(code)
    if failures:
        return failures
    for row in _read_csv(ctx.out_dir / "first_order.csv"):
        u = int(row["i"])
        failures += _within(f"pi1[{u}]", float(row["pi_i"]), exact.pi1[u],
                            float(row["se"]), PAIRWISE_SIGMA)
    for row in _read_csv(ctx.out_dir / "estimates.csv"):
        u, v = int(row["i"]), int(row["j"])
        failures += _within(f"pi2[{u},{v}]", float(row["pi_ij"]), exact.pi2[u, v],
                            float(row["se"]), PAIRWISE_SIGMA)
    summary = {row["key"]: row["value"] for row in _read_csv(ctx.out_dir / "summary.csv")}
    # the enumerated variance is E[c^2] - E[c]^2 and carries rounding of
    # that scale, hence the absolute floor
    atol = 1e-12 * (exact.var_cs + exact.mean_cs**2)
    failures += _within("v_e", float(summary["v_e"]), exact.var_cs,
                        float(summary["v_e_se"]), PAIRWISE_SIGMA, atol)
    if not (math.isfinite(model.value) and model.value > 0):
        failures.append(f"variance_expected at the exact C is {model.value!r}")
    return failures


# ---------------------------------------------------------------------------
# transect_hardcore
# ---------------------------------------------------------------------------

HARDCORE_MIN_GAP = 0.002
TRANSECT_COUNT = 1000


def _transect_hardcore_input(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(2**31)),
        "classes": [
            {"mass": float(rng.uniform(0.5, 2.0)), "concentration": 1.0, "radius": 0.002},
            {"mass": float(rng.uniform(0.5, 2.0)), "concentration": 0.0, "radius": 0.004},
        ],
        "field": {
            "variant": "hardcore",
            "mixing": [0.5, 0.5],
            "intensity": 6000,
            "min_gap": HARDCORE_MIN_GAP,
        },
        "transects": {"count": TRANSECT_COUNT, "length": 1.0, "orientation": "random"},
    }


def read_field(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, radius) of a field CSV, parsed exactly (17 significant digits)."""
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def close_pairs(x: np.ndarray, y: np.ndarray, radius: np.ndarray, gap: float,
                box: tuple[float, float] | None = None) -> int:
    """Pairs whose centre distance is below r_i + r_j + gap.

    Planar when ``box`` is None, toroidal on a ``box`` domain otherwise.  The
    k-d tree only proposes candidates; each distance and limit is then
    recomputed in the generator's own arithmetic, so the planar count is
    exact.  Memory is O(n + candidate pairs), not O(n^2).
    """
    from scipy.spatial import cKDTree  # not part of the program's set-up

    reach = 2.0 * float(radius.max()) + gap
    points = np.column_stack([x, y])
    tree = cKDTree(points, boxsize=box) if box else cKDTree(points)
    pairs = tree.query_pairs(reach * (1.0 + 1e-9), output_type="ndarray")
    if len(pairs) == 0:
        return 0
    i, j = pairs[:, 0], pairs[:, 1]
    dx = np.abs(x[i] - x[j])
    dy = np.abs(y[i] - y[j])
    if box:
        dx = np.minimum(dx, box[0] - dx)
        dy = np.minimum(dy, box[1] - dy)
    limit = radius[i] + radius[j] + gap
    return int(np.count_nonzero(np.hypot(dx, dy) < limit))


def _transect_hardcore_check(ctx: Context, code: int) -> list[str]:
    failures = _exit_failures(code)
    if failures:
        return failures
    x, y, radius = read_field(ctx.out_dir / "field.csv")
    # the exact law of the generator: no two accepted disks closer than
    # r_i + r_j + min_gap in the plane; a deterministic check, no false alarms
    violations = close_pairs(x, y, radius, HARDCORE_MIN_GAP)
    if violations:
        failures.append(f"{violations} planar pairs violate the hard-core gap")
    # every adjacent pair along a transect is one tallied transition
    hits = np.bincount([int(r["transect_id"]) for r in _read_csv(ctx.out_dir / "transects.csv")],
                       minlength=TRANSECT_COUNT)
    expected = int(np.maximum(hits - 1, 0).sum())
    tallied = sum(int(v) for row in _read_csv(ctx.out_dir / "counts.csv")
                  for key, v in row.items() if key != "class_id")
    if tallied != expected:
        failures.append(f"counts.csv tallies {tallied} transitions, transects imply {expected}")
    return failures


# ---------------------------------------------------------------------------
# null_ensemble
# ---------------------------------------------------------------------------

#: |gy_null_z| limit.  The statistic is a paired t over 50 seeds (49 degrees
#: of freedom) of a difference with mean zero under the null, so it exceeds
#: 5 by chance with probability 8e-6.
NULL_Z_LIMIT = 5.0


def _null_ensemble_input(rng: np.random.Generator) -> dict:
    # gy_null_ensemble fixes its own binary class table; the classes here
    # only satisfy the scenario format
    return {
        "seed": int(rng.integers(2**31)),
        "classes": [
            {"mass": 1.0, "concentration": 1.0, "radius": 0.01},
            {"mass": 1.0, "concentration": 0.0, "radius": 0.01},
        ],
        "replicates": 200,
        "field": {"variant": "poisson", "mixing": [0.5, 0.5], "intensity": 500},
        "design": {"variant": "window", "width": 0.3, "height": 0.3},
        "calibration": {"n_seeds": 50},
    }


def null_ensemble_op(config: ScenarioConfig, threads: int = 1):
    """``gy_null_ensemble`` with the parameters of a null_ensemble scenario."""
    return gy_null_ensemble(
        intensity=config.field.intensity,
        window=(float(config.design["width"]), float(config.design["height"])),
        replicates=config.replicates,
        n_seeds=int(config.calibration["n_seeds"]),
        master_seed=config.seed,
        threads=threads,
    )


def _null_ensemble_check(ctx: Context, ensemble) -> list[str]:
    failures = []
    for s, o in enumerate(ensemble.outcomes):
        values = [o.v_e, o.v_e_se, o.moment_zero, o.moment_empirical, *o.c_hat.ravel()]
        if not all(math.isfinite(v) for v in values):
            failures.append(f"seed {s}: non-finite output")
    z = ensemble.gy_null_z()
    if not abs(z) <= NULL_Z_LIMIT:
        failures.append(f"|gy_null_z| = {abs(z):.3f} exceeds {NULL_Z_LIMIT}")
    # Exact law of the null: a window holds n ~ Poisson(intensity * area)
    # particles, each in class 0 with probability 1/2, and the experiment's
    # binary table gives c_s = N_0 / n.  So v_e is unbiased for
    # E[1/(4n) | n >= 1]; its mean over the seeds is a t statistic with 49
    # degrees of freedom, which exceeds NULL_Z_LIMIT by chance with
    # probability 8e-6.
    design = ctx.config.design
    rate = ctx.config.field.intensity * float(design["width"]) * float(design["height"])
    n = np.arange(1, int(rate + 40 * math.sqrt(rate)) + 1)
    pmf = poisson.pmf(n, rate)
    exact = float(np.sum(pmf / (4.0 * n)) / pmf.sum())
    v_e = np.array([o.v_e for o in ensemble.outcomes])
    failures += _within("mean v_e", float(v_e.mean()), exact,
                        float(v_e.std(ddof=1) / math.sqrt(len(v_e))), NULL_Z_LIMIT)
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        # Why: window counting in selection is ~93% of the operation, and only
        # 0.25% of its particle-window tests hit; a spatial index shows here.
        Workload("window_cluster", _window_cluster_input,
                 _cli_op("simulate"), _window_cluster_check),
        # Why: 2^20-subset enumeration, the sampler's subset-weight table and
        # 1e5 CSV rows dominate, with no spatial code; class-count
        # enumeration and CSV-writer work show here.
        Workload("pairwise_oracle", _pairwise_oracle_input,
                 _pairwise_oracle_run, _pairwise_oracle_check),
        # Why: the Python dart loop in fields and two cast_transects calls
        # dominate; no window counting or enumeration runs.
        Workload("transect_hardcore", _transect_hardcore_input,
                 _cli_op("intercept"), _transect_hardcore_check),
        # Why: 10,000 fresh 500-particle fields with one window each, so
        # per-call overhead dominates and an index cannot amortise its build.
        Workload("null_ensemble", _null_ensemble_input,
                 lambda ctx: null_ensemble_op(ctx.config), _null_ensemble_check),
    )
}


#: Scenarios generated per run; operations cycle through them, so a run's
#: median averages over several field realisations instead of resting on one.
INPUTS_PER_RUN = 8


def load(workload: Workload, seed: int, workdir: Path) -> list[Context]:
    """Generate the workload's scenarios from ``seed`` and load them as the
    program would."""
    rng = np.random.default_rng([list(WORKLOADS).index(workload.name), seed])
    contexts = []
    for i in range(INPUTS_PER_RUN):
        path = workdir / f"{workload.name}-{i}.json"
        path.write_text(json.dumps(workload.make_input(rng), indent=1) + "\n")
        contexts.append(Context(path, load_scenario(path), workdir / "out"))
    return contexts
