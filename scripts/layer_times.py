"""Layer timings of field generation, window counting, replicate
aggregation and CSV writing, as one JSON object.

Times, at each particle count n, the best of ``--repeat`` timeit runs of:

- ``assign_classes`` of n labels, at K = 2, 5, 40 and 100 classes;
- the ``CellStrips`` build over a Poisson field of n particles, on that
  field's own grid (``SpatialField.cell_grid``);
- ``generate_field`` of each variant on the unit square, n particles
  expected;
- ``window_counts`` of 500 windows of side 0.05 on the cluster field, its
  cell index already built;
- ``window_dependence``, the exact window C of side 0.05, on the Poisson
  field, its column strips already built.  Its candidate pairs grow as
  n * lambda * 4wh, quadratic in n on the unit square, so it is timed only
  up to n = 50,000 (about 2 s a call); the output names that cap as
  ``window_dependence_max_n``;
- ``save_field_csv`` of the Poisson field, to a file in a temporary
  directory (rewritten in place);

at K = 2, 10, 40 and 100 classes, on R seeded (R, K) count rows, R taking
the values of ``--sizes`` too:

- ``inclusion_from_fractions(*pair_fractions(counts, pop))``;
- ``compare_estimators`` of those rows, their summary and estimate
  already built;
- ``write_numbered_rows`` of their ``replicates.csv`` rows (index, M_s,
  c_s and counts, as ``simulate`` writes them) to memory, at K = 2 and 40
  only.

Their memory grows as R * K (the moment matrices are K^2 per run), so
R = 100,000 at K = 100 needs about 0.6 GB.  And once:

- ``aggregate.null``: ``experiments._aggregate_seeds`` of the null
  ensemble's stack, 50 seeds of R = 200 Poisson window counts at K = 2
  (keyed by the seed count).

Each value is seconds per call, to 3 significant digits.  glibc's malloc
thresholds are pinned first, as ``granvar.cli.main`` pins them, so a
layer's time does not depend on which layers freed memory before it.  Run
from the repository root:

    python3 scripts/layer_times.py                 # n, R = 500 ... 100,000
    python3 scripts/layer_times.py --sizes 500 --repeat 2

Uses numpy and the standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import platform
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from granvar.experiments import (  # noqa: E402
    _aggregate_seeds, _draw_window_counts, _window_count_rates, binary_table, poisson_null_params,
)
from granvar.cli import _keep_freed_memory  # noqa: E402
from granvar.fields import (  # noqa: E402
    CellStrips, ProcessParams, assign_classes, generate_field, save_field_csv,
)
from granvar.model import ClassTable  # noqa: E402
from granvar.selection import (  # noqa: E402
    ReplicateStats, compare_estimators, inclusion_from_fractions, pair_fractions, window_counts,
    window_dependence,
)
from granvar.util import derived_rng, write_numbered_rows  # noqa: E402

SIZES = (500, 5_000, 50_000, 100_000)
SEED = 11
MIXING = {2: (0.5, 0.5), 5: (0.1, 0.2, 0.3, 0.25, 0.15),
          40: (1 / 40,) * 40, 100: (1 / 100,) * 100}
#: Particle radius of the Poisson, cluster and graded fields (as in the
#: benchmark's window workload) and area fraction of the hard-core disks.
RADIUS = 0.002
HARDCORE_COVER = 0.1
WINDOWS = 500
WINDOW_SIDE = 0.05
#: Largest n at which ``window_dependence``, quadratic in n, is timed.
WINDOW_DEPENDENCE_MAX_N = 50_000
#: Class counts K of the aggregation layers; every class has POPULATION
#: members, each selected with chance SELECTED.
AGGREGATE_K = (2, 10, 40, 100)
#: Class counts K at which the replicate rows are written.
WRITE_K = (2, 40)
POPULATION = 50
SELECTED = 0.2
#: The null ensemble's stack: seeds, replicates per seed, window and
#: field intensity (as ``experiments.gy_null_ensemble``'s defaults).
NULL_SEEDS, NULL_REPLICATES, NULL_WINDOW, NULL_INTENSITY = 50, 200, (0.3, 0.3), 500.0
#: Calls per timeit run: enough for a run to last about this long.
RUN_SECONDS = 0.02


def best_time(call, repeat: int) -> float:
    """Best of ``repeat`` timeit runs of ``call``, in seconds per call."""
    once = min(timeit.repeat(call, number=1, repeat=2))
    number = max(1, int(RUN_SECONDS / max(once, 1e-9)))
    best = min(timeit.repeat(call, number=number, repeat=repeat)) / number
    return float(f"{best:.3g}")


def field_params(variant: str, n: int) -> ProcessParams:
    """Parameters of an n-particle (expected) field on the unit square."""
    shared = dict(variant=variant, width=1.0, height=1.0, mixing=MIXING[2])
    if variant == "matern_cluster":
        return ProcessParams(**shared, parent_intensity=n / 16, offspring_mean=16.0,
                             cluster_radius=0.02, class_correlation=0.75)
    if variant == "graded":
        return ProcessParams(**shared, intensity=float(n), gradient=(0.5, -0.5))
    return ProcessParams(**shared, intensity=float(n))


def field_table(variant: str, n: int) -> ClassTable:
    radius = math.sqrt(HARDCORE_COVER / (math.pi * n)) if variant == "hardcore" else RADIUS
    return ClassTable.from_arrays([1.0, 2.0], [1.0, 0.0], [radius, radius])


def layer_times(sizes, repeat: int, out_dir: Path) -> dict:
    layers: dict[str, dict[str, float]] = {}

    def record(name, n, call):
        layers.setdefault(name, {})[str(n)] = best_time(call, repeat)

    for n in sizes:
        for k, mixing in MIXING.items():
            rng = np.random.default_rng(SEED)
            p = np.array(mixing)
            record(f"assign_classes.k{k}", n, lambda: assign_classes(n, p, rng))
        fields = {}
        for variant in ("poisson", "matern_cluster", "hardcore", "graded"):
            params, table = field_params(variant, n), field_table(variant, n)
            fields[variant] = generate_field(params, table, SEED)
            record(f"generate_field.{variant}", n,
                   lambda: generate_field(params, table, SEED))
        poisson = fields["poisson"]
        grid = poisson.cell_grid
        record("cell_strips", n,
               lambda: CellStrips(poisson.x, poisson.y, *grid, poisson.width, poisson.height))
        cluster = fields["matern_cluster"]
        anchors = np.random.default_rng(SEED).random((WINDOWS, 2))
        record("window_counts", n,
               lambda: window_counts(cluster, anchors, WINDOW_SIDE, WINDOW_SIDE, 2))
        if n <= WINDOW_DEPENDENCE_MAX_N:
            record("window_dependence", n,
                   lambda: window_dependence(poisson, WINDOW_SIDE, WINDOW_SIDE, 2))
        record("save_field_csv", n, lambda: save_field_csv(poisson, out_dir / "field.csv"))
    for r in sizes:
        for k in AGGREGATE_K:
            rng = np.random.default_rng(SEED)
            pop = np.full(k, POPULATION)
            counts = rng.binomial(pop, SELECTED, size=(r, k))
            table = ClassTable.from_arrays(rng.uniform(0.5, 2.0, k), rng.uniform(0.0, 1.0, k))
            stats = ReplicateStats.from_counts(counts, table)
            est = inclusion_from_fractions(*pair_fractions(counts, pop))
            record(f"inclusion_from_fractions.k{k}", r,
                   lambda: inclusion_from_fractions(*pair_fractions(counts, pop)))
            record(f"compare_estimators.k{k}", r,
                   lambda: compare_estimators(stats, est, table))
            if k in WRITE_K:
                record(f"write_numbered_rows.k{k}", r, lambda: write_numbered_rows(
                    io.BytesIO(), [stats.mass, stats.cs, *stats.distinct.T], stats.inverse))
    rates = _window_count_rates(poisson_null_params(NULL_INTENSITY), NULL_WINDOW)
    draws = [_draw_window_counts(rates, NULL_REPLICATES, derived_rng(SEED, s))
             for s in range(NULL_SEEDS)]
    table = binary_table()
    record("aggregate.null", NULL_SEEDS, lambda: _aggregate_seeds(draws, table))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="particle counts n and replicate counts R "
                             "(default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timeit runs per value; the best is kept (default: %(default)s)")
    args = parser.parse_args(argv)
    _keep_freed_memory()
    with tempfile.TemporaryDirectory() as out_dir:
        layers = layer_times(args.sizes, args.repeat, Path(out_dir))
    result = {
        "unit": "s per call",
        "repeat": args.repeat,
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "window_dependence_max_n": WINDOW_DEPENDENCE_MAX_N,
        "layers": layers,
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
