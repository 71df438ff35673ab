"""Layer timings of field generation and window counting, as one JSON object.

Times, at each particle count n, the best of ``--repeat`` timeit runs of:

- ``assign_classes`` of n labels, at K = 2, 5, 40 and 100 classes;
- the ``CellStrips`` build over a Poisson field of n particles, on that
  field's own grid (``SpatialField.cell_grid``);
- ``generate_field`` of each variant on the unit square, n particles
  expected;
- ``window_counts`` of 500 windows of side 0.05 on the cluster field, its
  cell index already built.

Each value is seconds per call, to 3 significant digits.  Run from the
repository root:

    python3 scripts/layer_times.py                 # n = 500 ... 100,000
    python3 scripts/layer_times.py --sizes 500 --repeat 2

Uses numpy and the standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from granvar.fields import CellStrips, ProcessParams, assign_classes, generate_field  # noqa: E402
from granvar.model import ClassTable  # noqa: E402
from granvar.selection import window_counts  # noqa: E402

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


def layer_times(sizes, repeat: int) -> dict:
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
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="particle counts n (default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timeit runs per value; the best is kept (default: %(default)s)")
    args = parser.parse_args(argv)
    result = {
        "unit": "s per call",
        "repeat": args.repeat,
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "layers": layer_times(args.sizes, args.repeat),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
