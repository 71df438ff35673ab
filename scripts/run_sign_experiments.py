#!/usr/bin/env python3
"""Sign experiments: dependence values induced by spatial structure.

Runs window-sampling ensembles over clustered, independently-labeled
clustered, and hard-core fields and prints the per-cell dependence means
with their seed-ensemble z scores.  Clustering drives values negative,
hard-core repulsion drives the same-class values positive, and complete
spatial randomness sits at zero.
"""
import argparse

import numpy as np

from granvar.experiments import (
    binary_table,
    clustered_params,
    gy_null_ensemble,
    hardcore_params,
    window_ensemble,
)


def show(name, ens):
    print(f"\n{name}")
    for (a, b) in [(0, 0), (0, 1), (1, 1)]:
        vals = ens.cell_values(a, b)
        print(
            f"  C[{a},{b}]: mean {np.nanmean(vals):+8.4f}   "
            f"z {ens.cell_z(a, b):+7.2f}"
        )
    print(f"  model-vs-empirical improvement fraction: {ens.improvement_fraction():.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--master-seed", type=int, default=606)
    args = parser.parse_args()

    table = binary_table()
    common = dict(replicates=args.replicates, n_seeds=args.seeds, master_seed=args.master_seed)

    show(
        "single-class clusters (window 0.10 < cluster diameter 0.16)",
        window_ensemble(
            clustered_params(cluster_radius=0.08, class_correlation=1.0,
                             parent_intensity=60.0, offspring_mean=8.0),
            table, window=(0.1, 0.1), **common,
        ),
    )
    show(
        "clustered positions, independent labels (all pairs co-occur)",
        window_ensemble(
            clustered_params(cluster_radius=0.08, class_correlation=0.0,
                             parent_intensity=60.0, offspring_mean=8.0),
            table, window=(0.1, 0.1), **common,
        ),
    )
    show(
        "hard-core repulsion (window comparable to exclusion distance)",
        window_ensemble(hardcore_params(), table, window=(0.1, 0.1), **common),
    )
    show(
        "independence null (window counts drawn from the exact Poisson law)",
        gy_null_ensemble(**common),
    )


if __name__ == "__main__":
    main()
