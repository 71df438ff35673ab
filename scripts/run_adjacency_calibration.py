#!/usr/bin/env python3
"""Calibrate the transect adjacency estimator against the window oracle.

Sweeps cluster tightness and prints both dependence series side by side
with the rank correlation, quantifying how faithfully adjacency statistics
track the oracle.  The oracle is each field's exact window C, from its
pair overlaps (``selection.window_dependence``), averaged over the seeds'
fields; no windows are drawn.
"""
import argparse

from granvar.experiments import monotonicity_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=25, help="seeds per sweep point")
    parser.add_argument("--master-seed", type=int, default=8802)
    parser.add_argument(
        "--radii", type=float, nargs="+", default=[0.10, 0.08, 0.06, 0.045, 0.03],
    )
    args = parser.parse_args()

    res = monotonicity_sweep(
        cluster_radii=args.radii, n_seeds=args.seeds, master_seed=args.master_seed,
    )
    print(f"{'cluster radius':>15} {'oracle C':>12} {'adjacency C':>12}")
    for r, o, a in zip(res.cluster_radii, res.oracle_series, res.adjacency_series):
        print(f"{r:>15.3f} {o:>12.3f} {a:>12.3f}")
    print(f"\nSpearman rank correlation: {res.spearman:.3f}")


if __name__ == "__main__":
    main()
