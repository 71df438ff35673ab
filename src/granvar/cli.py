"""The ``granvar`` command line tool.

Subcommands:

* ``estimate``   evaluate the closed-form estimators on a scenario
* ``simulate``   replicate a selection design and compare estimators
* ``intercept``  transect sampling, transition counts, adjacency dependence
* ``table1``     the canonical single-class dependence solution grid
* ``verify``     run the built-in consistency checks

Every run is driven by a JSON scenario (except ``table1`` and ``verify``)
and a mandatory seed; outputs are CSV files whose first line records the
tool version, the scenario hash and the seed.  Output is byte-identical
across reruns.  ``--threads`` is accepted for compatibility and ignored:
every stage runs serially.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime model error.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from . import estimators as est
from .errors import ConfigError, GranvarError
from .experiments import CalibrationReport, calibrate_against_oracle
from .fields import class_values, generate_field, save_field_csv
from .intercept import (
    adjacency_dependence,
    cast_transects,
    markov_fit,
    size_corrected_frequencies,
)
from .model import derive_expectation, derive_summary
from .scenario import ScenarioConfig, build_design, load_scenario
from .selection import compare_estimators, empirical_dependence, run_replicates
from .util import derived_seeds, format_sig, round_sig, write_csv_columns
from .verify import DEFAULT_VERIFY_SEED, run_checks

#: Stream indices for deriving per-stage seeds from the scenario seed.
_FIELD_STREAM, _REPLICATE_STREAM, _TRANSECT_STREAM, _CALIBRATE_STREAM = range(4)

#: glibc's ``mallopt`` parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: The ceiling glibc's own dynamic mmap threshold reaches on 64-bit
#: platforms, and twice it for the trim threshold, as glibc's dynamic rule
#: sets it.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
#: Environment variables through which a user sets glibc's malloc tunables.
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@functools.cache
def _keep_freed_memory() -> bool:
    """Let glibc keep freed blocks of up to 32 MiB for reuse; True when
    both thresholds were applied.  Runs once per process.

    With glibc's default thresholds an operation's large numpy temporaries
    go back to the kernel when freed, and their pages fault in again, one
    4 KiB page at a time, on the next allocation.  Only :func:`main` calls
    this, so library callers keep glibc's defaults, and so does a user who
    set glibc's own malloc tunables.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    if (any(name in os.environ for name in _MALLOC_ENV)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 when it rejects a setting, which then stays unset
    trimmed = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mapped = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    return bool(trimmed and mapped)


class _Writer:
    """CSV writer stamping every file with version, config hash and seed."""

    def __init__(self, out_dir: Path, config_hash: str, seed: int):
        self.out_dir = out_dir
        self.config_hash = config_hash
        self.seed = seed
        out_dir.mkdir(parents=True, exist_ok=True)

    @property
    def provenance(self) -> str:
        return f"granvar={__version__} config={self.config_hash} seed={self.seed}"

    def write(
        self, name: str, header: Sequence[str], columns: Sequence[Sequence],
        tail: tuple[Sequence[Sequence], np.ndarray] | None = None,
    ) -> Path:
        """Write one CSV file from its columns, which must be of equal length;
        ``tail`` as in :func:`write_csv_columns`."""
        path = self.out_dir / name
        with path.open("wb") as f:
            f.write(f"# {self.provenance}\n{','.join(header)}\n".encode())
            write_csv_columns(f, columns, tail)
        return path


def _resolve_out_dir(args, config: ScenarioConfig | None) -> Path:
    if args.out:
        return Path(args.out)
    if config is not None and config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get("GRANVAR_OUT")
    if env:
        return Path(env)
    return Path("granvar_out")


def _load(args) -> ScenarioConfig:
    if not args.config:
        raise ConfigError("--config", "this subcommand needs a scenario file")
    config = load_scenario(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def cmd_estimate(args) -> int:
    config = _load(args)
    writer = _Writer(_resolve_out_dir(args, config), config.config_hash, config.seed)
    table = config.table
    k = table.k
    dep = config.dependence.values if config.dependence is not None else np.zeros((k, k))

    rows = []
    if config.expected_counts is not None:
        exp = derive_expectation(config.expected_counts, table)
        r = est.variance_expected(exp, table, dep)
        rows.append(("variance_expected", r.value, r.gy_term, r.correction_term))
    if config.sample_counts is not None:
        sample = derive_summary(config.sample_counts, table)
        r = est.variance_sample(sample, table, dep)
        rows.append(("variance_sample", r.value, r.gy_term, r.correction_term))
        h = est.variance_ht(sample, table, dep)
        rows.append(("variance_ht", h.value, h.gy_term, h.correction_term))
        gy = est.variance_gy(sample, table)
        rows.append(("variance_gy", gy, gy, 0.0))
        analyte_classes = [i for i in range(k) if table.concentrations[i] > 0]
        if len(analyte_classes) == 1:
            i = analyte_classes[0]
            v_gy = est.gy_reference_variance(
                sample.concentration, table.concentrations[i], table.masses[i], sample.mass
            )
            rows.append(("gy_reference_single_class", v_gy, v_gy, 0.0))
            single = est.ht_single_class(
                sample.concentration, table.concentrations[i], table.masses[i],
                sample.mass, sample.counts[i], dep[i, i],
            )
            rows.append(("ht_single_class", single, single, 0.0))
        if config.batch is not None:
            rows.append(
                (
                    "pi_expanded_concentration",
                    est.pi_expanded_concentration(sample, table, config.batch),
                    "", "",
                )
            )
            finite = est.variance_ht_finite_batch(sample, table, dep, config.batch)
            rows.append(("variance_ht_finite_batch", finite, "", ""))
    if not rows and config.ckk_grid is None:
        raise ConfigError(
            "<root>", "estimate needs 'sample_counts', 'expected_counts' or 'ckk_grid'"
        )
    if rows:
        writer.write(
            "estimate.csv", ["estimator", "value", "gy_term", "correction_term"],
            list(zip(*rows)),
        )
    if config.ckk_grid is not None:
        n_k_values, ratios = config.ckk_grid
        grid = est.dependence_grid(n_k_values, ratios)
        writer.write("ckk_grid.csv", ["n_k", "ratio", "c_kk", "infeasible"],
                     [*_grid_columns(n_k_values, ratios, grid), grid.ravel() >= 1.0])
    return 0


def _grid_columns(n_k_values, ratio_values, grid: np.ndarray) -> list[np.ndarray]:
    """The ``n_k``, ``ratio`` and ``c_kk`` columns of a
    :func:`estimators.dependence_grid` result, one row per cell, row by row."""
    return [np.repeat(n_k_values, len(ratio_values)), np.tile(ratio_values, len(n_k_values)),
            grid.ravel()]


def cmd_simulate(args) -> int:
    config = _load(args)
    table = config.table
    k = table.k
    if config.replicates is None:
        raise ConfigError("replicates", "simulate needs a replicate count")
    field = None
    if config.field is not None:
        field = generate_field(config.field, table, derived_seeds(config.seed, _FIELD_STREAM)[0])
    design = build_design(config, field)
    stats, estimate = run_replicates(
        design, table, config.replicates, derived_seeds(config.seed, _REPLICATE_STREAM)[0]
    )
    dep = empirical_dependence(estimate)
    report = compare_estimators(stats, estimate, table)

    # nothing is written until every stage has succeeded
    writer = _Writer(_resolve_out_dir(args, config), config.config_hash, config.seed)
    if field is not None:
        save_field_csv(field, writer.out_dir / "field.csv", comment=writer.provenance)
    # a replicate row after its index is a function of the count row:
    # format each distinct row once
    writer.write(
        "replicates.csv",
        ["replicate", "M_s", "c_s"] + [f"N_{u}" for u in range(k)],
        [np.arange(len(stats.inverse))],
        ([stats.mass, stats.cs, *stats.distinct.T], stats.inverse),
    )
    writer.write(
        "first_order.csv", ["i", "pi_i", "se"], [np.arange(k), estimate.pi1, estimate.pi1_se]
    )
    iu, ju = np.triu_indices(k)
    writer.write(
        "estimates.csv",
        ["i", "j", "pi_ij", "se", "pc_hat", "ci_lo", "ci_hi"],
        [
            iu, ju, estimate.pi2[iu, ju], estimate.pi2_se[iu, ju],
            dep.c_hat[iu, ju], dep.ci_lo[iu, ju], dep.ci_hi[iu, ju],
        ],
    )
    writer.write(
        "comparison.csv",
        ["estimator", "dependence", "mode", "value", "v_e", "ratio", "z"],
        list(zip(*[
            (r.estimator, r.dependence, r.mode, r.value, r.v_e, r.ratio, r.z)
            for r in report.rows
        ])),
    )
    writer.write(
        "summary.csv",
        ["key", "value"],
        [
            ["replicates", "v_e", "v_e_se", "mean_cs", "mass_cv", "n_empty",
             "empty_fraction", "nan_dependence_cells"],
            [stats.replicates, stats.v_e, stats.v_e_se, stats.mean_cs, stats.mass_cv,
             stats.n_empty, stats.n_empty / stats.replicates, report.nan_dependence_cells],
        ],
    )
    return 0


def cmd_intercept(args) -> int:
    config = _load(args)
    table = config.table
    k = table.k
    if config.field is None:
        raise ConfigError("field", "intercept needs a 'field' section")
    if config.transects is None:
        raise ConfigError("transects", "intercept needs a 'transects' section")
    if config.calibration is not None and config.field.variant != "matern_cluster":
        raise ConfigError("calibration", "calibration sweeps need a matern_cluster field")
    field = generate_field(config.field, table, derived_seeds(config.seed, _FIELD_STREAM)[0])
    if field.n == 0:
        raise ConfigError("field", "generated field is empty; raise the intensity")
    spec = config.transects
    batch = cast_transects(
        field, spec.count, spec.orientation, spec.length,
        derived_seeds(config.seed, _TRANSECT_STREAM)[0],
    )
    adjacency, counts, corrected_freq = adjacency_dependence(batch, k)
    fit = markov_fit(counts)
    raw_freq = size_corrected_frequencies(batch, k, correct=False)
    calibration = None if config.calibration is None else _calibrate(config)

    # nothing is written until every stage has succeeded
    writer = _Writer(_resolve_out_dir(args, config), config.config_hash, config.seed)
    save_field_csv(field, writer.out_dir / "field.csv", comment=writer.provenance)
    hits = batch.hits
    columns = [
        np.repeat(np.arange(len(batch)), hits),
        np.arange(len(batch.particle_ids)) - np.repeat(batch.offsets[:-1], hits),
        batch.particle_ids, batch.class_ids, batch.chords,
    ]
    # a generated field's widths are one per class: format each class's once
    widths, tail = class_values(batch.widths, batch.class_ids), None
    if widths is None:
        columns.append(batch.widths)
    else:
        tail = ([widths], batch.class_ids)
    writer.write(
        "transects.csv",
        ["transect_id", "order", "particle_id", "class_id", "chord_length", "width"],
        columns, tail,
    )
    classes = np.arange(k)
    writer.write(
        "counts.csv",
        ["class_id"] + [str(u) for u in range(k)],
        [classes, *counts.n.T],
    )
    writer.write(
        "markov.csv",
        ["class_id"] + [f"p_{u}" for u in range(k)] + ["stationary", "known", "irreducible"],
        [classes, *fit.transition.T, fit.stationary, fit.known, [fit.irreducible] * k],
    )
    writer.write(
        "frequencies.csv",
        ["class_id", "raw_frequency", "size_corrected_frequency"],
        [classes, raw_freq, corrected_freq],
    )
    iu, ju = np.triu_indices(k)
    writer.write("adjacency.csv", ["i", "j", "c_hat"], [iu, ju, adjacency[iu, ju]])
    if calibration is not None:
        _write_calibration(writer, calibration, iu, ju)
    return 0


def _calibrate(config: ScenarioConfig) -> CalibrationReport:
    """The scenario's calibration sweep: its ``cluster_radius`` values
    applied to the scenario's matern_cluster field."""
    settings = config.calibration
    processes = [
        (f"cluster_radius={r:g}", replace(config.field, cluster_radius=r))
        for r in settings["cluster_radius"]
    ]
    return calibrate_against_oracle(
        processes, config.table, settings["window"], settings["replicates"],
        config.transects,
        master_seed=derived_seeds(config.seed, _CALIBRATE_STREAM)[0],
        n_seeds=settings["n_seeds"],
    )


def _write_calibration(
    writer: _Writer, report: CalibrationReport, iu: np.ndarray, ju: np.ndarray
) -> None:
    cases = report.cases
    writer.write(
        "calibration_cases.csv", ["case", "i", "j", "oracle_c", "adjacency_c"],
        [np.repeat([case.label for case in cases], len(iu)),
         np.tile(iu, len(cases)), np.tile(ju, len(cases)),
         *(np.concatenate([getattr(case, name)[iu, ju] for case in cases])
           for name in ("oracle_c", "adjacency_c"))],
    )
    writer.write(
        "calibration_summary.csv",
        ["key", "value"],
        list(zip(
            ("spearman", report.spearman),
            ("sign_agreement", report.sign_agreement),
            ("null_regime", report.null_regime),
            *[(f"note_{i}", note) for i, note in enumerate(report.notes)],
        )),
    )


def cmd_table1(args) -> int:
    grid = est.dependence_grid()
    header = ["n_k"] + [format_sig(r, 6) for r in est.GRID_RATIO]
    print("single-class dependence solutions (rows: N_k, columns: V_e/V_GY)")
    print("  ".join(f"{h:>10}" for h in header))
    for a, n_k in enumerate(est.GRID_N_K):
        cells = [f"{n_k:>10}"] + [
            f"{round_sig(grid[a, b], 2):>10.1e}" for b in range(len(est.GRID_RATIO))
        ]
        print("  ".join(cells))
    if args.out or os.environ.get("GRANVAR_OUT"):
        writer = _Writer(_resolve_out_dir(args, None), "none", 0)
        writer.write("table1.csv", ["n_k", "ratio", "c_kk"],
                     _grid_columns(est.GRID_N_K, est.GRID_RATIO, grid))
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_VERIFY_SEED
    if args.config:
        config = load_scenario(args.config)
        if args.seed is None:
            seed = config.seed
    results = run_checks(seed=seed, quick=args.quick)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granvar",
        description="Sampling-variance estimation for particulate materials "
        "with dependent particle selection",
    )
    parser.add_argument("--version", action="version", version=f"granvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--out", help="output directory (default: scenario out_dir, "
                                     "then $GRANVAR_OUT, then ./granvar_out)")
        p.add_argument("--threads", type=int, default=1,
                       help="kept for compatibility and ignored; must be at least 1")

    p_est = sub.add_parser("estimate", help="closed-form estimator report")
    common(p_est)
    p_est.set_defaults(fn=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="replicate a selection design")
    common(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_int = sub.add_parser("intercept", help="line-intercept sampling run")
    common(p_int)
    p_int.set_defaults(fn=cmd_intercept)

    p_tab = sub.add_parser("table1", help="single-class dependence solution grid")
    common(p_tab)
    p_tab.set_defaults(fn=cmd_table1)

    p_ver = sub.add_parser("verify", help="run built-in consistency checks")
    common(p_ver)
    p_ver.add_argument("--quick", action="store_true", help="fewer draws per check")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed", f"seed must be a non-negative integer, got {args.seed}")
        if args.threads < 1:
            raise ConfigError("--threads", f"need at least one thread, got {args.threads}")
        return args.fn(args)
    except ConfigError as exc:
        print(f"granvar: configuration error: {exc}", file=sys.stderr)
        return 2
    except GranvarError as exc:
        print(f"granvar: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"granvar: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
