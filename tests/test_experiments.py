import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import granvar
from granvar import experiments
from granvar.experiments import (
    binary_table,
    calibrate_against_oracle,
    clustered_params,
    gy_null_ensemble,
    poisson_null_params,
    poisson_window_counts,
    window_ensemble,
)
from granvar.fields import ProcessParams, generate_field
from granvar.intercept import TransectSpec
from granvar.selection import (
    ReplicateStats,
    compare_estimators,
    empirical_dependence,
    inclusion_from_fractions,
    pair_fractions,
    window_counts,
)
from granvar.util import derived_rng, derived_seeds
from test_selection import (
    assert_inclusion_close, reference_fractions, reference_inclusion, same_bits,
)

DOMAIN = (2.5, 0.7)
PARAMS = ProcessParams(variant="poisson", width=DOMAIN[0], height=DOMAIN[1],
                       mixing=(0.3, 0.7), intensity=40.0)


def field_reference(params, window, replicates, seed):
    """The null's process simulated directly: per replicate a fresh Poisson
    field and one uniformly anchored toroidal window.  Returns (R, K)
    class populations and window counts."""
    table = binary_table()
    k = len(params.mixing)
    pops = np.empty((replicates, k), dtype=np.int64)
    counts = np.empty((replicates, k), dtype=np.int64)
    for rep in range(replicates):
        field_seed, anchor_seed = derived_seeds(seed, rep, count=2)
        fld = generate_field(params, table, field_seed)
        anchor = derived_rng(anchor_seed).uniform((0.0, 0.0), (fld.width, fld.height))
        pops[rep] = fld.class_counts(k)
        counts[rep] = window_counts(fld, anchor[None, :], window[0], window[1], k)[0]
    return pops, counts


def _z(terms, expected):
    """Distance of the mean of ``terms`` from ``expected`` in standard errors."""
    return (terms.mean() - expected) / (terms.std(ddof=1) / math.sqrt(len(terms)))


def _centered(x):
    return x - x.mean()


@pytest.mark.parametrize("window", [(0.6, 0.3), DOMAIN])
@pytest.mark.parametrize("sampler", ["field_reference", "exact_law"])
def test_null_sampler_matches_closed_form_moments(sampler, window):
    """Class u's counts inside the window and outside it are independent
    Poisson(lam mix_u w h) and Poisson(lam mix_u (W H - w h)) (colouring),
    so E = Var of pop_u is lam mix_u W H; E = Var of sel_u and
    Cov(pop_u, sel_u) are lam mix_u w h; the outside count pop_u - sel_u
    has mean and variance lam mix_u (W H - w h) and is uncorrelated with
    sel_u; the classes are independent."""
    replicates = 2000
    if sampler == "field_reference":
        pops, counts = field_reference(PARAMS, window, replicates, seed=31)
    else:
        pops, counts = poisson_window_counts(PARAMS, window, replicates, derived_rng(31))
    whole = PARAMS.intensity * np.array(PARAMS.mixing) * DOMAIN[0] * DOMAIN[1]
    part = PARAMS.intensity * np.array(PARAMS.mixing) * window[0] * window[1]
    for u in range(2):
        pop, sel = pops[:, u], counts[:, u]
        assert abs(_z(pop, whole[u])) < 5
        assert abs(_z(_centered(pop) ** 2, whole[u])) < 5
        assert abs(_z(sel, part[u])) < 5
        assert abs(_z(_centered(sel) ** 2, part[u])) < 5
        assert abs(_z(_centered(pop) * _centered(sel), part[u])) < 5
        if window != DOMAIN:
            out = pop - sel
            assert abs(_z(out, whole[u] - part[u])) < 5
            assert abs(_z(_centered(out) ** 2, whole[u] - part[u])) < 5
            assert abs(_z(_centered(out) * _centered(sel), 0.0)) < 5
    assert abs(_z(_centered(counts[:, 0]) * _centered(counts[:, 1]), 0.0)) < 5
    if window == DOMAIN:
        np.testing.assert_array_equal(counts, pops)


OUTCOMES = ("c_hat", "covers_zero", "v_e", "v_e_se", "moment_zero", "moment_empirical")


def stacked(ensemble):
    """An ensemble's per-seed readouts, each stacked over the seeds."""
    return {name: np.array([getattr(o, name) for o in ensemble.outcomes]) for name in OUTCOMES}


def assert_same_outcomes(a, b):
    """Two ensembles' per-seed readouts are byte-identical."""
    a, b = stacked(a), stacked(b)
    for name in OUTCOMES:
        assert a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes(), name


def test_null_ensemble_thread_invariant():
    """``threads`` is still accepted, because the benchmark passes it, and
    it leaves every readout unchanged."""
    kwargs = dict(replicates=50, n_seeds=4, master_seed=12)
    serial = gy_null_ensemble(threads=1, **kwargs)
    threaded = gy_null_ensemble(threads=2, **kwargs)
    assert_same_outcomes(serial, threaded)


def per_seed_loop(master_seed, replicates=200, n_seeds=50, window=(0.3, 0.3)):
    """Reference: the null ensemble aggregated seed by seed, as before the
    seeds were stacked; each seed's estimate also agrees with the
    per-replicate inclusion reference."""
    table = binary_table()
    rows = {name: [] for name in OUTCOMES}
    for s in range(n_seeds):
        pops, counts = poisson_window_counts(
            poisson_null_params(), window, replicates, derived_rng(master_seed, s)
        )
        est = inclusion_from_fractions(*pair_fractions(counts, pops))
        assert_inclusion_close(est, reference_inclusion(*reference_fractions(counts, pops)))
        # a group of one: the seed's replicates with unit weights
        stats = ReplicateStats.from_counts(counts, table, groups=1)
        report = compare_estimators(stats, est, table)
        for name, value in (
            ("c_hat", est.c_hat), ("covers_zero", empirical_dependence(est).covers_zero()),
            ("v_e", stats.v_e[0]), ("v_e_se", stats.v_e_se[0]),
            ("moment_zero", report.row("moment", "zero", "replicate_mean").value[0]),
            ("moment_empirical", report.row("moment", "empirical", "replicate_mean").value[0]),
        ):
            rows[name].append(value)
    return {name: np.array(values) for name, values in rows.items()}


@pytest.mark.parametrize("master_seed", [505, 1, 2, 3])
def test_null_ensemble_matches_the_per_seed_loop(master_seed):
    """The stacked pass reads out every seed as the per-seed loop does, bit
    for bit (both take v_e_se from ``variance_se``)."""
    ensemble = stacked(gy_null_ensemble(master_seed=master_seed))
    reference = per_seed_loop(master_seed)
    for name in OUTCOMES:
        assert same_bits(ensemble[name], reference[name]), name


@pytest.mark.parametrize("window", [(0.0, 0.3), (0.3, -0.1), (1.01, 0.3), (0.3, 1.5)])
def test_null_ensemble_rejects_window_outside_domain(window):
    with pytest.raises(ValueError, match="window"):
        gy_null_ensemble(window=window, replicates=10, n_seeds=1)


def test_null_ensemble_needs_two_replicates():
    with pytest.raises(ValueError, match="replicates"):
        gy_null_ensemble(replicates=1, n_seeds=1)


CLUSTER = clustered_params(cluster_radius=0.05, parent_intensity=30.0, offspring_mean=6.0)


@pytest.mark.parametrize("driver", [
    lambda: window_ensemble(CLUSTER, binary_table(), (0.1, 0.1), replicates=10, n_seeds=0,
                            master_seed=1),
    lambda: gy_null_ensemble(replicates=10, n_seeds=0),
    lambda: calibrate_against_oracle([("cluster", CLUSTER)], binary_table(), (0.1, 0.1),
                                     TransectSpec(count=5, length=0.5), master_seed=1,
                                     n_seeds=0),
], ids=["window_ensemble", "gy_null_ensemble", "calibrate_against_oracle"])
def test_zero_seeds_are_refused_by_name(driver):
    with pytest.raises(ValueError, match="seed"):
        driver()


def test_calibration_needs_two_fields():
    """A between-field standard error needs two fields; one field would
    leave every oracle SE NaN and call the regime null on no evidence."""
    with pytest.raises(ValueError, match="n_seeds"):
        calibrate_against_oracle([("cluster", CLUSTER)], binary_table(), (0.1, 0.1),
                                 TransectSpec(count=5, length=0.5), master_seed=1, n_seeds=1)


def test_single_seed_z_is_nan_without_warnings():
    ensemble = gy_null_ensemble(n_seeds=1, replicates=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(ensemble.gy_null_z())
        assert np.isnan(ensemble.cell_z(0, 1))


def test_calibration_cell_of_one_field_is_quiet():
    """A cell finite in one field of three has that value as its mean and
    a NaN SE, without a warning; a cell finite in none is NaN, and a full
    cell keeps numpy's nanmean and nanstd / sqrt(n)."""
    values = np.array([[[0.5, np.nan, np.nan]], [[0.25, 0.75, np.nan]], [[1.0, np.nan, np.nan]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = experiments._mean_and_se(values)
    full = values[:, 0, 0]
    assert mean[0, 0] == np.mean(full) and se[0, 0] == np.std(full, ddof=1) / np.sqrt(3)
    assert mean[0, 1] == 0.75 and np.isnan(se[0, 1])
    assert np.isnan(mean[0, 2]) and np.isnan(se[0, 2])


@pytest.mark.parametrize("script, args", [
    ("run_sign_experiments.py", ["--seeds", "2", "--replicates", "20"]),
    ("run_adjacency_calibration.py", ["--seeds", "2", "--radii", "0.1", "0.05"]),
    ("run_size_bias.py", ["--seeds", "3"]),
])
def test_experiment_script_runs(script, args, monkeypatch):
    """Each experiment script runs to completion on tiny arguments, so a
    changed import or keyword in ``granvar.experiments`` shows here."""
    src = Path(granvar.__file__).resolve().parents[1]
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    )
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    proc = subprocess.run([sys.executable, str(path), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
