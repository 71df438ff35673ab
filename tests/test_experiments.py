import math

import numpy as np
import pytest

from granvar.experiments import binary_table, gy_null_ensemble, poisson_window_counts
from granvar.fields import ProcessParams, generate_field
from granvar.selection import window_counts
from granvar.util import derived_rng, derived_seeds

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
    """pop_u ~ Poisson(lam mix_u W H) and sel_u | pop_u ~ Binomial(pop_u, wh/WH):
    E = Var of pop_u is lam mix_u W H; E = Var of sel_u and Cov(pop_u, sel_u)
    are lam mix_u w h; the classes are independent."""
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
    assert abs(_z(_centered(counts[:, 0]) * _centered(counts[:, 1]), 0.0)) < 5
    if window == DOMAIN:
        np.testing.assert_array_equal(counts, pops)


def test_null_ensemble_thread_invariant():
    kwargs = dict(replicates=50, n_seeds=4, master_seed=12)
    serial = gy_null_ensemble(threads=1, **kwargs)
    threaded = gy_null_ensemble(threads=2, **kwargs)
    for a, b in zip(serial.outcomes, threaded.outcomes, strict=True):
        for name in ("c_hat", "covers_zero", "v_e", "v_e_se", "moment_zero",
                     "moment_empirical"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("window", [(0.0, 0.3), (0.3, -0.1), (1.01, 0.3), (0.3, 1.5)])
def test_null_ensemble_rejects_window_outside_domain(window):
    with pytest.raises(ValueError, match="window"):
        gy_null_ensemble(window=window, replicates=10, n_seeds=1)


def test_null_ensemble_needs_two_replicates():
    with pytest.raises(ValueError, match="replicates"):
        gy_null_ensemble(replicates=1, n_seeds=1)
