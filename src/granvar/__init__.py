"""Sampling-variance estimation for particulate materials with dependent
particle selection.

The package models the sample-to-sample variation of the analyte
concentration in samples drawn from a particulate batch.  The classical
(Gy) model assumes every particle enters the sample independently; here
pairs of particles may be selected dependently, which is parametrized by
a symmetric per-class-pair dependence matrix.  Negative entries mean the
pair co-occurs more than independence predicts (clustering), positive
entries mean mutual exclusion (repulsion).

Modules:

* ``model``       core domain types (class tables, summaries, dependence)
* ``estimators``  closed-form variance estimators and the single-class solver
* ``fields``      synthetic 2-D particle fields (Poisson, cluster, hard-core)
* ``selection``   selection designs, exact enumeration oracle, Monte Carlo
* ``intercept``   line-intercept sampling and adjacency-based dependence
* ``experiments`` reusable simulation experiments, run by the acceptance suite
* ``scenario``    JSON scenario loading and validation
* ``util``        seed derivation, number formatting, CSV writer
* ``verify``      the built-in checks of ``granvar verify``
* ``errors``      the exception hierarchy
* ``cli``         the ``granvar`` command-line tool
"""

__version__ = "0.1.0"
