"""BSTM microbench: the batched bootstrap and the tightened Kalman loops.

The causal-impact estimator dominates ``table4``/``fig7`` wall clock, and
inside it two hot spots dominate: the ``n_resamples``-round bootstrap
(formerly a Python loop drawing per resample) and the per-step Kalman
filters that L-BFGS evaluates dozens of times per fit.  This bench times

* the batched ``bootstrap_draws`` against its scalar oracle
  ``bootstrap_draws_reference`` in ``tests/analysis/reference.py`` (same
  generator stream, identical output — so the speedup is pure
  vectorization, no statistical change), and
* the local-level and seasonal Kalman filters at fit-sized inputs,

and writes ``results/BENCH_bstm.json``.  Manual timing (no ``benchmark``
fixture) so the artifact is produced even under ``--benchmark-disable``.
"""

import json
import pathlib
import time

import numpy as np

from repro.analysis.bstm import (
    CausalImpact,
    kalman_filter_local_level,
    kalman_filter_seasonal,
)
from tests.analysis.reference import bootstrap_draws_reference

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Acceptance bar: batching the bootstrap must win by at least this much.
MIN_BOOTSTRAP_SPEEDUP = 5.0

N_RESAMPLES = 1000
N_POST = 50
SERIES_LEN = 365
ROUNDS = 5


def _bootstrap_inputs():
    rng = np.random.default_rng(17)
    pointwise = rng.normal(40.0, 12.0, size=N_POST)
    cf_sd = np.abs(rng.normal(5.0, 1.0, size=N_POST))
    return pointwise, cf_sd


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bootstrap_batched_vs_reference():
    pointwise, cf_sd = _bootstrap_inputs()
    estimator = CausalImpact(rng=0, n_resamples=N_RESAMPLES)

    batched_s = _best_of(lambda: estimator.bootstrap_draws(
        pointwise, cf_sd, np.random.default_rng(3)))
    reference_s = _best_of(lambda: bootstrap_draws_reference(
        estimator, pointwise, cf_sd, np.random.default_rng(3)))
    speedup = reference_s / batched_s

    # The two paths must agree bitwise — the bench would be meaningless if
    # the fast path cut statistical corners.
    assert np.array_equal(
        estimator.bootstrap_draws(pointwise, cf_sd,
                                  np.random.default_rng(3)),
        bootstrap_draws_reference(estimator, pointwise, cf_sd,
                                  np.random.default_rng(3)),
    )

    z = np.cumsum(np.random.default_rng(8).normal(0, 1, SERIES_LEN)) + 50.0
    z[40:45] = np.nan
    local_s = _best_of(lambda: kalman_filter_local_level(z, 1.0, 0.1))
    seasonal_s = _best_of(
        lambda: kalman_filter_seasonal(z, 1.0, 0.1, 0.01, period=7))

    payload = {
        "n_resamples": N_RESAMPLES,
        "n_post": N_POST,
        "bootstrap_batched_ms": batched_s * 1e3,
        "bootstrap_reference_ms": reference_s * 1e3,
        "bootstrap_speedup": speedup,
        "kalman_series_len": SERIES_LEN,
        "kalman_local_level_ms": local_s * 1e3,
        "kalman_seasonal_ms": seasonal_s * 1e3,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_bstm.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {path}]")

    assert speedup >= MIN_BOOTSTRAP_SPEEDUP, (
        f"batched bootstrap only {speedup:.1f}x faster than the scalar "
        f"reference (want >= {MIN_BOOTSTRAP_SPEEDUP}x)"
    )
