"""Shared fixtures.

The full-scenario fixture is session-scoped: integration tests and
experiment tests share one (small) simulated deployment.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.sim import ScenarioConfig, run_scenario


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_result():
    """A compact but complete scenario run: all 27 honeyprefixes, every
    trigger (TLS, hitlist, withdrawal) inside the horizon."""
    config = ScenarioConfig(
        seed=7,
        duration_days=80,
        volume_scale=1e-4,
        n_tail=80,
        phase1_day=8,
        phase2_day=12,
        phase3_day=16,
        specific_start_day=20,
        tls_offset_days=8,
        tpot_hitlist_offset_days=14,
        tpot_tls_offset_days=24,
        udp_hitlist_offset_days=5,
        withdraw_after_days=40,
    )
    return run_scenario(config)


@pytest.fixture
def traced_peak():
    """Traces the test's allocations from here on; yields ``measure(fn)``,
    which runs ``fn()`` and returns ``(live, peak)``: the traced bytes
    alive when it starts and the highest traced bytes while it runs.

    tracemalloc peaks repeat to within 0.01% for a fixed workload, so a
    memory test can bound ``peak`` tightly against ``live``.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def measure(fn):
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return live, tracemalloc.get_traced_memory()[1]

    try:
        yield measure
    finally:
        if started:
            tracemalloc.stop()
