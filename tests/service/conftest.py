"""Shared service-test fixtures.

``TINY`` is the service tests' canonical workload: small enough that a
cold run completes in about a second, large enough that every telescope
captures packets (so byte-equality checks compare non-trivial arrays).
"""

import pytest

from repro.sim import ScenarioConfig, run_scenario

TINY = ScenarioConfig(seed=3, duration_days=3, volume_scale=1e-5, n_tail=2)

#: The columnar record columns compared byte-for-byte.
COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
           "proto", "sport", "dport")


@pytest.fixture(scope="session")
def tiny_direct():
    """The ground truth for byte-equality: a direct in-process run."""
    return run_scenario(TINY)


def assert_results_identical(a, b):
    """Every record column, truth sidecar, and count must match exactly."""
    import numpy as np

    for name in ("nta", "ntb", "ntc"):
        ra, rb = getattr(a, name), getattr(b, name)
        assert len(ra) == len(rb), name
        for column in COLUMNS:
            ca, cb = getattr(ra, column), getattr(rb, column)
            assert ca.dtype == cb.dtype, (name, column)
            assert np.array_equal(ca, cb), (name, column)
    assert set(a.truth) == set(b.truth)
    for name, origin in a.truth.items():
        assert origin.dtype == b.truth[name].dtype, name
        assert np.array_equal(origin, b.truth[name]), name
