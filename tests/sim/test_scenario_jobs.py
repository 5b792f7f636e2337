"""Intra-scenario sharding: byte-identity vs. serial.

One scenario run with ``jobs > 1`` shards its agents across replicated
worker processes (:mod:`repro.exec.shard`).  Sharding must leave *no
trace* in the outputs: capture records, ground truth, dispatch counters,
and the journal byte stream are asserted identical to the serial run —
the same contract the experiment pool upholds across runs, pushed down
inside one.
"""

import io

import numpy as np
import pytest

from repro.exec.shard import shard_indices
from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, run_scenario

DAYS = 10

COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
           "proto", "sport", "dport")


def _config(**overrides):
    base = dict(seed=19, duration_days=DAYS, volume_scale=1e-4, n_tail=20,
                phase1_day=2, phase2_day=4, phase3_day=6,
                specific_start_day=7, withdraw_after_days=5)
    base.update(overrides)
    return ScenarioConfig(**base)


def _run(config, **kwargs):
    buffer = io.StringIO()
    with use_journal(Journal(buffer)):
        result = run_scenario(config, **kwargs)
    return result, buffer.getvalue()


def _assert_identical(a, b):
    for name in ("nta", "ntb", "ntc"):
        ra, rb = getattr(a, name), getattr(b, name)
        assert len(ra) == len(rb), name
        for column in COLUMNS:
            assert np.array_equal(getattr(ra, column),
                                  getattr(rb, column)), (name, column)
    for name, ta in a.truth.items():
        tb = b.truth[name]
        assert np.array_equal(ta.origin, tb.origin), name
    ca, cb = a.scenario.counters, b.scenario.counters
    assert (ca.nta, ca.ntb, ca.ntc, ca.live_dropped, ca.unrouted) \
        == (cb.nta, cb.ntb, cb.ntc, cb.live_dropped, cb.unrouted)


@pytest.fixture(scope="module")
def serial():
    return _run(_config())


class TestShardIndices:
    def test_partition_is_exact(self):
        for jobs in (2, 3, 4, 7):
            owned = [set(shard_indices(23, shard, jobs))
                     for shard in range(jobs)]
            union = set().union(*owned)
            assert union == set(range(23))
            assert sum(len(s) for s in owned) == 23


class TestShardedEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_byte_identical_to_serial(self, serial, jobs):
        serial_result, serial_journal = serial
        sharded, journal = _run(_config(), jobs=jobs)
        _assert_identical(serial_result, sharded)
        assert journal == serial_journal

    def test_same_day_withdrawals_keep_event_order(self, serial):
        """Two honeyprefixes withdrawing on the *same day* is the journal
        merge's hard case: their session_cancel records must interleave by
        engine-event order, not by agent index.  The fixture config fires
        H_BGP2's and H_BGP3's withdrawals in one day (deploys 0.2 days
        apart, same withdraw offset), so the byte-compare above already
        covers it — this test pins the precondition so a config change
        cannot silently drop the case."""
        _, serial_journal = serial
        import json

        cancel_days = {}
        for line in serial_journal.splitlines():
            record = json.loads(line)
            if record["type"] == "session_cancel":
                cancel_days.setdefault(int(record["at"] // 86400.0),
                                       set()).add(record["prefix"])
        assert any(len(prefixes) > 1 for prefixes in cancel_days.values()), \
            "fixture no longer exercises same-day multi-prefix withdrawal"
