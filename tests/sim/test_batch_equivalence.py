"""Scenario-level contract of the columnar packet path.

Three properties pin the day loop:

* **pinned counts** — under a fixed seed the per-day emitted totals and
  Fig 10's per-length hyper-specific capture counts equal values recorded
  from a known-good run, so a re-rolled count stream or a sampler that
  leaks destinations shows up here first;
* **determinism** — the same seed yields bit-identical ``PacketRecords``
  at every telescope;
* **counter conservation** — every emitted packet lands in exactly one
  dispatch counter, and telescope rx accounting matches dispatch.
"""

import numpy as np
import pytest

from repro.sim.scenario import PaperScenario, ScenarioConfig

DAYS = 22

#: Per-day emitted totals of the seed-19 run.
PINNED_PER_DAY = [89, 102, 102, 99, 262, 666, 655, 1266, 1065, 1414, 1675,
                  1604, 1844, 1609, 1337, 990, 1602, 1714, 1638, 1089, 2447,
                  2143]

#: NT-A captures inside each ``H_Specific/<length>`` honeyprefix, seed 19.
PINNED_HYPER_SPECIFIC = {49: 6, 50: 11, 51: 6, 52: 6, 53: 9, 54: 14, 55: 4,
                         56: 1, 57: 4, 58: 7, 59: 5, 60: 3, 61: 3, 62: 3,
                         63: 1, 64: 3}


def _config(seed=19):
    return ScenarioConfig(
        seed=seed, duration_days=DAYS, volume_scale=1e-4, n_tail=20,
        phase1_day=4, phase2_day=7, phase3_day=10, specific_start_day=12,
        tls_offset_days=5, tpot_hitlist_offset_days=8,
        tpot_tls_offset_days=12, udp_hitlist_offset_days=3,
        withdraw_after_days=9,
    )


def _run(seed=19):
    scenario = PaperScenario(_config(seed))
    per_day = [scenario.run_day(day) for day in range(DAYS)]
    return scenario, per_day


@pytest.fixture(scope="module")
def run():
    return _run()


class TestCountEquality:
    def test_per_day_emitted_identical(self, run):
        _, days = run
        assert days == PINNED_PER_DAY

    def test_counter_conservation(self, run):
        scenario, days = run
        c = scenario.counters
        assert (c.nta + c.ntb + c.ntc + c.live_dropped + c.unrouted
                == sum(days))

    def test_rx_accounting_matches_dispatch(self, run):
        scenario, _ = run
        # Every packet dispatched to NT-A is captured, and nothing else.
        assert scenario.counters.nta > 0
        assert len(scenario.telescope.capturer) == scenario.counters.nta


class TestBatchDeterminism:
    def test_same_seed_identical_records_all_telescopes(self, run):
        scenario, _ = run
        again, _ = _run()
        for cap_a, cap_b in (
            (scenario.telescope.capturer, again.telescope.capturer),
            (scenario.ntb.capturer, again.ntb.capturer),
            (scenario.ntc.capturer, again.ntc.capturer),
        ):
            ra, rb = cap_a.to_records(), cap_b.to_records()
            assert len(ra) == len(rb)
            for column in ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
                           "proto", "sport", "dport"):
                assert np.array_equal(getattr(ra, column),
                                      getattr(rb, column)), column

    def test_different_seed_differs(self, run):
        scenario, _ = run
        other, _ = _run(seed=20)
        ra = scenario.telescope.capturer.to_records()
        rb = other.telescope.capturer.to_records()
        assert (len(ra) != len(rb)
                or not np.array_equal(ra.ts, rb.ts))


class TestMarginals:
    def test_hyper_specific_per_length_counts_identical(self, run):
        """Fig 10's marginal, packet for packet: hyper-specific sessions
        draw their Poisson counts from the agents' count streams and
        target only addresses inside the announced prefix.  This is the
        regression guard for the fig10 targeting path — a re-rolled
        decision stream or a sampler that leaks destinations outside the
        announced prefix shows up here before it shows up in the pinned
        results."""
        scenario, _ = run
        records = scenario.telescope.capturer.to_records()
        counts = {}
        for length in range(49, 65):
            name = f"H_Specific/{length}"
            assert name in scenario.honeyprefixes, name
            prefix = scenario.honeyprefixes[name].prefix
            counts[length] = int(np.count_nonzero(
                records.mask_dst_in(prefix)))
        assert counts == PINNED_HYPER_SPECIFIC
        # The window past specific_start_day is long enough that every
        # length actually received traffic — an all-zero marginal would
        # make the pin above test nothing.
        assert all(n > 0 for n in counts.values())
