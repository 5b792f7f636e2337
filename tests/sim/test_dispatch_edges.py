"""Routing edges of the scenario dispatcher, one packet or a burst.

Shared parametrized tests: the live-/48 exclusion inside NT-A's covering
/32, unrouted packets, and NT-C's assigned-/33 exclusion must behave
identically whether ``dispatch_batch`` receives each packet as its own
one-row batch (``scalar``) or the whole burst as one batch (``batch``).
"""

import numpy as np
import pytest

from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.net.packet import icmp_echo_request
from repro.sim.scenario import PaperScenario, ScenarioConfig

SRC = IPv6Prefix.parse("2620:96::/32").network | 0x42


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(ScenarioConfig(
        seed=5, duration_days=10, volume_scale=1e-4, n_tail=5,
        include_sweeper=False,
    ))


def _send(scenario, dispatcher, addresses):
    packets = [icmp_echo_request(float(i), SRC, dst)
               for i, dst in enumerate(addresses)]
    if dispatcher == "scalar":
        for pkt in packets:
            scenario.dispatch_batch(PacketBatch.from_packets([pkt]))
    else:
        scenario.dispatch_batch(PacketBatch.from_packets(packets))


@pytest.fixture(params=["scalar", "batch"])
def dispatcher(request):
    return request.param


class TestLiveSlash48Exclusion:
    def test_live_prefixes_dropped_and_not_captured(self, scenario,
                                                    dispatcher):
        before = scenario.counters.live_dropped
        captured = len(scenario.telescope.capturer)
        _send(scenario, dispatcher,
              [p.network | 7 for p in scenario.live_prefixes])
        assert (scenario.counters.live_dropped - before
                == len(scenario.live_prefixes))
        assert len(scenario.telescope.capturer) == captured

    def test_dark_48_next_to_live_is_captured(self, scenario, dispatcher):
        before = scenario.counters.nta
        captured = len(scenario.telescope.capturer)
        # /48 index 5: first non-live slot of the covering /32.
        dark = scenario.nta_covering.subnet_at(5, 48).network | 7
        _send(scenario, dispatcher, [dark])
        assert scenario.counters.nta == before + 1
        assert len(scenario.telescope.capturer) == captured + 1


class TestUnrouted:
    def test_unrouted_counted_nothing_captured(self, scenario, dispatcher):
        before = scenario.counters.unrouted
        captured = (len(scenario.telescope.capturer)
                    + len(scenario.ntb.capturer)
                    + len(scenario.ntc.capturer))
        _send(scenario, dispatcher,
              [IPv6Prefix.parse("2400:cb00::/32").network | 1])
        assert scenario.counters.unrouted == before + 1
        assert (len(scenario.telescope.capturer)
                + len(scenario.ntb.capturer)
                + len(scenario.ntc.capturer)) == captured


class TestNtcAssignedExclusion:
    def test_assigned_33_counted_but_not_captured(self, scenario, dispatcher):
        """The university's assigned top /33 reaches NT-C's tap (the ntc
        dispatch counter) but never its capture — it is production space."""
        before_ntc = scenario.counters.ntc
        ignored = scenario.ntc.ignored_count
        captured = len(scenario.ntc.capturer)
        assigned = scenario.ntc_prefix.subnet_at(1, 33).network | 9
        _send(scenario, dispatcher, [assigned])
        assert scenario.counters.ntc == before_ntc + 1
        assert scenario.ntc.ignored_count == ignored + 1
        assert len(scenario.ntc.capturer) == captured

    def test_dark_33_captured(self, scenario, dispatcher):
        before = scenario.ntc.captured_count
        captured = len(scenario.ntc.capturer)
        dark = scenario.ntc_prefix.subnet_at(0, 33).network | 9
        _send(scenario, dispatcher, [dark])
        assert scenario.ntc.captured_count == before + 1
        assert len(scenario.ntc.capturer) == captured + 1


class TestNtb:
    def test_ntb_captures_whole_48(self, scenario, dispatcher):
        before = scenario.counters.ntb
        captured = len(scenario.ntb.capturer)
        _send(scenario, dispatcher, [scenario.ntb_prefix.network | 3])
        assert scenario.counters.ntb == before + 1
        assert len(scenario.ntb.capturer) == captured + 1


class TestPathAgreement:
    def test_both_paths_route_a_mixed_burst_identically(self, scenario):
        """One mixed burst, row by row and as one batch: every counter
        moves by the same amount."""
        addresses = (
            [p.network | 1 for p in scenario.live_prefixes[:2]]
            + [scenario.nta_covering.subnet_at(6, 48).network | 1]
            + [scenario.ntb_prefix.network | 1]
            + [scenario.ntc_prefix.subnet_at(0, 33).network | 1]
            + [scenario.ntc_prefix.subnet_at(1, 33).network | 1]
            + [IPv6Prefix.parse("2a00:1450::/32").network | 1]
        )
        import copy

        start = copy.copy(scenario.counters)
        _send(scenario, "scalar", addresses)
        after_scalar = copy.copy(scenario.counters)
        _send(scenario, "batch", addresses)
        after_batch = scenario.counters
        for name in ("nta", "ntb", "ntc", "live_dropped", "unrouted"):
            scalar_delta = getattr(after_scalar, name) - getattr(start, name)
            batch_delta = (getattr(after_batch, name)
                           - getattr(after_scalar, name))
            assert scalar_delta == batch_delta, name
