"""Tests for the scenario runner result bundle (`repro.sim.runner`).

`ScenarioResult.control_records` is vectorized over the `dst_hi` column;
it must match the per-packet oracle `control_records_reference` exactly
— on randomized workloads and on the boundary cases the vectorization
could plausibly get wrong: packet-count ties between control /48s,
captures that consist entirely of honeyprefix traffic, and exclusion
prefixes longer than /48 (whose networks can never equal a /48
truncation).  The end of the file runs `run_scenario` on a tiny two-day
configuration to cover the untested top-level path.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro._util import DAY
from repro.analysis.records import PacketRecords
from repro.net.addr import IPv6Prefix
from repro.net.packet import icmp_echo_request
from repro.obs import MetricsRegistry, use_registry
from repro.sim import ScenarioConfig, run_scenario
from repro.sim.runner import ScenarioResult
from tests.sim.reference import control_records_reference


def _result(nta, honey_prefixes=(), live_prefixes=()):
    """A ScenarioResult over a stub scenario: the control-records methods
    only touch `honeyprefixes` and `live_prefixes`."""
    scenario = SimpleNamespace(
        honeyprefixes={f"H{i}": SimpleNamespace(prefix=p)
                       for i, p in enumerate(honey_prefixes)},
        live_prefixes=list(live_prefixes),
    )
    return ScenarioResult(scenario=scenario, nta=nta,
                          ntb=PacketRecords.empty(),
                          ntc=PacketRecords.empty())


def _records(dsts):
    """One ICMP packet per destination, timestamped in list order."""
    return PacketRecords.from_packets([
        icmp_echo_request(float(i), (0xfc00 << 112) | i, dst)
        for i, dst in enumerate(dsts)
    ])


def _assert_same_records(a: PacketRecords, b: PacketRecords) -> None:
    for col in ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
                "proto", "sport", "dport"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


def _random_net48(rng) -> int:
    return int(rng.integers(1, 1 << 44)) << 84


class TestControlRecordsEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized(self, seed):
        rng = np.random.default_rng(seed)
        nets = [_random_net48(rng) for _ in range(10)]
        honey = [IPv6Prefix(nets[0], 48), IPv6Prefix(nets[1], 48)]
        live = [IPv6Prefix(nets[2], 48)]
        dsts = [nets[int(rng.integers(len(nets)))]
                | (int(rng.integers(1 << 40)) << 40)
                | int(rng.integers(1 << 40))
                for _ in range(int(rng.integers(50, 300)))]
        result = _result(_records(dsts), honey, live)
        _assert_same_records(result.control_records(),
                             control_records_reference(result))

    def test_tie_broken_by_first_appearance(self):
        """Two control /48s with equal counts: the reference keeps the
        first-seen one (dict insertion order), regardless of numeric
        order — the vectorized path must agree."""
        low, high = (5 << 84), (9 << 84)
        # `high` appears first; both end up with two packets.
        result = _result(_records([high | 1, low | 1, low | 2, high | 2]))
        vec = result.control_records()
        _assert_same_records(vec, control_records_reference(result))
        assert np.all(vec.dst_hi == np.uint64(high >> 64))

    def test_empty_capture(self):
        result = _result(PacketRecords.empty())
        assert len(result.control_records()) == 0
        assert len(control_records_reference(result)) == 0

    def test_all_traffic_in_honeyprefixes(self):
        net = _random_net48(np.random.default_rng(3))
        honey = [IPv6Prefix(net, 48)]
        result = _result(_records([net | i for i in range(20)]), honey)
        assert len(result.control_records()) == 0
        assert len(control_records_reference(result)) == 0

    def test_long_exclusion_prefix_never_matches(self):
        """A /49 network with host-half bits set (H_Specific-style) can
        never equal a /48 truncation and must not disturb the answer."""
        net = 7 << 84
        sub49 = IPv6Prefix(net | (1 << 79), 49)
        with_sub = _result(_records([net | 1, net | 2]), [sub49])
        without = _result(_records([net | 1, net | 2]))
        _assert_same_records(with_sub.control_records(),
                             control_records_reference(with_sub))
        _assert_same_records(with_sub.control_records(),
                             without.control_records())
        assert len(with_sub.control_records()) == 2

    def test_selects_busiest_control_48(self):
        busy, quiet, honey_net = (3 << 84), (4 << 84), (5 << 84)
        dsts = [busy | i for i in range(5)] + [quiet | 1] + \
            [honey_net | i for i in range(50)]
        result = _result(_records(dsts), [IPv6Prefix(honey_net, 48)])
        control = result.control_records()
        assert len(control) == 5
        assert np.all(control.dst_hi == np.uint64(busy >> 64))
        _assert_same_records(control, control_records_reference(result))


class TestScenarioResultAccessors:
    def test_telescopes_keys(self):
        result = _result(PacketRecords.empty())
        scopes = result.telescopes()
        assert list(scopes) == ["NT-A", "NT-B", "NT-C"]
        assert scopes["NT-A"] is result.nta
        assert scopes["NT-B"] is result.ntb
        assert scopes["NT-C"] is result.ntc

    def test_honeyprefix_records_filters_to_prefix(self):
        net, other = (6 << 84), (8 << 84)
        hp = IPv6Prefix(net, 48)
        result = _result(_records([net | 1, other | 1, net | 2]), [hp])
        records = result.honeyprefix_records("H0")
        assert len(records) == 2
        assert np.all(records.dst_hi == np.uint64(net >> 64))
        with pytest.raises(KeyError):
            result.honeyprefix_records("nope")

    def test_telemetry_defaults_empty(self):
        assert _result(PacketRecords.empty()).telemetry == {}


class TestRunScenarioTiny:
    """End-to-end coverage of `run_scenario` on a two-day toy config."""

    @pytest.fixture(scope="class")
    def tiny(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_scenario(ScenarioConfig(
                seed=1, duration_days=2, volume_scale=1e-5, n_tail=3,
            ))
        return result

    def test_bundle_shape(self, tiny):
        assert isinstance(tiny.nta, PacketRecords)
        assert list(tiny.telescopes()) == ["NT-A", "NT-B", "NT-C"]
        assert tiny.start == 0.0
        assert tiny.end == 2 * DAY
        assert tiny.config.duration_days == 2

    def test_no_honeyprefixes_before_phase1(self, tiny):
        # phase 1 deploys on day 10; a 2-day horizon stays dark.
        assert tiny.honeyprefixes == {}
        assert len(tiny.nta) == 0
        assert len(tiny.control_records()) == 0

    def test_background_radiation_reaches_ntc(self, tiny):
        records = tiny.ntc
        assert len(records) > 0
        assert np.all(records.ts >= 0.0)
        assert np.all(records.ts <= 2 * DAY)

    def test_telemetry_snapshot_attached(self, tiny):
        telemetry = tiny.telemetry
        assert telemetry["counters"]["engine.events"] >= 2
        assert "telescope.NT-C-capture.packets" in telemetry["counters"]
        assert "telescope.NT-A-capture.packets" in telemetry["counters"]
        assert set(telemetry["timings"]) >= {
            "scenario.build", "scenario.run", "scenario.freeze",
        }
        assert telemetry["gauges"]["scenario.records.ntc"] == len(tiny.ntc)

    def test_telemetry_empty_when_disabled(self):
        result = run_scenario(ScenarioConfig(
            seed=1, duration_days=2, volume_scale=1e-5, n_tail=3,
        ))
        assert result.telemetry == {}
