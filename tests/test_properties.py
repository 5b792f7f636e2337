"""Cross-module property-based tests (hypothesis).

These pin down conservation laws and safety invariants that unit tests
cannot sweep: flow/scan accounting, honeypot response discipline, and
sampler containment, under arbitrary generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.flows import aggregate_flows
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import detect_scans
from repro.core.honeyprefix import (
    HoneyprefixConfig,
    IcmpMode,
    deploy_addresses,
)
from repro.core.twinklenet import Twinklenet, TwinklenetConfig
from repro.net.addr import MAX_ADDRESS, IPv6Prefix
from repro.net.packet import ICMPV6, TCP, UDP, Packet
from repro.scanners.strategies import ProtocolProfile, prefix_sampler

PREFIX = IPv6Prefix.parse("2001:db8:42::/48")

packet_strategy = st.builds(
    Packet,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    src=st.integers(min_value=0, max_value=MAX_ADDRESS),
    dst=st.one_of(
        st.integers(min_value=0, max_value=MAX_ADDRESS),
        # Bias half the destinations into the honeyprefix.
        st.integers(min_value=0, max_value=(1 << 80) - 1).map(
            lambda off: PREFIX.network | off
        ),
    ),
    proto=st.sampled_from([ICMPV6, TCP, UDP]),
    sport=st.integers(min_value=0, max_value=0xFFFF),
    dport=st.integers(min_value=0, max_value=0xFFFF),
    flags=st.integers(min_value=0, max_value=0x3F),
    payload=st.binary(max_size=16),
)


class TestFlowConservation:
    @given(st.lists(packet_strategy, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_flow_packets_sum_to_record_count(self, packets):
        records = PacketRecords.from_packets(packets)
        flows = aggregate_flows(records)
        assert sum(f.packets for f in flows) == len(records)

    @given(st.lists(packet_strategy, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_flow_times_bound_records(self, packets):
        records = PacketRecords.from_packets(packets)
        for flow in aggregate_flows(records):
            assert flow.first_seen <= flow.last_seen


class TestScanDetectionInvariants:
    @given(st.lists(packet_strategy, max_size=80),
           st.sampled_from([48, 64, 128]),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_event_accounting(self, packets, length, min_targets):
        records = PacketRecords.from_packets(packets)
        events = detect_scans(records, source_length=length,
                              min_targets=min_targets)
        assert sum(e.packets for e in events) <= len(records)
        for event in events:
            assert event.unique_targets >= min_targets
            assert event.packets >= event.unique_targets
            assert event.start <= event.end
            # Source is a valid /length truncation.
            shift = 128 - length
            if shift:
                assert event.source & ((1 << shift) - 1) == 0


class TestTwinklenetSafety:
    @given(st.lists(packet_strategy, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_never_raises_and_responds_only_when_responsive(self, packets):
        config = HoneyprefixConfig(
            name="prop", icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", (80,)),), udp_ports=(53,),
        )
        hp = deploy_addresses(config, PREFIX, rng=0)
        pot = Twinklenet(TwinklenetConfig())
        responses = [reply for pkt in packets for reply in pot.handle(pkt, hp)]
        probed = {p.dst for p in packets}
        for response in responses:
            # Every response originates from a probed, responsive address.
            assert response.src in probed
            assert response.src in hp.responsive

    @given(st.lists(packet_strategy, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_aliased_prefix_answers_only_icmp(self, packets):
        config = HoneyprefixConfig(name="alias", aliased=True,
                                   icmp_mode=IcmpMode.FULL)
        hp = deploy_addresses(config, PREFIX, rng=0)
        pot = Twinklenet(TwinklenetConfig())
        responses = [reply for pkt in packets for reply in pot.handle(pkt, hp)]
        assert all(r.proto == ICMPV6 for r in responses)


class TestSamplerContainment:
    @given(st.integers(min_value=0, max_value=2**32),
           st.floats(min_value=0, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_prefix_sampler_stays_inside(self, seed, low_weight):
        rng = np.random.default_rng(seed)
        profile = ProtocolProfile(icmp_weight=0.5, tcp_weight=0.3,
                                  udp_weight=0.2)
        sampler = prefix_sampler(PREFIX, profile, low_weight=low_weight)
        dst_hi, dst_lo, proto, _ = sampler(rng, 50)
        for hi, lo in zip(dst_hi.tolist(), dst_lo.tolist()):
            assert (hi << 64) | lo in PREFIX
        assert set(proto.tolist()) <= {ICMPV6, TCP, UDP}


class TestDeployDeterminism:
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_addresses(self, seed):
        config = HoneyprefixConfig(
            name="det", icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", (80,)),),
        )
        a = deploy_addresses(config, PREFIX, rng=seed)
        b = deploy_addresses(config, PREFIX, rng=seed)
        assert a.responsive == b.responsive

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_responsive_addresses_inside_prefix(self, seed):
        config = HoneyprefixConfig(
            name="det", icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", (80, 443)),), udp_ports=(53, 123),
        )
        hp = deploy_addresses(config, PREFIX, rng=seed)
        assert all(addr in PREFIX for addr in hp.responsive)
