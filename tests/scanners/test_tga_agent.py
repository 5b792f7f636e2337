"""Tests for the pattern TGA and scanner agents."""

import numpy as np
import pytest

from repro._util import DAY
from repro.datasets.asdb import AsCategory
from repro.net.addr import IPv6Prefix, parse_address
from repro.net.packet import ICMPV6
from repro.scanners.agent import ScanSession, ScannerAgent
from repro.scanners.identity import AllocationMode, ScannerIdentity
from repro.scanners.strategies import (
    AmbientScanner,
    ProbeBatch,
    ProtocolProfile,
    Strategy,
    address_list_sampler,
)
from repro.scanners.tga import NibblePattern, PatternTga, mine_patterns
from tests.scanners.reference import ProbeTarget, targets_to_columns

PREFIX = IPv6Prefix.parse("2001:db8:5::/48")

#: Every probe at address 1 over ICMPv6.
TO_ONE = address_list_sampler(targets_to_columns([ProbeTarget(1, ICMPV6)]))


def _sources(batch):
    return set(zip(batch.src_hi.tolist(), batch.src_lo.tolist()))


class TestMinePatterns:
    def test_groups_by_prefix(self):
        seeds = [PREFIX.network | 1, PREFIX.network | 2,
                 parse_address("2001:db9::1")]
        patterns = mine_patterns(seeds, 48)
        assert len(patterns) == 2

    def test_unaligned_group_rejected(self):
        with pytest.raises(ValueError):
            mine_patterns([1], 45)

    def test_generated_stay_in_prefix(self, rng):
        seeds = [PREFIX.network | i for i in (1, 2, 3, 0x100)]
        (pattern,) = mine_patterns(seeds, 48)
        for addr in pattern.generate(rng, 100):
            assert addr in PREFIX

    def test_low_diversity_nibbles_preserved(self, rng):
        # All seeds share zero nibbles except the last one.
        seeds = [PREFIX.network | i for i in range(1, 5)]
        (pattern,) = mine_patterns(seeds, 48)
        for addr in pattern.generate(rng, 50):
            # Middle nibbles stay zero (observed values only).
            assert (addr >> 4) & ((1 << 72) - 1) == 0


class TestGenerateColumns:
    """The columnar generator mirrors the scalar nibble loop."""

    def test_columns_stay_in_prefix_and_pattern(self, rng):
        seeds = [PREFIX.network | i for i in range(1, 5)]
        (pattern,) = mine_patterns(seeds, 48)
        hi, lo = pattern.generate_columns(rng, 200)
        assert hi.dtype == np.uint64 and lo.dtype == np.uint64
        for h, l in zip(hi.tolist(), lo.tolist()):
            addr = (h << 64) | l
            assert addr in PREFIX
            assert (addr >> 4) & ((1 << 72) - 1) == 0

    def test_nibble_marginals_match_scalar(self, rng):
        seeds = [PREFIX.network | (i << 64) | (i % 3) for i in range(24)]
        (pattern,) = mine_patterns(seeds, 48)
        scalar = pattern.generate(np.random.default_rng(1), 4000)
        hi, lo = pattern.generate_columns(np.random.default_rng(2), 4000)
        scalar_lo = np.array([a & ((1 << 64) - 1) for a in scalar],
                             dtype=np.uint64)
        # Last nibble draws from the observed set {0, 1, 2} on both paths.
        for value in range(3):
            ref = float((scalar_lo & np.uint64(0xF) == value).mean())
            col = float((lo & np.uint64(0xF) == value).mean())
            assert abs(ref - col) < 0.05

    def test_sampler_batch_matches_scalar_marginals(self, rng):
        """The columnar sampler's marginals are the per-draw ones: a
        uniform pattern choice and the profile's protocol mix."""
        other = IPv6Prefix.parse("2001:db8:6::/48")
        seeds = ([PREFIX.network | i for i in range(6)]
                 + [other.network | i for i in range(6)])
        tga = PatternTga(lambda s, u: seeds,
                         profile=ProtocolProfile(icmp_weight=0.6,
                                                 tcp_weight=0.4))
        (batch,) = tga.poll(0.0, 100.0, rng)
        dst_hi, dst_lo, proto, dport = batch.sampler(
            np.random.default_rng(4), 4000)
        assert len(dst_hi) == len(dst_lo) == len(proto) == 4000
        hi_values = {PREFIX.network >> 64, other.network >> 64}
        assert set(dst_hi.tolist()) <= hi_values
        share = float((dst_hi == np.uint64(PREFIX.network >> 64)).mean())
        assert abs(share - 0.5) < 0.05
        icmp = float((proto == np.uint8(ICMPV6)).mean())
        assert abs(icmp - 0.6) < 0.05


class TestPatternTga:
    def test_emits_batch_on_seeds(self, rng):
        tga = PatternTga(lambda s, u: [PREFIX.network | 1])
        batches = tga.poll(0.0, 100.0, rng)
        assert len(batches) == 1
        dst_hi, _, _, _ = batches[0].sampler(rng, 20)
        assert (dst_hi == np.uint64(PREFIX.network >> 64)).all()

    def test_no_seeds_no_batch(self, rng):
        tga = PatternTga(lambda s, u: [])
        assert tga.poll(0.0, 100.0, rng) == []

    def test_renewal_cancels_previous(self, rng):
        feed = [[PREFIX.network | 1], [PREFIX.network | 2]]
        tga = PatternTga(lambda s, u: feed.pop(0) if feed else [])
        first = tga.poll(0.0, 100.0, rng)[0]
        second = tga.poll(100.0, 200.0, rng)[0]
        assert first.cancelled_at is not None
        assert second.cancelled_at is None

    def test_purge_via_removal_source(self, rng):
        removals = []
        tga = PatternTga(
            lambda s, u: [PREFIX.network | 1] if u <= 100.0 else [],
            removal_source=lambda s, u: removals,
        )
        tga.poll(0.0, 100.0, rng)
        removals.append(PREFIX.network | 1)
        batches = tga.poll(100.0, 200.0, rng)
        assert batches == []
        assert tga.seeds == []
        assert tga._current_batch is None or tga._current_batch.cancelled_at


class _OneShot(Strategy):
    def __init__(self, batch):
        self.batch = batch
        self._done = False

    def poll(self, since, until, rng):
        if self._done:
            return []
        self._done = True
        return [self.batch]


def _agent(allocation=AllocationMode.FIXED, **kwargs):
    identity = ScannerIdentity(
        asn=64500, as_name="X", category=AsCategory.HOSTING_CLOUD,
        country="US", source_prefix=IPv6Prefix.parse("2620:99::/32"),
        allocation=allocation, **kwargs,
    )
    return identity


class TestScannerAgent:
    def test_emission_rate_matches_envelope(self):
        batch = ProbeBatch(
            "t", start=0.0, sampler=TO_ONE,
            peak_rate=500.0, floor_rate=500.0, decay_tau=DAY,
        )
        agent = ScannerAgent(_agent(), [_OneShot(batch)], rng=0)
        agent.poll_feeds(0.0, DAY)
        packets = agent.emit_day_batch(0.0, DAY)
        assert 380 <= len(packets) <= 620  # Poisson(500)
        assert (packets.dst_hi == 0).all() and (packets.dst_lo == 1).all()
        assert agent.packets_emitted == len(packets)

    def test_timestamps_within_day_and_sorted(self):
        batch = ProbeBatch(
            "t", start=0.5 * DAY, sampler=TO_ONE,
            peak_rate=200.0, floor_rate=200.0,
        )
        agent = ScannerAgent(_agent(), [_OneShot(batch)], rng=0)
        agent.poll_feeds(0.0, DAY)
        times = agent.emit_day_batch(0.0, DAY).ts.tolist()
        assert times
        assert times == sorted(times)
        assert all(0.5 * DAY <= t < DAY for t in times)

    def test_cancel_prefix_stops_emission(self):
        prefix = IPv6Prefix.parse("2001:db8:5::/48")
        batch = ProbeBatch(
            "bgp", start=0.0,
            sampler=address_list_sampler(targets_to_columns(
                [ProbeTarget(prefix.network | 1, ICMPV6)])),
            peak_rate=100.0, floor_rate=100.0, subject_prefix=prefix,
        )
        agent = ScannerAgent(_agent(), [_OneShot(batch)], rng=0)
        agent.poll_feeds(0.0, DAY)
        assert agent.cancel_prefix(prefix, at=DAY) == 1
        assert len(agent.emit_day_batch(DAY, 2 * DAY)) == 0

    def test_cancel_prefix_matches_contained(self):
        covering = IPv6Prefix.parse("2001:db8::/32")
        specific = IPv6Prefix.parse("2001:db8:5:8000::/56")
        batch = ProbeBatch("bgp", start=0.0, sampler=TO_ONE,
                           peak_rate=1.0, subject_prefix=specific)
        agent = ScannerAgent(_agent(), [_OneShot(batch)], rng=0)
        agent.poll_feeds(0.0, DAY)
        assert agent.cancel_prefix(covering, at=DAY) == 1

    def test_session_retirement(self):
        batch = ProbeBatch("t", start=0.0, sampler=TO_ONE,
                           peak_rate=1.0, duration=DAY)
        agent = ScannerAgent(_agent(), [_OneShot(batch)], rng=0)
        agent.poll_feeds(0.0, DAY)
        assert len(agent.sessions) == 1
        agent.emit_day_batch(3 * DAY, 4 * DAY)
        assert agent.sessions == []

    def test_max_sessions_cap(self):
        batches = [
            ProbeBatch("t", start=0.0, sampler=TO_ONE,
                       peak_rate=1.0)
            for _ in range(10)
        ]

        class _Many(Strategy):
            def poll(self, since, until, rng):
                return batches

        agent = ScannerAgent(_agent(), [_Many()], rng=0, max_sessions=5)
        agent.poll_feeds(0.0, DAY)
        assert len(agent.sessions) == 5

    def test_ambient_batches_use_whole_pool(self):
        """Ambient scans are exempt from per-target worker slicing."""
        identity = _agent(allocation=AllocationMode.SMALL_POOL,
                          pool_size=100, sources_per_target=5)
        prefix = IPv6Prefix.parse("2001:db8:5::/48")
        agent = ScannerAgent(
            identity,
            [AmbientScanner(prefix, ProtocolProfile(icmp_weight=1.0),
                            rate=2000.0)],
            rng=0,
        )
        agent.poll_feeds(0.0, DAY)
        assert len(_sources(agent.emit_day_batch(0.0, DAY))) > 50

    def test_triggered_batches_use_slice(self):
        identity = _agent(allocation=AllocationMode.SMALL_POOL,
                          pool_size=100, sources_per_target=5)
        batch = ProbeBatch(
            "bgp", start=0.0, sampler=TO_ONE,
            peak_rate=2000.0, floor_rate=2000.0,
        )
        agent = ScannerAgent(identity, [_OneShot(batch)], rng=0)
        agent.poll_feeds(0.0, DAY)
        assert len(_sources(agent.emit_day_batch(0.0, DAY))) == 5


class TestScanSession:
    def test_expected_packets_partial_day(self):
        batch = ProbeBatch("t", start=0.5 * DAY, sampler=TO_ONE,
                           peak_rate=100.0, floor_rate=100.0)
        session = ScanSession(batch)
        assert session.expected_packets(0.0, DAY) == pytest.approx(50.0)

    def test_expected_packets_cancelled(self):
        batch = ProbeBatch("t", start=0.0, sampler=TO_ONE,
                           peak_rate=100.0, floor_rate=100.0)
        batch.cancel(0.25 * DAY)
        session = ScanSession(batch)
        assert session.expected_packets(0.0, DAY) == pytest.approx(25.0)

    def test_expected_packets_outside_window(self):
        batch = ProbeBatch("t", start=5 * DAY, sampler=TO_ONE,
                           peak_rate=100.0)
        session = ScanSession(batch)
        assert session.expected_packets(0.0, DAY) == 0.0
