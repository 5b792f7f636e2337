"""Contract of the columnar emission path, ``ScannerAgent.emit_day_batch``.

Under the same seed, emission and checkpoint replay draw *identical*
per-day Poisson counts (both consume the agent's main stream through
``_day_plan``), and the packet contents — sources, targets, protocols,
ports — follow the configured distributions.  The satellites ride along:
the emission window clamp (cancelled/expired sessions stop emitting when
their rate does) and the ``poll_feeds`` overflow counter.
"""

import numpy as np
import pytest

from repro._util import DAY
from repro.datasets.asdb import AsCategory
from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6, TCP, UDP
from repro.obs.registry import MetricsRegistry, use_registry
from repro.scanners.agent import ScannerAgent
from repro.scanners.identity import AllocationMode, ScannerIdentity
from repro.scanners.strategies import (
    ProbeBatch,
    ProtocolProfile,
    Strategy,
    layout_columns,
    prefix_sampler,
)

SOURCE_PREFIX = IPv6Prefix.parse("2a0e:5c00::/30")
TARGET_PREFIX = IPv6Prefix.parse("2001:db8:40::/48")
PROFILE = ProtocolProfile(icmp_weight=0.5, tcp_weight=0.3, udp_weight=0.2)


class _FixedBatch(Strategy):
    """Hands out one predetermined ProbeBatch on the first poll."""

    def __init__(self, batch: ProbeBatch):
        self.batch = batch
        self._given = False

    def poll(self, since, until, rng):
        if self._given:
            return []
        self._given = True
        return [self.batch]


def _agent(strategies, seed=5, allocation=AllocationMode.PER_PACKET,
           **identity_kwargs):
    identity = ScannerIdentity(
        asn=64500, as_name="EQ-TEST", category=AsCategory.HOSTING_CLOUD,
        country="US", source_prefix=SOURCE_PREFIX, allocation=allocation,
        **identity_kwargs,
    )
    return ScannerAgent(identity, strategies, rng=seed, volume_scale=1.0)


def _probe_batch(rate=30_000.0, start=0.0, **kwargs):
    return ProbeBatch(
        trigger="ambient", start=start,
        sampler=prefix_sampler(TARGET_PREFIX, PROFILE),
        peak_rate=rate, floor_rate=rate, **kwargs,
    )


def _twin_agents(seed=5, rate=30_000.0, allocation=AllocationMode.PER_PACKET):
    """Two identically seeded agents with one steady session each."""
    agents = []
    for _ in range(2):
        agent = _agent([_FixedBatch(_probe_batch(rate))], seed=seed,
                       allocation=allocation)
        agent.poll_feeds(0.0, DAY)
        agents.append(agent)
    return agents


class TestCountEquality:
    """Emission and replay consume the count stream identically."""

    def test_per_day_counts_identical(self):
        replayed, fast = _twin_agents(seed=7, rate=2_000.0)
        for day in range(5):
            before = replayed.packets_emitted
            replayed.replay_day(day * DAY, (day + 1) * DAY)
            batch = fast.emit_day_batch(day * DAY, (day + 1) * DAY)
            assert replayed.packets_emitted - before == len(batch)
        assert replayed.packets_emitted == fast.packets_emitted

    def test_session_accounting_matches(self):
        replayed, fast = _twin_agents(seed=3, rate=500.0)
        replayed.replay_day(0.0, DAY)
        batch = fast.emit_day_batch(0.0, DAY)
        assert (replayed.sessions[0].packets_sent
                == fast.sessions[0].packets_sent == len(batch))


class TestMarginalEquivalence:
    """Content distributions match the configured ones (fixed seed)."""

    N_DAYS = 3
    RATE = 30_000.0

    @pytest.fixture(scope="class")
    def batch(self):
        agent = _agent([_FixedBatch(_probe_batch(self.RATE))], seed=11)
        agent.poll_feeds(0.0, DAY)
        from repro.net.batch import PacketBatch

        return PacketBatch.concat([
            agent.emit_day_batch(day * DAY, (day + 1) * DAY)
            for day in range(self.N_DAYS)
        ])

    def test_protocol_mix(self, batch):
        weights = {ICMPV6: PROFILE.icmp_weight, TCP: PROFILE.tcp_weight,
                   UDP: PROFILE.udp_weight}
        total = sum(weights.values())
        for proto, weight in weights.items():
            fraction = float((batch.proto == proto).mean())
            assert abs(fraction - weight / total) < 0.02

    def test_target_low_subnet_concentration(self, batch):
        """prefix_sampler's low/high split: ``low_weight`` (0.5) of the
        probes hit the first addresses of the first subnets."""
        net_hi = TARGET_PREFIX.network >> 64
        low = float((((batch.dst_hi - np.uint64(net_hi)) < 8)
                     & (batch.dst_lo < 64)).mean())
        assert abs(low - 0.5) < 0.02

    def test_sport_distribution(self, batch):
        sports = batch.sport[batch.proto != np.uint8(ICMPV6)]
        assert sports.min() >= 32_768 and sports.max() < 61_000
        assert abs(float(sports.mean()) - (32_768 + 60_999) / 2) < 300

    def test_source_spread_per_packet(self, batch):
        unique = (len(np.unique(
            np.stack([batch.src_hi, batch.src_lo]), axis=1,
        )[0]) / len(batch))
        # PER_PACKET: essentially every packet a fresh source.
        assert unique > 0.99

    def test_icmp_rows_are_echo_requests(self, batch):
        icmp = batch.proto == np.uint8(ICMPV6)
        assert (batch.sport[icmp] == 128).all()
        assert (batch.dport[icmp] == 0).all()


class TestAllocatorModes:
    @pytest.mark.parametrize("allocation", [
        AllocationMode.FIXED,
        AllocationMode.SMALL_POOL,
        AllocationMode.PER_SESSION,
    ])
    def test_batch_sources_come_from_allocator_pool(self, allocation):
        kwargs = {"pool_size": 8} if allocation is AllocationMode.SMALL_POOL else {}
        agent = _agent([_FixedBatch(_probe_batch(2_000.0))], seed=9,
                       allocation=allocation, **kwargs)
        agent.poll_feeds(0.0, DAY)
        batch = agent.emit_day_batch(0.0, DAY)
        assert len(batch) > 0
        sources = {(int(h) << 64) | int(l)
                   for h, l in zip(batch.src_hi, batch.src_lo)}
        prefix = agent.allocator.identity.source_prefix
        assert all(src in prefix for src in sources)
        if allocation is AllocationMode.FIXED:
            assert len(sources) == 1
        elif allocation is AllocationMode.SMALL_POOL:
            assert len(sources) <= 8


class TestLayoutColumns:
    def test_layout_columns(self):
        addresses = (TARGET_PREFIX.network | 1, TARGET_PREFIX.network | 2)
        dst_hi, dst_lo, proto, dport = layout_columns(
            addresses, ((ICMPV6, 0), (TCP, 443)))
        assert dst_hi.tolist() == [TARGET_PREFIX.network >> 64] * 4
        assert dst_lo.tolist() == [1, 1, 2, 2]
        assert proto.tolist() == [ICMPV6, TCP, ICMPV6, TCP]
        assert dport.tolist() == [0, 443, 0, 443]

    def test_layout_columns_empty(self):
        dst_hi, dst_lo, proto, dport = layout_columns((), ((ICMPV6, 0),))
        assert len(dst_hi) == len(dst_lo) == len(proto) == len(dport) == 0


class TestEmissionWindowClamp:
    """Satellite: timestamps stop where ``expected_packets`` stops counting
    (the §5.3.1 retraction tail regression)."""

    CANCEL_AT = 0.25 * DAY

    def _one_session_agent(self, batch, seed=5):
        agent = _agent([_FixedBatch(batch)], seed=seed)
        agent.poll_feeds(0.0, DAY)
        return agent

    def test_cancelled_session_stops_at_cancellation(self):
        probe = _probe_batch(rate=50_000.0)
        probe.cancel(self.CANCEL_AT)
        agent = self._one_session_agent(probe)
        ts = agent.emit_day_batch(0.0, DAY).ts.tolist()
        assert ts, "cancelled-at-25% session must still emit a morning tail"
        assert max(ts) <= self.CANCEL_AT

    def test_expiring_session_stops_at_expiry(self):
        probe = _probe_batch(rate=50_000.0, duration=0.5 * DAY)
        agent = self._one_session_agent(probe)
        ts = agent.emit_day_batch(0.0, DAY).ts.tolist()
        assert ts
        assert max(ts) <= 0.5 * DAY

    def test_retraction_tail_density_matches_window(self):
        """The retraction tail is a *quarter day* of traffic at full rate,
        not a full day of thinned traffic: timestamps must be uniform over
        [0, cancelled_at), so their mean sits near the window midpoint."""
        probe = _probe_batch(rate=200_000.0)
        probe.cancel(self.CANCEL_AT)
        agent = self._one_session_agent(probe, seed=17)
        ts = np.asarray(agent.emit_day_batch(0.0, DAY).ts)
        assert abs(ts.mean() - self.CANCEL_AT / 2) < 0.02 * DAY


class _Firehose(Strategy):
    """Returns ``per_poll`` fresh batches on every poll."""

    def __init__(self, per_poll: int):
        self.per_poll = per_poll

    def poll(self, since, until, rng):
        return [_probe_batch(rate=10.0, start=since)
                for _ in range(self.per_poll)]


class TestSessionOverflow:
    """Satellite: batches discarded at ``max_sessions`` are counted."""

    def test_drops_counted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            agent = _agent([_Firehose(10)], seed=1)
            agent.max_sessions = 4
            new = agent.poll_feeds(0.0, DAY)
        assert new == 4
        assert len(agent.sessions) == 4
        assert agent.sessions_dropped == 6
        assert registry.counter("agent.sessions.dropped").value == 6

    def test_no_drops_below_cap(self):
        agent = _agent([_Firehose(3)], seed=1)
        agent.poll_feeds(0.0, DAY)
        assert agent.sessions_dropped == 0

    def test_drops_accumulate_across_polls(self):
        agent = _agent([_Firehose(5)], seed=1)
        agent.max_sessions = 5
        agent.poll_feeds(0.0, DAY)
        agent.poll_feeds(DAY, 2 * DAY)
        assert len(agent.sessions) == 5
        assert agent.sessions_dropped == 5
