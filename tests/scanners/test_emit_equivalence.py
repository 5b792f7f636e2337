"""Per-agent emission without per-session constants draws what the
per-session code drew.

Three rewrites must leave every stream in the same state:

* ``ProtocolProfile.sample_batch`` draws protocols from a precomputed CDF
  with ``searchsorted`` — what ``Generator.choice(3, p=...)`` does inside;
* ``ScannerAgent._day_plan`` clamps each session through
  ``ScanSession.window`` and returns the per-day child *seed*, so a day
  that plans nothing never builds the child generator;
* ``ScannerAgent.emit_day_batch`` writes each session's draws into one set
  of day columns, instead of one ``probe_batch`` per session followed by
  ``concat`` and ``with_origin``.

Each is checked against the code it replaced, kept here as an oracle,
including the position each stream is left at.  Construction now also
rejects the profiles ``Generator.choice`` used to reject mid-run.
"""

import math

import numpy as np
import pytest

from repro._util import DAY, spawn_rngs
from repro.datasets.asdb import AsCategory
from repro.net.addr import IPv6Prefix, split_u64
from repro.net.batch import PacketBatch, probe_batch
from repro.net.packet import ICMPV6, TCP, UDP
from repro.scanners.agent import ScannerAgent
from repro.scanners.identity import AllocationMode, ScannerIdentity
from repro.scanners.strategies import (
    ProbeBatch,
    ProtocolProfile,
    Strategy,
    prefix_sampler,
)

SOURCE_PREFIX = IPv6Prefix.parse("2a0e:5c00::/30")
TARGET_PREFIX = IPv6Prefix.parse("2001:db8:40::/48")


def _choice_reference(profile, rng, n):
    """The protocol/port draw before the CDF was precomputed."""
    weights = np.array(
        [profile.icmp_weight, profile.tcp_weight, profile.udp_weight]
    )
    choice = rng.choice(3, size=n, p=weights / weights.sum())
    proto = np.full(n, ICMPV6, dtype=np.uint8)
    dport = np.zeros(n, dtype=np.uint16)
    for value, code, ports in ((1, TCP, profile.tcp_ports),
                               (2, UDP, profile.udp_ports)):
        rows = choice == value
        k = int(rows.sum())
        if k:
            proto[rows] = code
            ports = np.asarray(ports, dtype=np.uint16)
            dport[rows] = ports[rng.integers(len(ports), size=k)]
    return proto, dport


class TestProtocolCdf:
    def test_cdf_draw_equals_generator_choice(self):
        """Random weight vectors, zero weights included: same columns and
        the same stream position afterwards."""
        meta = np.random.default_rng(2024)
        for case in range(300):
            weights = meta.random(3) * 10.0 ** meta.integers(-3, 4)
            weights[meta.random(3) < 0.3] = 0.0
            if weights.sum() == 0:
                weights[meta.integers(3)] = meta.random() + 0.1
            profile = ProtocolProfile(*weights.tolist())
            n = int(meta.integers(0, 400))
            seed = int(meta.integers(2**32))
            fast, slow = (np.random.default_rng(seed) for _ in range(2))
            got = profile.sample_batch(fast, n)
            want = _choice_reference(profile, slow, n)
            assert np.array_equal(got[0], want[0]), case
            assert np.array_equal(got[1], want[1]), case
            assert fast.random() == slow.random(), case

    def test_integer_weights(self):
        profile = ProtocolProfile(icmp_weight=2, tcp_weight=1, udp_weight=1)
        fast, slow = np.random.default_rng(3), np.random.default_rng(3)
        got = profile.sample_batch(fast, 500)
        want = _choice_reference(profile, slow, 500)
        assert np.array_equal(got[0], want[0])
        assert fast.random() == slow.random()


class TestProfileValidation:
    @pytest.mark.parametrize("weights", [
        (1.0, -0.5, 0.5),
        (-1.0, 0.0, 0.0),
        (math.nan, 1.0, 0.0),
        (1.0, math.inf, 0.0),
        (0.0, 0.0, 0.0),
        (1e308, 1e308, 1e308),
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_bad_profile_raises_at_construction(self, weights):
        with pytest.raises(ValueError):
            ProtocolProfile(*weights)

    def test_all_zero_message(self):
        with pytest.raises(ValueError, match="no positive weight"):
            ProtocolProfile(icmp_weight=0, tcp_weight=0, udp_weight=0)

    def test_negative_message_names_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            ProtocolProfile(1, -0.5, 0.5)


# -- agents with many sessions --------------------------------------------

PROFILE = ProtocolProfile(icmp_weight=0.5, tcp_weight=0.3, udp_weight=0.2)


class _Batches(Strategy):
    """Hands out a fixed list of batches on the first poll."""

    def __init__(self, batches):
        self.batches = batches
        self._given = False

    def poll(self, since, until, rng):
        if self._given:
            return []
        self._given = True
        return self.batches


def _batches(meta: np.random.Generator) -> list[ProbeBatch]:
    """Sessions of every kind: tiny and heavy rates (both Poisson
    branches), trigger-driven ones (source slices) and background ones,
    some cancelled or expiring inside the first days."""
    out = []
    for _ in range(int(meta.integers(1, 25))):
        rate = float(10.0 ** meta.uniform(-1, 4))
        trigger = ("ambient", "bgp", "ct", "hitlist")[int(meta.integers(4))]
        batch = ProbeBatch(
            trigger=trigger, start=float(meta.uniform(0, 2 * DAY)),
            sampler=prefix_sampler(TARGET_PREFIX, PROFILE),
            peak_rate=rate, floor_rate=rate * float(meta.random()),
            duration=float(meta.uniform(0.2, 6)) * DAY,
        )
        if meta.random() < 0.2:
            batch.cancel(float(meta.uniform(0, 4 * DAY)))
        out.append(batch)
    return out


def _twin_agents(seed: int):
    """Two identically seeded agents holding identical sessions."""
    agents = []
    for _ in range(2):
        meta = np.random.default_rng(seed)
        identity = ScannerIdentity(
            asn=64500, as_name="EQ-TEST",
            category=AsCategory.HOSTING_CLOUD, country="US",
            source_prefix=SOURCE_PREFIX,
            allocation=AllocationMode.SMALL_POOL, pool_size=16,
            sources_per_target=4,
        )
        agent = ScannerAgent(identity, [_Batches(_batches(meta))],
                             rng=seed, volume_scale=1.0)
        agent.agent_id = 7
        agent.poll_feeds(0.0, DAY)
        agents.append(agent)
    return agents


def _expected_reference(session, day_start, day_end):
    """``ScanSession.expected_packets`` before ``ScanSession.window``."""
    effective_start = max(day_start, session.batch.start)
    end = day_end
    if session.batch.cancelled_at is not None:
        end = min(end, session.batch.cancelled_at)
    end = min(end, session.batch.start + session.batch.duration)
    if end <= effective_start:
        return 0.0
    midpoint = 0.5 * (effective_start + end)
    fraction = (end - effective_start) / DAY
    return session.batch.rate_at(midpoint) * fraction


def _day_plan_reference(agent, day_start, day_end):
    """The scalar-loop plan: one Poisson draw per live session, then the
    per-day child generator."""
    day_index = day_start / DAY
    weekly = 1.0 + agent.weekly_amplitude * float(
        np.sin(2 * np.pi * day_index / 7.0 + agent.weekly_phase)
    )
    plans = []
    for session in agent.sessions:
        expected = _expected_reference(session, day_start, day_end) * (
            agent.volume_scale * weekly
        )
        if expected <= 0:
            continue
        n = int(agent._rng.poisson(expected))
        if n == 0:
            continue
        lo = max(day_start, session.batch.start)
        hi = day_end
        if session.batch.cancelled_at is not None:
            hi = min(hi, session.batch.cancelled_at)
        hi = min(hi, session.batch.start + session.batch.duration)
        plans.append((session, n, lo, hi))
    return plans, spawn_rngs(agent._rng, 1)[0]


def _emit_reference(agent, day_start, day_end) -> PacketBatch:
    """The per-session emission: a probe_batch per session, then concat
    and with_origin."""
    agent.allocator.new_session()
    plans, pkt_rng = _day_plan_reference(agent, day_start, day_end)
    parts = []
    for session, n, lo, hi in plans:
        ts = np.sort(pkt_rng.uniform(lo, hi, size=n))
        dst_hi, dst_lo, proto, dport = session.batch.sampler(pkt_rng, n)
        if session.sources is not None:
            pool_hi, pool_lo = split_u64(session.sources)
            idx = pkt_rng.integers(0, len(session.sources), size=n)
            src_hi, src_lo = pool_hi[idx], pool_lo[idx]
        else:
            src_hi, src_lo = agent.allocator.sources_batch(n, pkt_rng)
        sport = pkt_rng.integers(32_768, 61_000, size=n, dtype=np.uint16)
        parts.append(probe_batch(ts, src_hi, src_lo, dst_hi, dst_lo,
                                 proto, sport, dport))
        session.packets_sent += n
        agent.packets_emitted += n
    agent._retire_sessions(day_end)
    return PacketBatch.concat(parts).with_origin(agent.agent_id)


class TestDayPlan:
    def test_counts_and_next_draw_match_scalar_loop(self):
        for seed in range(400):
            fast, slow = _twin_agents(seed)
            day = seed % 5
            day_start, day_end = day * DAY, (day + 1) * DAY
            got, seed_seq = fast._day_plan(day_start, day_end)
            want, child = _day_plan_reference(slow, day_start, day_end)
            assert [(fast.sessions.index(s), n, lo, hi)
                    for s, n, lo, hi in got] == \
                [(slow.sessions.index(s), n, lo, hi)
                 for s, n, lo, hi in want], seed
            assert fast._rng.random() == slow._rng.random(), seed
            assert (np.random.default_rng(seed_seq).random()
                    == child.random()), seed


class TestDayColumns:
    COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo", "proto",
               "sport", "dport", "origin")

    def test_emit_equals_per_session_batches(self):
        for seed in range(40):
            fast, slow = _twin_agents(seed)
            for day in range(6):
                day_start, day_end = day * DAY, (day + 1) * DAY
                got = fast.emit_day_batch(day_start, day_end)
                want = _emit_reference(slow, day_start, day_end)
                assert len(got) == len(want), (seed, day)
                if len(want):
                    for column in self.COLUMNS:
                        assert np.array_equal(
                            getattr(got, column), getattr(want, column)
                        ), (seed, day, column)
                assert fast.packets_emitted == slow.packets_emitted
                assert ([s.packets_sent for s in fast.sessions]
                        == [s.packets_sent for s in slow.sessions])
            assert fast._rng.random() == slow._rng.random(), seed

    def test_empty_day_keeps_stream_draws(self):
        """A day planning nothing still makes the session and spawn
        draws, and still retires sessions."""
        fast, slow = _twin_agents(5)
        for session in fast.sessions + slow.sessions:
            session.batch.cancel(0.0)
        for day in range(3):
            day_start, day_end = day * DAY, (day + 1) * DAY
            assert len(fast.emit_day_batch(day_start, day_end)) == 0
            assert len(_emit_reference(slow, day_start, day_end)) == 0
        assert fast.sessions == [] and slow.sessions == []
        assert fast._rng.random() == slow._rng.random()
