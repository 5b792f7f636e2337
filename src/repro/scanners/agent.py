"""Scanner agents: schedule trigger reactions, emit per-day packet batches.

An agent owns an identity (AS, source pool), a set of strategies (data-feed
watchers), and its active :class:`ScanSession`s.  The simulation drives it
with two calls per day:

* :meth:`poll_feeds` — check every strategy for new triggers;
* :meth:`emit_day_batch` — turn each active session's intensity envelope
  into a Poisson packet count and one columnar batch of probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import DAY, make_rng, spawn_rngs
from repro.net.addr import IPv6Prefix, split_u64
from repro.net.batch import PacketBatch, probe_batch
from repro.obs import get_journal, get_tracer
from repro.obs.registry import get_registry
from repro.scanners.identity import ScannerIdentity, SourceAllocator
from repro.scanners.strategies import ProbeBatch, Strategy


@dataclass
class ScanSession:
    """One active probing campaign (a batch being executed)."""

    batch: ProbeBatch
    packets_sent: int = 0
    #: Worker slice of the agent's source pool dedicated to this target
    #: (None: draw from the whole pool).
    sources: list[int] | None = None

    def expected_packets(self, day_start: float, day_end: float) -> float:
        """Expected packets in ``[day_start, day_end)``.

        Approximates the envelope's integral with the midpoint rate; the
        per-day envelope changes slowly relative to a day, so this is
        accurate to a few percent.
        """
        effective_start = max(day_start, self.batch.start)
        end = day_end
        if self.batch.cancelled_at is not None:
            end = min(end, self.batch.cancelled_at)
        end = min(end, self.batch.start + self.batch.duration)
        if end <= effective_start:
            return 0.0
        midpoint = 0.5 * (effective_start + end)
        fraction = (end - effective_start) / DAY
        return self.batch.rate_at(midpoint) * fraction


class ScannerAgent:
    """One scanner: identity + strategies + active sessions."""

    def __init__(
        self,
        identity: ScannerIdentity,
        strategies: list[Strategy],
        rng: np.random.Generator | int | None = 0,
        volume_scale: float = 1.0,
        max_sessions: int = 200,
        weekly_amplitude: float = 0.15,
    ):
        self.identity = identity
        self.strategies = list(strategies)
        self._rng = make_rng(rng)
        self.allocator = SourceAllocator(identity, rng=self._rng)
        self.volume_scale = volume_scale
        self.max_sessions = max_sessions
        # Real scanning operations have day-of-week rhythm (jobs pause on
        # weekends, batch restarts on Mondays); a mild sinusoid with a
        # per-agent phase gives the daily series the weekly seasonality
        # the BSTM's seasonal component models.
        self.weekly_amplitude = weekly_amplitude
        self.weekly_phase = float(self._rng.uniform(0, 2 * np.pi))
        self.sessions: list[ScanSession] = []
        self.packets_emitted = 0
        self.sessions_dropped = 0
        #: Stable per-scenario id for ground-truth provenance; assigned by
        #: the scenario at build time (< 0: anonymous, batches unstamped).
        self.agent_id = -1
        self._m_dropped = get_registry().counter("agent.sessions.dropped")

    # -- feeds ------------------------------------------------------------

    def poll_feeds(self, since: float, until: float) -> int:
        """Poll every strategy; returns the number of new sessions."""
        journal = get_journal()
        new = 0
        for strategy in self.strategies:
            for batch in strategy.poll(since, until, self._rng):
                if len(self.sessions) >= self.max_sessions:
                    self.sessions_dropped += 1
                    self._m_dropped.inc()
                    journal.emit(
                        "session_drop",
                        agent=self.agent_id, asn=self.identity.asn,
                        at=batch.start,
                    )
                    continue
                # Trigger-driven batches get a worker slice of the pool;
                # long-running background scans rotate the whole pool.
                slice_sources = (
                    self.allocator.target_slice()
                    if batch.trigger not in ("ambient", "sweep", "tga")
                    else None
                )
                self.sessions.append(ScanSession(
                    batch, sources=slice_sources
                ))
                journal.emit(
                    "session_start",
                    agent=self.agent_id, asn=self.identity.asn,
                    trigger=batch.trigger, at=batch.start,
                )
                new += 1
        return new

    def cancel_prefix(self, prefix: IPv6Prefix, at: float) -> int:
        """Cancel sessions probing ``prefix`` (BGP withdrawal reaction)."""
        n = 0
        for session in self.sessions:
            subject = session.batch.subject_prefix
            if subject is not None and (
                subject == prefix or prefix.contains_prefix(subject)
            ):
                session.batch.cancel(at)
                get_journal().emit(
                    "session_cancel",
                    agent=self.agent_id, asn=self.identity.asn,
                    prefix=str(prefix), at=at,
                )
                n += 1
        return n

    # -- emission -----------------------------------------------------------

    def _day_plan(
        self, day_start: float, day_end: float,
    ) -> tuple[list[tuple[ScanSession, int, float, float]],
               np.random.Generator]:
        """Draw the day's per-session packet counts and time bounds.

        Counts come from the agent's main stream in session order, so
        emission (:meth:`emit_day_batch`) and checkpoint replay
        (:meth:`replay_day`) consume ``self._rng`` identically and produce
        *identical* per-day Poisson counts under the same seed.  Packet
        contents are then drawn from a spawned per-day child generator —
        spawning does not advance the parent stream — so replay can skip
        them without disturbing any later draw.

        Each plan's time bounds are clamped to
        ``min(day_end, cancelled_at, start + duration)``, the same window
        :meth:`ScanSession.expected_packets` integrates over, so cancelled
        or expiring sessions stop emitting at the instant their rate does
        (the §5.3.1 retraction tail).
        """
        day_index = day_start / DAY
        weekly = 1.0 + self.weekly_amplitude * float(
            np.sin(2 * np.pi * day_index / 7.0 + self.weekly_phase)
        )
        plans: list[tuple[ScanSession, int, float, float]] = []
        for session in self.sessions:
            expected = session.expected_packets(day_start, day_end) * (
                self.volume_scale * weekly
            )
            if expected <= 0:
                continue
            n = int(self._rng.poisson(expected))
            if n == 0:
                continue
            lo = max(day_start, session.batch.start)
            hi = day_end
            if session.batch.cancelled_at is not None:
                hi = min(hi, session.batch.cancelled_at)
            hi = min(hi, session.batch.start + session.batch.duration)
            plans.append((session, n, lo, hi))
        return plans, spawn_rngs(self._rng, 1)[0]

    def _retire_sessions(self, day_end: float) -> None:
        """Retire long-dead sessions to bound memory."""
        self.sessions = [
            s for s in self.sessions
            if (s.batch.cancelled_at is None or
                day_end < s.batch.cancelled_at + DAY)
            and day_end < s.batch.start + s.batch.duration + DAY
        ]

    def replay_day(self, day_start: float, day_end: float) -> None:
        """Fast-forward one day: advance streams without emitting packets.

        Checkpoint resume rebuilds the scenario and replays the days
        already covered by the checkpoint.  Replay must consume exactly
        the draws the original day consumed from the agent's *main*
        stream — ``allocator.new_session()`` (the per-session source
        rotation), the per-session Poisson counts, and the per-day child
        spawn inside :meth:`_day_plan` (spawning does not advance the
        parent stream but does advance its spawn counter) — while
        skipping the per-day child's own draws entirely: nothing else
        ever reads that child, so not sampling packet contents leaves
        every later stream untouched.  Session bookkeeping
        (``packets_sent``, retirement) is kept in step so cancellation
        clamps and retirement behave identically after resume.  Samplers
        deliver exactly the planned count, so advancing
        :attr:`packets_emitted` by the planned counts matches an emitting
        run exactly.
        """
        self.allocator.new_session()
        plans, _pkt_rng = self._day_plan(day_start, day_end)
        for session, n, _lo, _hi in plans:
            session.packets_sent += n
            self.packets_emitted += n
        self._retire_sessions(day_end)

    def emit_day_batch(self, day_start: float, day_end: float) -> PacketBatch:
        """Emit this day's probes across all active sessions as one batch.

        Draws the per-session Poisson counts (:meth:`_day_plan`), then
        vectorizes timestamps, targets, sources, and sport draws per
        session.
        """
        self.allocator.new_session()
        plans, pkt_rng = self._day_plan(day_start, day_end)
        span = get_tracer().span("agent.emit_day_batch",
                                 agent=self.agent_id,
                                 asn=self.identity.asn,
                                 sessions=len(plans))
        with span:
            batch = self._emit_plans(plans, pkt_rng, day_end)
        span.set(packets=len(batch))
        return batch

    def _emit_plans(self, plans, pkt_rng, day_end: float) -> PacketBatch:
        parts: list[PacketBatch] = []
        emitted = 0
        for session, n, lo, hi in plans:
            ts = np.sort(pkt_rng.uniform(lo, hi, size=n))
            dst_hi, dst_lo, proto, dport = session.batch.sampler(pkt_rng, n)
            if session.sources is not None:
                pool_hi, pool_lo = split_u64(session.sources)
                idx = pkt_rng.integers(0, len(session.sources), size=n)
                src_hi, src_lo = pool_hi[idx], pool_lo[idx]
            else:
                src_hi, src_lo = self.allocator.sources_batch(n, pkt_rng)
            sport = pkt_rng.integers(32_768, 61_000, size=n,
                                     dtype=np.uint16)
            parts.append(probe_batch(ts, src_hi, src_lo, dst_hi, dst_lo,
                                     proto, sport, dport))
            session.packets_sent += n
            emitted += n
        self._retire_sessions(day_end)
        self.packets_emitted += emitted
        batch = PacketBatch.concat(parts)
        if self.agent_id >= 0:
            batch = batch.with_origin(self.agent_id)
        return batch
