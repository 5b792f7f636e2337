"""Scanner agents: schedule trigger reactions, emit per-day packet batches.

An agent owns an identity (AS, source pool), a set of strategies (data-feed
watchers), and its active :class:`ScanSession`s.  The simulation drives it
with two calls per day:

* :meth:`poll_feeds` — check every strategy for new triggers;
* :meth:`emit_day_batch` — turn each active session's intensity envelope
  into a Poisson packet count and one columnar batch of probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY, make_rng
from repro.net.addr import IPv6Prefix, split_u64
from repro.net.batch import PacketBatch, normalize_probes
from repro.obs import get_journal, get_registry, stage
from repro.scanners.identity import ScannerIdentity, SourceAllocator
from repro.scanners.strategies import ProbeBatch, Strategy

#: What an agent-day that plans nothing returns (zero-length columns, so
#: sharing one instance is safe).
_NO_PACKETS = PacketBatch.empty()


@dataclass
class ScanSession:
    """One active probing campaign (a batch being executed)."""

    batch: ProbeBatch
    packets_sent: int = 0
    #: Worker slice of the agent's source pool dedicated to this target
    #: (None: draw from the whole pool).
    sources: list[int] | None = None
    #: ``sources`` split into (hi, lo) uint64 columns, once.
    source_columns: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sources is not None:
            self.source_columns = split_u64(self.sources)

    def window(self, day_start: float, day_end: float) -> tuple[float, float]:
        """The session's live part ``(lo, hi)`` of ``[day_start, day_end)``:
        clamped to ``min(day_end, cancelled_at, start + duration)``.  Empty
        when ``hi <= lo``."""
        batch = self.batch
        hi = min(day_end, batch.start + batch.duration)
        if batch.cancelled_at is not None:
            hi = min(hi, batch.cancelled_at)
        return max(day_start, batch.start), hi

    def expected_packets(self, day_start: float, day_end: float) -> float:
        """Expected packets in ``[day_start, day_end)``.

        Approximates the envelope's integral over :meth:`window` with the
        midpoint rate; the per-day envelope changes slowly relative to a
        day, so this is accurate to a few percent.
        """
        lo, hi = self.window(day_start, day_end)
        if hi <= lo:
            return 0.0
        return self.batch.rate_at(0.5 * (lo + hi)) * ((hi - lo) / DAY)


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
               np.random.SeedSequence]:
        """Draw the day's per-session packet counts and time bounds.

        Counts come from the agent's main stream, one Poisson draw per
        session with a positive expectation, in session order, so emission
        (:meth:`emit_day_batch`) and checkpoint replay
        (:meth:`replay_day`) consume ``self._rng`` identically and produce
        *identical* per-day Poisson counts under the same seed.  Packet
        contents are then drawn from a per-day child generator, built from
        the returned spawned child seed only when a day has plans —
        spawning does not advance the parent stream — so replay and empty
        days skip it without disturbing any later draw.

        Each plan's time bounds are the session's
        :meth:`ScanSession.window`, the span
        :meth:`ScanSession.expected_packets` integrates over, so cancelled
        or expiring sessions stop emitting at the instant their rate does
        (the §5.3.1 retraction tail).
        """
        day_index = day_start / DAY
        weekly = 1.0 + self.weekly_amplitude * float(
            np.sin(2 * np.pi * day_index / 7.0 + self.weekly_phase)
        )
        scale = self.volume_scale * weekly
        plans: list[tuple[ScanSession, int, float, float]] = []
        for session in self.sessions:
            expected = session.expected_packets(day_start, day_end) * scale
            if expected <= 0:
                continue
            n = int(self._rng.poisson(expected))
            if n:
                plans.append((session, n,
                              *session.window(day_start, day_end)))
        return plans, self._rng.bit_generator.seed_seq.spawn(1)[0]

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
        plans, _pkt_seed = self.plan_day(day_start, day_end)
        for session, n, _lo, _hi in plans:
            session.packets_sent += n
            self.packets_emitted += n
        self._retire_sessions(day_end)

    def plan_day(self, day_start: float, day_end: float
                 ) -> tuple[list[tuple[ScanSession, int, float, float]],
                            np.random.SeedSequence]:
        """This day's draws from the agent's main stream: the session's
        source rotation and :meth:`_day_plan`.  Returns the plan that
        :meth:`emit_day_batch` emits."""
        self.allocator.new_session()
        return self._day_plan(day_start, day_end)

    def emit_day_batch(self, day_start: float, day_end: float,
                       plan=None, out: PacketBatch | None = None
                       ) -> PacketBatch:
        """Emit this day's probes across all active sessions as one batch.

        Draws the day's plan (:meth:`plan_day`) unless ``plan`` is given,
        then each session's timestamps, targets, sources, and sport draws
        straight into one set of day columns.  A day that plans nothing
        returns an empty batch at once, after the same stream draws and
        session retirement as any other day.

        The day loop plans every agent first and hands each its ``plan``
        and ``out``, its rows of the day's columns
        (:meth:`~repro.sim.scenario.PaperScenario.run_day`); the agent
        fills and returns ``out``, leaving the ICMP normalization of
        :func:`~repro.net.batch.normalize_probes` to the day loop, which
        runs it once per day.  Without ``out`` the batch is the agent's
        own and comes back normalized.
        """
        plans, pkt_seed = (self.plan_day(day_start, day_end)
                           if plan is None else plan)
        batch = _NO_PACKETS
        if plans:
            with stage("scenario.emit", agent=self.agent_id,
                       asn=self.identity.asn, sessions=len(plans)) as span:
                batch = out
                if batch is None:
                    batch = PacketBatch.allocate(
                        sum(n for _, n, _, _ in plans),
                        origin=self.agent_id >= 0)
                self._emit_plans(plans, np.random.default_rng(pkt_seed),
                                 batch)
                if out is None:
                    normalize_probes(batch)
            span.set(packets=len(batch))
        self._retire_sessions(day_end)
        return batch

    def _emit_plans(self, plans, pkt_rng, out: PacketBatch) -> None:
        ts, src_hi, src_lo = out.ts, out.src_hi, out.src_lo
        dst_hi, dst_lo = out.dst_hi, out.dst_lo
        proto, sport, dport = out.proto, out.sport, out.dport
        start = 0
        for session, n, lo, hi in plans:
            rows = slice(start, start + n)
            ts[rows] = np.sort(pkt_rng.uniform(lo, hi, size=n))
            (dst_hi[rows], dst_lo[rows], proto[rows],
             dport[rows]) = session.batch.sampler(pkt_rng, n)
            if session.source_columns is not None:
                pool_hi, pool_lo = session.source_columns
                idx = pkt_rng.integers(0, len(pool_hi), size=n)
                src_hi[rows], src_lo[rows] = pool_hi[idx], pool_lo[idx]
            else:
                src_hi[rows], src_lo[rows] = self.allocator.sources_batch(
                    n, pkt_rng)
            sport[rows] = pkt_rng.integers(32_768, 61_000, size=n,
                                           dtype=np.uint16)
            session.packets_sent += n
            start += n
        self.packets_emitted += start
        if out.origin is not None:
            out.origin.fill(self.agent_id)
