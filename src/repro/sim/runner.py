"""End-to-end experiment runner and result bundle.

:func:`run_scenario` builds the scenario and runs its days through one
loop: each day is :meth:`PaperScenario.run_day`, followed by the progress
line, the streaming feed (and observatory), the cadence checkpoint, and
the ``abort_after_day`` test hook, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro._util import DAY
from repro.analysis.records import PacketRecords
from repro.core.honeyprefix import Honeyprefix
from repro.net.addr import IPv6Prefix
from repro.obs import (
    RecordingJournal,
    RunManifest,
    config_hash,
    get_journal,
    get_registry,
    sample_peak_rss,
    set_journal,
    stage,
    use_journal,
)
from repro.sim.scenario import PaperScenario, ScenarioConfig


class SimulationAborted(RuntimeError):
    """Raised by ``run_scenario(abort_after_day=N)`` once day N has
    completed — the test hook simulating a process killed mid-horizon.
    Any state the run was asked to persist (checkpoints, journal lines,
    observer day files) is already on disk when this raises, exactly as
    it would be at a real kill between two days."""

#: A /48-truncated address has its low 80 bits zeroed; prefixes whose
#: network keeps any of those bits set can never equal a truncated net.
_LOW80 = (1 << 80) - 1


@dataclass
class ScenarioResult:
    """Everything the analysis pipeline needs from one scenario run."""

    scenario: PaperScenario
    nta: PacketRecords
    ntb: PacketRecords
    ntc: PacketRecords
    #: Metrics snapshot taken right after the run (empty when metrics are
    #: disabled) — experiments join their own numbers against it.
    telemetry: dict = field(default_factory=dict)
    #: Per-telescope ground-truth provenance: one int32 ``origin`` array
    #: aligned row for row with that telescope's records, holding which
    #: agent emitted each captured packet (negative: unknown) — data a real
    #: telescope never has, kept out of the records and used only for
    #: scoring.
    truth: dict = field(default_factory=dict)
    #: ``stream_analysis`` runs only: telescope name ->
    #: :class:`~repro.analysis.streaming.StreamSummary` (scan events at
    #: every aggregation level, computed incrementally).  The record
    #: columns above are empty in that mode — the packets were analyzed
    #: and released day by day, never retained.
    streaming: dict | None = None
    #: ``observe_dir`` runs only: the observatory's closing summary
    #: (``{"directory", "days", "records"}``) after its per-day observer
    #: files, ``observations.jsonl``, and index were written.
    observatory: dict | None = None

    @property
    def config(self) -> ScenarioConfig:
        return self.scenario.config

    @property
    def honeyprefixes(self) -> dict[str, Honeyprefix]:
        return self.scenario.honeyprefixes

    @property
    def start(self) -> float:
        return 0.0

    @property
    def end(self) -> float:
        return self.config.duration_days * DAY

    @cached_property
    def joiner(self) -> "MetadataJoiner":
        # Only the report sections join metadata; a run never does.
        from repro.analysis.asinfo import MetadataJoiner

        fabric = self.scenario.fabric
        return MetadataJoiner(fabric.prefix2as, fabric.asdb, fabric.geodb)

    def honeyprefix_records(self, name: str) -> PacketRecords:
        """NT-A records restricted to one honeyprefix's /48."""
        hp = self.honeyprefixes[name]
        return self.nta.select(self.nta.mask_dst_in(hp.prefix))

    def control_records(self) -> PacketRecords:
        """Records of the busiest *control* /48 (non-honeyprefix dark space).

        The paper's counterfactuals use the control subnet that received the
        most scanner attention, which lower-bounds the effect sizes.

        Vectorized: the /48 truncation ``(dst >> 80) << 80`` lives entirely
        in the high 64 bits, so the per-row nets come straight from the
        ``dst_hi`` column.  Ties on the packet count are broken by first
        appearance, matching the per-packet oracle in
        ``tests/sim/reference.py``.
        """
        if len(self.nta) == 0:
            return PacketRecords.empty()
        excluded = {hp.prefix.network for hp in self.honeyprefixes.values()}
        excluded |= {p.network for p in self.scenario.live_prefixes}
        excluded_hi = np.fromiter(
            (net >> 64 for net in excluded if net & _LOW80 == 0),
            dtype=np.uint64,
        )
        nets_hi = (self.nta.dst_hi >> np.uint64(16)) << np.uint64(16)
        candidates = nets_hi[~np.isin(nets_hi, excluded_hi)]
        if candidates.size == 0:
            return PacketRecords.empty()
        uniq, first_seen, counts = np.unique(
            candidates, return_index=True, return_counts=True
        )
        ties = np.flatnonzero(counts == counts.max())
        best = uniq[ties[np.argmin(first_seen[ties])]]
        return self.nta.select(nets_hi == best)

    def telescopes(self) -> dict[str, PacketRecords]:
        return {"NT-A": self.nta, "NT-B": self.ntb, "NT-C": self.ntc}


def run_scenario(
    config: ScenarioConfig | None = None,
    progress: bool = False,
    cache_dir=None,
    *,
    checkpoint_every: int | None = None,
    abort_after_day: int | None = None,
    stream_analysis: bool = False,
    observe_dir=None,
) -> ScenarioResult:
    """Build, run, and bundle one full scenario.

    Each stage (world construction, the day loop, freezing the captures)
    is one :func:`~repro.obs.stage` under the ``run_scenario`` stage:
    timed into the active metrics registry and traced as a span when
    those layers are on.  The resulting metrics snapshot rides along as
    :attr:`ScenarioResult.telemetry`.  When a journal is
    active, the run opens with its ``run_manifest`` (config hash + seed +
    package version) and closes with a ``run_end`` summary.

    The run mode is ``batch``, ``stream`` (``stream_analysis``) or
    ``observe`` (``observe_dir``).  With ``cache_dir``, the run goes
    through the on-disk run store, :class:`~repro.exec.cache.ScenarioCache`,
    which keeps one checksummed entry per config (the hash covers every
    field), package version and mode:

    * a verified *completed* entry is loaded instead of simulating —
      ``scenario.build``/``scenario.run`` never run.  A warm stream run
      returns the stored :class:`~repro.analysis.streaming.StreamSummary`
      per telescope; a warm observe run also writes the stored day files
      into ``observe_dir`` and rebuilds ``observations.jsonl`` and the
      index from them;
    * a verified *mid-run* entry (a checkpoint) is resumed: the covered
      days are fast-forwarded without re-emitting a single packet, the
      captured chunks, counters, analyzers and observer cursor are
      restored, and the journal lines written before the checkpoint are
      replayed verbatim.  An observe checkpoint whose ``observe_dir``
      lacks a day file before it is not resumed;
    * otherwise the run simulates from day zero.

    A run that finishes stores its completed entry, which replaces any
    checkpoint of its mode; the journal records ``cache_hit`` or
    ``cache_store`` so a run is auditable from its artifacts.
    ``checkpoint_every=K`` (which needs ``cache_dir``) writes a mid-run
    entry at every day boundary that is a multiple of K.  Every mode and
    store state yields the same records, ``origin``, dispatch counters,
    journal, stream summaries and observer files: the determinism
    contract (``tests/sim/test_mode_matrix.py``).

    ``abort_after_day=N`` raises :class:`SimulationAborted` once day N
    has completed (fed to the analyzers and the observatory, and
    checkpointed if N + 1 is a cadence day): an aborted run's journal and
    observatory files end with day N.  It is the test hook for kill/resume
    equivalence.

    Capture storage (changes what is held, never what is computed): each
    telescope's :class:`~repro.core.capture.PacketCapturer` holds every
    captured row once, in one growable store.  A batch run retains it
    until the freeze, which hands the store's arrays out as the records
    without copying a row, so the peak is set inside the largest day
    (its emitted, dispatched and captured rows), not by a second copy
    of the whole capture.
    ``stream_analysis=True`` runs the scan detectors *during* the day
    loop: each day's captures are drained into per-telescope
    :class:`~repro.analysis.streaming.StreamAnalyzer` instances and
    released, so no packet outlives its day.  Peak memory still grows
    with the horizon through state that outlives a day: the open scan
    sessions (a source that never idles for the session timeout keeps
    its session open, with its distinct targets as 8-byte ids into its
    telescope's target table of 16-byte addresses), the observer's
    seen-source key columns in observe mode, and the closed scan events
    the result returns.  At a flat daily volume
    (``benchmarks/test_microbench_streaming.py``, 5e-3) doubling the
    horizon from 8 to 16 days takes the tracemalloc peak from 37.5 to
    53.9 MB (39.6 to 57.8 MB in observe mode); at day 16 NT-A's open
    sessions hold 1.19M target ids into a 340k-row table, 15.1 MB with
    their columns.  Both modes run the same session kernel
    (:class:`~repro.analysis.scandetect.SessionTracker`), fed a day at a
    time here and the whole run at once by ``detect_scans``, so the
    result's :attr:`ScenarioResult.streaming` summaries carry events
    element-identical to batch detection over the batch records; the
    record columns come back empty.

    ``observe_dir`` adds the longitudinal observatory
    (:mod:`repro.observatory`) to a streaming run, and turns streaming on
    by itself: one validated, bit-reproducible observer JSON record per
    simulated day (scan-event rates, new-source discovery, tactic mix,
    honeyprefix reaction latency) written into the directory, mirrored to
    ``observations.jsonl``, and indexed at the end.
    """
    config = config if config is not None else ScenarioConfig()
    if checkpoint_every is not None and cache_dir is None:
        raise TypeError("checkpoint_every writes checkpoints into the run "
                        "store: pass cache_dir too")
    # Observer records are derived from the streaming day drain.
    stream_analysis = stream_analysis or observe_dir is not None
    mode = ("observe" if observe_dir is not None
            else "stream" if stream_analysis else "batch")
    registry = get_registry()
    cache = stored = None
    if cache_dir is not None:
        from repro.exec.cache import ScenarioCache

        cache = ScenarioCache(cache_dir)
        stored = cache.read(config, mode)
    resume = stored if stored is not None and not stored.complete else None
    if resume is not None and observe_dir is not None:
        # The observatory rebuilds observations.jsonl from the day files
        # before the checkpoint; without all of them (say, a fresh
        # directory) the run starts over.
        from repro.observatory import day_file_path

        if not all(day_file_path(observe_dir, day).exists()
                   for day in range(resume.next_day)):
            resume = None

    streams = None
    if stream_analysis:
        from repro.analysis.streaming import StreamAnalyzer

        streams = (resume.streams if resume is not None
                   else {name: StreamAnalyzer(name)
                         for name in ("NT-A", "NT-B", "NT-C")})

    # With checkpointing on, wrap the active journal in a recorder for the
    # duration of the run: checkpoints then carry every line written so
    # far, and a resumed run replays them for a byte-identical journal.
    previous_journal = None
    if checkpoint_every is not None:
        previous_journal = set_journal(RecordingJournal(inner=get_journal()))
    observatory = None
    try:
        journal = get_journal()
        if resume is None:
            # The manifest opens the journal whether the run simulates or
            # loads from the store: a warm run stays auditable.
            journal.emit(
                "run_manifest",
                **RunManifest.from_config(config).to_record_fields())
        else:
            # The checkpoint's lines (the original manifest included) are
            # the journal's opening lines.
            for line in resume.journal:
                journal.write_line(line)
        if stored is not None and stored.complete:
            result = stored.result()
            if observe_dir is not None:
                from repro.observatory import Observatory, ObservatoryState

                days = config.duration_days
                result.observatory = Observatory(
                    observe_dir, config, start_day=days,
                    state=ObservatoryState(
                        next_day=days,
                        records_total=stored.observatory["records"]),
                    day_files=stored.day_files,
                ).finish()
            return result
        start_day = resume.next_day if resume is not None else 0

        if observe_dir is not None:
            from repro.observatory import Observatory

            observatory = Observatory(
                observe_dir, config, start_day=start_day,
                state=resume.observatory if resume is not None else None,
            )

        with stage("run_scenario", days=config.duration_days,
                   seed=config.seed):
            scenario = _simulate(
                config, resume, start_day, progress=progress,
                cache=cache, mode=mode, checkpoint_every=checkpoint_every,
                abort_after_day=abort_after_day, streams=streams,
                observatory=observatory,
            )
            sample_peak_rss(registry, stage="run")
            summaries = None
            observatory_summary = None
            capturers = scenario.capturers
            with stage("scenario.freeze"):
                if streams is not None:
                    summaries = {name: streams[name].finish()
                                 for name in capturers}
                    records = {name: PacketRecords.empty()
                               for name in capturers}
                    truth = {}
                    counts = {name: summary.records_in
                              for name, summary in summaries.items()}
                    if observatory is not None:
                        observatory_summary = observatory.finish()
                else:
                    records = {name: cap.to_records()
                               for name, cap in capturers.items()}
                    truth = {name: cap.to_truth()
                             for name, cap in capturers.items()}
                    counts = {name: len(r) for name, r in records.items()}
            journal.emit("run_end", days=config.duration_days,
                         packets=sum(counts.values()))
            sample_peak_rss(registry, stage="freeze")
        for name, count in counts.items():
            gauge = f"scenario.records.{name.replace('-', '').lower()}"
            registry.gauge(gauge).set(count)
        result = ScenarioResult(
            scenario=scenario, nta=records["NT-A"], ntb=records["NT-B"],
            ntc=records["NT-C"],
            telemetry=registry.snapshot() if registry.enabled else {},
            truth=truth, streaming=summaries,
            observatory=observatory_summary,
        )
        if cache is not None:
            cache.store(result)
        return result
    finally:
        # An aborted observatory run releases its stream handle without
        # the end marker — exactly the on-disk state a killed process
        # leaves, which resume is built to heal.
        if observatory is not None:
            observatory.close()
        if checkpoint_every is not None:
            set_journal(previous_journal)


def _feed_streams(scenario, streams, journal, day: int,
                  observatory=None) -> None:
    """Drain each telescope's day of captures into its analyzer.

    ``now`` is the day boundary, so sessions idle past the timeout close
    deterministically each day regardless of when their source next shows
    up.  One ``stream_detection`` record per telescope, in fixed order.

    With an ``observatory``, the drained day records are handed to it
    after all three feeds, so the observer record sees the day's
    post-feed tracker state alongside the raw packets and each
    analyzer's day index.  The records and the indexes are released
    either way once the observation is written — the one-day memory
    bound is unchanged.
    """
    drained = {} if observatory is not None else None
    for name, cap in scenario.capturers.items():
        # Streaming detection scores no truth yet: the day's origin
        # column is dropped with the records.
        records, _ = cap.drain_day_records()
        closed = streams[name].feed(records, now=(day + 1) * DAY)
        journal.emit(
            "stream_detection", day=day, telescope=name,
            records_in=len(records), events_closed=closed,
            open_sessions=streams[name].open_sessions,
        )
        if drained is not None:
            drained[name] = records
    if observatory is not None:
        observatory.observe_day(day, scenario, streams, drained)
    for analyzer in streams.values():
        analyzer.end_day()


def _simulate(config, resume, start_day, *, progress, cache, mode,
              checkpoint_every, abort_after_day, streams=None,
              observatory=None):
    """Build (or rebuild-and-fast-forward) the scenario and run its days;
    returns the run scenario."""
    registry = get_registry()
    journal = get_journal()
    duration = config.duration_days
    chash = config_hash(config)

    with stage("scenario.build"):
        scenario = PaperScenario(config)
        if resume is not None:
            for name, chunks in resume.captures.items():
                scenario.capturers[name].extend_chunks(chunks)
            c = scenario.counters
            (c.nta, c.ntb, c.ntc, c.live_dropped, c.unrouted) = \
                resume.manifest["counters"]
        if start_day:
            with use_journal(None):
                for day in range(start_day):
                    scenario.replay_day(day)
    sample_peak_rss(registry, stage="build")

    persisted = resume.manifest if resume is not None else None
    with stage("scenario.run"):
        for day in range(start_day, duration):
            emitted = scenario.run_day(day)
            if progress and day % 10 == 0:
                counters = scenario.counters
                print(f"day {day}: {emitted} packets "
                      f"(NT-A {counters.nta}, NT-C {counters.ntc})")
            if streams is not None:
                _feed_streams(scenario, streams, journal, day,
                              observatory=observatory)
            next_day = day + 1
            if (checkpoint_every is not None and next_day < duration
                    and next_day % max(1, checkpoint_every) == 0):
                # The record goes out *before* the entry is written so the
                # checkpoint carries its own record and a resumed journal
                # replays it in place.
                journal.emit("checkpoint", day=next_day, config_hash=chash)
                persisted = cache.checkpoint(
                    scenario, mode, next_day, journal.lines,
                    streams=streams,
                    cursor=(observatory.checkpoint_state()
                            if observatory is not None else None),
                    previous=persisted)
            if abort_after_day is not None and day >= abort_after_day:
                raise SimulationAborted(f"aborted after day {day}")
    return scenario
