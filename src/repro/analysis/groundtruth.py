"""Ground-truth detection scoring.

The simulator knows which scanner agent emitted every packet — provenance
the paper's telescopes could never observe.  The emission path threads a
stable agent id through :class:`~repro.net.batch.PacketBatch` as the
``origin`` column; the capture boundary keeps it out of the analysis-facing
records and freezes it as one int32 array aligned row for row with them
(:meth:`~repro.core.capture.PacketCapturer.to_truth`; negative values mark
rows of unknown provenance).

This module closes the loop: :func:`truth_events` builds the *actual* scan
sessions per agent (the detector's own session kernel and definition —
≥``min_targets`` distinct destinations, ``timeout``-bounded gaps — but
grouped by the true emitter instead of the observed source prefix), and
:func:`score_detection` grades the detector's output against them:

* **precision** — fraction of detected events whose packets all came from
  a single agent (an impure event blends scanners the analysis would then
  mis-attribute);
* **recall** — fraction of truth scan events recovered by at least one
  detected event (same agent contributing, overlapping time);
* **fragmentation** — mean number of detected events covering one
  recovered truth event (>1 at /128 when an agent rotates source
  addresses and the detector splits its scan);
* **merge rate** — fraction of detected events containing packets from
  more than one agent (rises with coarser aggregation, /48 merging
  co-located scanners).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import (
    DEFAULT_MIN_TARGETS,
    DEFAULT_TIMEOUT,
    ScanEvent,
    SessionTracker,
    detect_scans,
)
from repro.net.addr import mask_u64
from repro.obs import stage

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, slots=True)
class TruthEvent:
    """One actual scan session of one agent (the detector's target)."""

    agent: int
    start: float
    end: float
    packets: int
    unique_targets: int


def truth_events(
    records: PacketRecords,
    origin: np.ndarray,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[TruthEvent]:
    """The scan events a perfect detector would report.

    Applies the paper's scan definition — sessions bounded by
    ``timeout``-second gaps, qualifying at ``min_targets`` distinct /128
    destinations — but grouped by the *emitting agent* rather than the
    observed source prefix: one
    :class:`~repro.analysis.scandetect.SessionTracker` at /128 fed the
    known rows with each row's ``origin`` as its source.  ``origin`` is
    aligned row for row with ``records``; rows with unknown provenance
    (``origin`` < 0) are excluded.
    """
    if len(origin) != len(records):
        raise ValueError(
            f"origin has {len(origin)} rows, records {len(records)}")
    known = origin >= 0
    n = int(known.sum())
    # The agent id takes the source column, so the tracker's /128
    # sessions are the agents' sessions and its (start, source) event
    # order is (start, agent).
    agents = PacketRecords.from_columns(
        ts=records.ts[known], src_hi=np.zeros(n, dtype=np.uint64),
        src_lo=origin[known].astype(np.uint64),
        dst_hi=records.dst_hi[known], dst_lo=records.dst_lo[known],
        proto=np.zeros(n, dtype=np.uint8),
        sport=np.zeros(n, dtype=np.uint16),
        dport=np.zeros(n, dtype=np.uint16),
    )
    tracker = SessionTracker(128, min_targets, timeout)
    tracker.feed(agents)
    return [
        TruthEvent(agent=e.source, start=e.start, end=e.end,
                   packets=e.packets, unique_targets=e.unique_targets)
        for e in tracker.finish()
    ]


@dataclass(frozen=True)
class DetectionScore:
    """How well detected scan-events recover the true scanner sessions."""

    source_length: int
    n_events: int          # detected events
    n_truth_events: int    # actual agent scan sessions
    n_agents: int          # distinct agents with >= 1 truth event
    precision: float       # single-agent ("pure") events / detected events
    recall: float          # truth events recovered / truth events
    fragmentation: float   # mean detected events per recovered truth event
    merge_rate: float      # multi-agent events / detected events

    def render_row(self) -> str:
        return (
            f"  /{self.source_length:<4d} events {self.n_events:>6d}  "
            f"truth {self.n_truth_events:>6d}  "
            f"precision {self.precision:6.1%}  recall {self.recall:6.1%}  "
            f"frag {self.fragmentation:5.2f}  merge {self.merge_rate:6.1%}"
        )


def _event_contributors(
    events: list[ScanEvent],
    records: PacketRecords,
    origin: np.ndarray,
    source_length: int,
) -> list[np.ndarray]:
    """Per detected event: the distinct known agent ids of its packets.

    The rows are sorted once by (masked source, timestamp); each event
    then resolves to a contiguous slice via binary search, so the total
    cost is one sort plus O(log n) per event.
    """
    mhi, mlo = mask_u64(records.src_hi, records.src_lo, source_length)
    order = np.lexsort((records.ts, mlo, mhi))
    khi, klo = mhi[order], mlo[order]
    kts = records.ts[order]
    korigin = origin[order]

    contributors: list[np.ndarray] = []
    for event in events:
        ehi = np.uint64((event.source >> 64) & _U64)
        elo = np.uint64(event.source & _U64)
        lo = int(np.searchsorted(khi, ehi, side="left"))
        hi = int(np.searchsorted(khi, ehi, side="right"))
        lo += int(np.searchsorted(klo[lo:hi], elo, side="left"))
        hi = lo + int(np.searchsorted(klo[lo:hi], elo, side="right"))
        lo += int(np.searchsorted(kts[lo:hi], event.start, side="left"))
        hi = lo + int(np.searchsorted(kts[lo:hi], event.end, side="right"))
        rows = korigin[lo:hi]
        contributors.append(np.unique(rows[rows >= 0]))
    return contributors


def score_detection(
    events: list[ScanEvent],
    records: PacketRecords,
    origin: np.ndarray,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
    source_length: int | None = None,
) -> DetectionScore:
    """Grade detected scan-events against the simulated scanner population.

    ``events`` must all share one aggregation level (the usual output of
    :func:`~repro.analysis.scandetect.detect_scans` over ``records``, whose
    row-aligned provenance is ``origin``); truth events are
    built with the same ``min_targets``/``timeout`` the detector used, so
    the comparison is apples-to-apples.  ``source_length`` is derived from
    the events; pass it explicitly when the list may be empty (an empty
    detection is still a score — recall 0 against a non-empty truth).
    """
    lengths = {e.source_length for e in events}
    if len(lengths) > 1:
        raise ValueError(
            f"events mix aggregation levels {sorted(lengths)}; score one "
            f"level at a time"
        )
    if lengths:
        derived = lengths.pop()
        if source_length is not None and source_length != derived:
            raise ValueError(
                f"events are aggregated at /{derived}, not /{source_length}"
            )
        source_length = derived
    elif source_length is None:
        source_length = 128

    truths = truth_events(records, origin, min_targets=min_targets,
                          timeout=timeout)
    return _score(events, records, origin, truths, source_length)


def _score(
    events: list[ScanEvent],
    records: PacketRecords,
    origin: np.ndarray,
    truths: list[TruthEvent],
    source_length: int,
) -> DetectionScore:
    """Grade ``events`` (all at /``source_length``) against ``truths``,
    the truth events of ``(records, origin)`` built at the detector's
    parameters."""
    with stage("analysis.score_detection", source_length=source_length,
               events=len(events)):
        contributors = _event_contributors(events, records, origin,
                                           source_length)

        pure = sum(1 for c in contributors if len(c) == 1)
        merged = sum(1 for c in contributors if len(c) > 1)

        # agent id -> [(start, end), ...] of detected events it contributed to
        by_agent: dict[int, list[tuple[float, float]]] = {}
        for event, agents in zip(events, contributors):
            for agent in agents:
                by_agent.setdefault(int(agent), []).append(
                    (event.start, event.end)
                )

        recovered = 0
        fragments = 0
        for te in truths:
            n_overlapping = sum(
                1 for (s, e) in by_agent.get(te.agent, ())
                if s <= te.end and e >= te.start
            )
            if n_overlapping:
                recovered += 1
                fragments += n_overlapping

        return DetectionScore(
            source_length=source_length,
            n_events=len(events),
            n_truth_events=len(truths),
            n_agents=len({te.agent for te in truths}),
            precision=pure / len(events) if events else 1.0,
            recall=recovered / len(truths) if truths else 1.0,
            fragmentation=fragments / recovered if recovered else 0.0,
            merge_rate=merged / len(events) if events else 0.0,
        )


def score_all_levels(
    records: PacketRecords,
    origin: np.ndarray,
    levels: tuple[int, ...] = (128, 64, 48),
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[int, DetectionScore]:
    """Run detection and scoring at each aggregation level (the truth
    events, which do not depend on the level, are built once)."""
    truths = truth_events(records, origin, min_targets=min_targets,
                          timeout=timeout)
    scores: dict[int, DetectionScore] = {}
    for length in levels:
        events = detect_scans(records, source_length=length,
                              min_targets=min_targets, timeout=timeout)
        scores[length] = _score(events, records, origin, truths, length)
    return scores
