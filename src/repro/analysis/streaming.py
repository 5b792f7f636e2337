"""Online scan detection for a streaming run.

A :class:`StreamAnalyzer` holds one
:class:`~repro.analysis.scandetect.SessionTracker` per aggregation level
and feeds them a telescope's records one day at a time, all through one
shared :class:`~repro.analysis.scandetect.DayIndex` per day.  The trackers
carry open sessions across day boundaries, so the finished event lists
equal batch :func:`~repro.analysis.scandetect.detect_scans` over the
whole run — element-identical at every aggregation level, pinned by
randomized equivalence tests — while memory stays O(open sessions + one
day).  The observer reads each level's distinct sources from the same
index (:meth:`StreamAnalyzer.day_sources`).

The session kernel itself lives in :mod:`repro.analysis.scandetect`;
its names are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import (
    DEFAULT_MIN_TARGETS,
    DEFAULT_TIMEOUT,
    DayIndex,
    ScanEvent,
    SessionTracker,
)

__all__ = [
    "SCAN_LEVELS",
    "DayIndex",
    "SessionTracker",
    "StreamAnalyzer",
    "StreamSummary",
]

#: The paper's three source-aggregation levels, in report order.
SCAN_LEVELS = (128, 64, 48)


@dataclass
class StreamSummary:
    """What a finished streaming run carries instead of full records."""

    name: str
    records_in: int
    #: aggregation level -> the run's full scan-event list (identical to
    #: batch ``detect_scans`` over the materialized records).
    events: dict[int, list[ScanEvent]] = field(default_factory=dict)


class StreamAnalyzer:
    """One telescope's online analysis bundle.

    Holds a :class:`SessionTracker` per aggregation level (the paper's
    /128, /64, /48 by default), all fed the same day chunk through one
    shared :class:`DayIndex`.  Picklable, so a streaming run's open state
    checkpoints alongside the scenario; the day index is not part of it.
    """

    def __init__(
        self,
        name: str = "NT-A",
        levels: tuple[int, ...] = SCAN_LEVELS,
        min_targets: int = DEFAULT_MIN_TARGETS,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.name = name
        self.levels = tuple(levels)
        self.trackers = {
            level: SessionTracker(source_length=level,
                                  min_targets=min_targets, timeout=timeout)
            for level in self.levels
        }
        self.records_in = 0
        self._summary: StreamSummary | None = None
        self._day_sources: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_day_sources"] = {}
        return state

    def feed(self, records: PacketRecords, now: float | None = None) -> int:
        """Feed one day chunk to every tracker; returns events closed."""
        index = DayIndex(records)
        closed = sum(tracker.feed_index(index, now=now)
                     for tracker in self.trackers.values())
        self._day_sources = {level: index.level(level)[1:]
                             for level in self.levels}
        self.records_in += len(records)
        return closed

    def day_sources(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct sources at ``level`` of the chunk fed last, as
        (hi, lo) columns in address order (``lo`` is zero at levels
        <= 64)."""
        return self._day_sources[level]

    @property
    def open_sessions(self) -> int:
        return sum(t.open_sessions for t in self.trackers.values())

    def finish(self) -> StreamSummary:
        """Finalize every tracker into a :class:`StreamSummary`
        (idempotent)."""
        if self._summary is None:
            self._summary = StreamSummary(
                name=self.name,
                records_in=self.records_in,
                events={level: tracker.finish()
                        for level, tracker in self.trackers.items()},
            )
        return self._summary
