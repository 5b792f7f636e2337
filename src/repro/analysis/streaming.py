"""Online scan detection for a streaming run.

A :class:`StreamAnalyzer` holds one
:class:`~repro.analysis.scandetect.SessionTracker` per aggregation level
and feeds them a telescope's records one day at a time, all through one
shared :class:`~repro.analysis.scandetect.DayIndex` per day.  The trackers
carry open sessions across day boundaries, so the finished event lists
equal batch :func:`~repro.analysis.scandetect.detect_scans` over the
whole run — element-identical at every aggregation level, pinned by
randomized equivalence tests — while memory stays O(open sessions + one
day).  The three trackers hold their open sessions' targets as ids into
one :class:`~repro.analysis.scandetect.TargetTable`: a day maps the table
to its destination ids with one lookup for all three levels, and the
analyzer compacts the table after the three feeds.  The observer reads
the day from the same index until :meth:`StreamAnalyzer.end_day`: each
level's distinct sources (:meth:`StreamAnalyzer.day_sources`) and NT-A's
destination and source ids (:attr:`StreamAnalyzer.day_index`).

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
    TargetTable,
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
    shared :class:`DayIndex` and holding their targets in one shared
    :class:`TargetTable`.  Picklable, so a streaming run's open state
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
        self._targets = TargetTable()
        self.trackers = {
            level: SessionTracker(source_length=level,
                                  min_targets=min_targets, timeout=timeout,
                                  targets=self._targets)
            for level in self.levels
        }
        self.records_in = 0
        self._summary: StreamSummary | None = None
        self._day: DayIndex | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_day"] = None
        return state

    def feed(self, records: PacketRecords, now: float | None = None) -> int:
        """Feed one day chunk to every tracker; returns events closed."""
        index = DayIndex(records)
        closed = sum(tracker.feed_index(index, now=now)
                     for tracker in self.trackers.values())
        self._targets.compact(self.trackers.values())
        self._day = index
        self.records_in += len(records)
        return closed

    @property
    def day_index(self) -> DayIndex | None:
        """The :class:`DayIndex` of the chunk fed last, until
        :meth:`end_day`."""
        return self._day

    def end_day(self) -> None:
        """Release the day index once the day has been read."""
        self._day = None

    def day_sources(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct sources at ``level`` of the chunk fed last, as
        (hi, lo) columns in address order (``lo`` is zero at levels
        <= 64)."""
        if self._day is None or level not in self.levels:
            raise KeyError(level)
        return self._day.level(level)[1:]

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
            self._targets = TargetTable()
        return self._summary
