"""Scan-event detection.

The paper's definition (footnote 1): a scan is a source hitting at least
100 distinct IPv6 destinations with a maximum packet inter-arrival time of
3600 seconds.  Sources can be aggregated at /128, /64, or /48 before
detection to catch scanners that rotate source addresses within a covering
prefix to evade per-address thresholds.

**One session kernel.**  :class:`SessionTracker` is the only code that
cuts traffic into scan sessions.  It consumes time-ordered chunks of
records, carries open sessions across chunk boundaries, and emits exactly
the event list one pass over the concatenation would.
:func:`detect_scans` feeds it the whole record set as a single chunk; the
streaming analyzer (:mod:`repro.analysis.streaming`) feeds it one
telescope-day at a time; and the ground-truth sessions
(:func:`repro.analysis.groundtruth.truth_events`) are the same tracker at
/128 with each row's emitting agent in the source column.  The
per-packet loop is kept as the test oracle ``detect_scans_reference`` in
``tests/analysis/reference.py`` and cross-checked by randomized
equivalence tests.

**One day index per chunk.**  A :class:`DayIndex` sorts what every
aggregation level shares exactly once: a stable timestamp rank, dense
/128 source ids numbered in address order (masking that small sorted
table of distinct sources to a prefix length keeps it sorted, so each
level's ids follow from the table alone), and dense destination ids.
Each level then needs one single-key int64 argsort — ``(source id,
timestamp rank)`` lays its sessions out — and one int64 sort —
``(segment, destination id)`` counts their distinct targets.

**Open sessions are columns; their targets are table ids.**  A
tracker's carry state is one row per open session: the truncated
source, first and last packet times, packet count, and the distinct
targets in CSR form, each an integer id into a :class:`TargetTable` of
(hi, lo) destinations.  The trackers of one
:class:`~repro.analysis.streaming.StreamAnalyzer` share one table, so a
target held at /128, /64 and /48 is stored once; a standalone tracker
owns its own.  At a feed, one lookup of the table among the chunk's
destinations maps every table id to a chunk destination id (a target
the chunk never saw takes a fresh id past them), once per chunk for all
the levels.  A carried session whose source reappears in the chunk is
located by a lookup in the level's table of distinct sources; if the
source's first chunk packet arrives within the timeout, the session
merges into that first segment, and its mapped target ids join the
segment's ``(segment, destination)`` sort — so the union is counted by
the same pass as every other segment's targets.  Carried sessions that
do not merge close, or stay open while a future packet could still
extend them.  The next carry holds chunk ids, written in one allocation:
the staying segments' targets, then the idle carried sessions' mapped
ids.  After the chunk's feeds the table is compacted to the ids an open
session still references and the carries renumbered into it (a
standalone tracker defers this to its next feed, so a single-chunk run
never builds a table).  All of it is vectorized; no Python runs per
session.

Memory is O(open sessions + one chunk), never O(run) for a chunked feed:
at each feed boundary any session whose last packet is more than a
timeout behind the chunk horizon is finalized (no future packet can
extend it), so the carry state tracks only currently-active sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.analysis.records import PacketRecords
from repro.net.addr import find_keys, group_keys, mask_u64, run_starts
from repro.obs import get_journal, get_registry, stage

#: Paper's scan definition parameters.
DEFAULT_MIN_TARGETS = 100
DEFAULT_TIMEOUT = 3_600.0


@dataclass(frozen=True, slots=True)
class ScanEvent:
    """One detected scan: an aggregated source's burst of probing."""

    source: int          # source subnet (truncated to the aggregation length)
    source_length: int   # the aggregation prefix length
    start: float
    end: float
    packets: int
    unique_targets: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _event_order(event: ScanEvent) -> tuple[float, int]:
    # Total order over distinct events: two sessions of the same source
    # cannot share a start time (they are separated by > timeout), so
    # (start, source) disambiguates every tie.
    return (event.start, event.source)


def _validate(min_targets: int, timeout: float) -> None:
    check_positive("timeout", timeout)
    if min_targets < 1:
        raise ValueError(f"min_targets must be >= 1, got {min_targets}")


_NEG_INF = float("-inf")


def _csr_take(offsets: np.ndarray, rows: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of CSR ``rows``, concatenated in order, and each
    row's length."""
    lengths = offsets[rows + 1] - offsets[rows]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return (np.arange(total)
            + np.repeat(offsets[rows] - (ends - lengths), lengths)), lengths


def _sessions(kid: np.ndarray, index: "DayIndex", id_bound: int,
              timeout: float) -> tuple:
    """One level's rows cut into sessions by the definition's gap rule.

    Rows are grouped by level source id ``kid`` and time-ordered within a
    group (the sort key is unique, so any argsort gives the stable
    order); a session starts at a group change or at a gap strictly above
    the timeout (a gap exactly equal to the timeout stays in-session).
    Returns ``(codes, starts, seg_kid, start_ts, end_ts)``: each row's
    ``segment * id_bound + destination id`` code, then per session its
    first sorted row, source id, and first and last packet times.
    """
    n = len(kid)
    order = np.argsort(kid * n + index.rank)
    kk = kid[order]
    t = index.ts[order]
    new_seg = run_starts(kk)
    new_seg[1:] |= t[1:] - t[:-1] > timeout
    starts = np.flatnonzero(new_seg)
    ends = np.append(starts[1:], n) - 1
    codes = np.cumsum(new_seg) - 1
    codes *= id_bound
    codes += index.did[order]
    return codes, starts, kk[starts], t[starts], t[ends]


class DayIndex:
    """What every aggregation level shares about one chunk, sorted once.

    * ``rank``: each row's position in stable timestamp order, and
      ``by_time`` its inverse, the rows in that order;
    * ``sid``: dense /128 source ids into the distinct sources
      ``src_hi``/``src_lo``, which are in (hi, lo) order — masking that
      table to any prefix length keeps it sorted, so :meth:`level`
      derives a level's ids from the table alone;
    * ``did``: dense destination ids into ``dst_hi``/``dst_lo``;
      :meth:`destination_ids` finds a :class:`TargetTable`'s carried
      targets among them, so carried and fresh targets compare as
      integers.

    Built per chunk and never pickled.
    """

    def __init__(self, records: PacketRecords):
        n = self.n = len(records)
        self.ts = records.ts
        self.t_min = float(records.ts.min()) if n else None
        self.t_max = float(records.ts.max()) if n else None
        self.by_time = np.argsort(records.ts, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.by_time] = np.arange(n)

        sid, rep = group_keys((records.src_hi, records.src_lo))
        s_hi, s_lo = records.src_hi[rep], records.src_lo[rep]
        by_address = np.lexsort((s_lo, s_hi))
        self.src_hi, self.src_lo = s_hi[by_address], s_lo[by_address]
        renumber = np.empty(len(by_address), dtype=np.int64)
        renumber[by_address] = np.arange(len(by_address))
        self.sid = renumber[sid]

        self.did, rep = group_keys((records.dst_hi, records.dst_lo))
        self.dst_hi, self.dst_lo = records.dst_hi[rep], records.dst_lo[rep]
        self._levels: dict[int, tuple] = {}

    def destination_ids(self, hi: np.ndarray, lo: np.ndarray
                        ) -> np.ndarray:
        """The id of each (hi, lo) destination in this chunk, or -1."""
        return find_keys((self.dst_hi, self.dst_lo), (hi, lo))

    def level(self, length: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kid_of_sid, key_hi, key_lo)`` at one aggregation length: the
        dense level id of each /128 source id, and the distinct truncated
        sources in (hi, lo) order (``key_lo`` is zero at lengths <= 64)."""
        if length not in self._levels:
            hi, lo = mask_u64(self.src_hi, self.src_lo, length)
            first = run_starts(hi) | run_starts(lo)
            self._levels[length] = (np.cumsum(first) - 1,
                                    hi[first], lo[first])
        return self._levels[length]


class TargetTable:
    """The distinct targets that open sessions hold, by integer id.

    Row ``i`` is the destination ``(hi[i], lo[i])``; every open session
    keeps its targets as ids into the table, so a target held by several
    sessions — at several aggregation levels when trackers share the
    table — is stored once, and a chunk finds the carried targets among
    its destinations with one lookup of the table, not one per session.

    :meth:`chunk_ids` maps the table into a chunk's id space: the
    :class:`DayIndex` destination ids, then one fresh id per row the
    chunk never saw.  It is computed once per index, so trackers sharing
    the table share the lookup.  While a chunk is fed, their carries hold
    ids in that chunk space; :meth:`compact` then rebuilds the table from
    the chunk ids an open session still references and renumbers the
    carries into it.
    """

    def __init__(self) -> None:
        self.hi = self.lo = np.empty(0, dtype=np.uint64)
        #: ``(dst_hi, dst_lo, absent)`` of the chunk whose ids the
        #: carries hold, until :meth:`compact`; ``absent`` are the table
        #: rows the chunk never saw, in fresh-id order.
        self._pending: tuple | None = None
        self._index: DayIndex | None = None
        self._map: tuple | None = None

    def __len__(self) -> int:
        return len(self.hi)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_index"] = state["_map"] = None
        return state

    def chunk_ids(self, index: DayIndex) -> tuple[np.ndarray, int]:
        """``(to_chunk, id_bound)``: each table row's id in ``index``'s
        destination id space, and the bound of that space."""
        if self._index is index:
            return self._map
        if self._pending is not None:
            raise RuntimeError(
                "target ids of the previous chunk were never compacted")
        n_dst = len(index.dst_hi)
        if len(self.hi):
            to_chunk = index.destination_ids(self.hi, self.lo)
            absent = np.flatnonzero(to_chunk < 0)
            to_chunk[absent] = n_dst + np.arange(len(absent))
        else:
            to_chunk = absent = np.empty(0, dtype=np.int64)
        self._pending = (index.dst_hi, index.dst_lo, absent)
        self._index, self._map = index, (to_chunk, n_dst + len(absent))
        return self._map

    def compact(self, trackers) -> None:
        """Keep the chunk ids that an open session of ``trackers`` (every
        tracker holding ids into this table) references, and renumber
        them."""
        if self._pending is None:
            return
        dst_hi, dst_lo, absent = self._pending
        n_dst = len(dst_hi)
        carries = [tracker._open for tracker in trackers]
        used = np.zeros(n_dst + len(absent), dtype=bool)
        for carry in carries:
            used[carry.t_id] = True
        kept = np.flatnonzero(used)
        del used
        new_id = np.empty(n_dst + len(absent), dtype=np.int64)
        new_id[kept] = np.arange(len(kept))
        for carry in carries:
            carry.t_id = new_id[carry.t_id]
        del new_id
        split = int(np.searchsorted(kept, n_dst))
        held = absent[kept[split:] - n_dst]
        self.hi = np.concatenate([dst_hi[kept[:split]], self.hi[held]])
        self.lo = np.concatenate([dst_lo[kept[:split]], self.lo[held]])
        self._pending = self._index = self._map = None


@dataclass
class _OpenSessions:
    """A tracker's open sessions as columns, one row per session.

    ``k_hi``/``k_lo`` is the truncated source (``k_lo`` is zero at
    lengths <= 64); session ``i``'s distinct targets are the
    :class:`TargetTable` ids ``t_id[t_off[i]:t_off[i + 1]]`` — 8 bytes
    per target, the tracker's only per-session payload.
    """

    k_hi: np.ndarray
    k_lo: np.ndarray
    start: np.ndarray
    last: np.ndarray
    packets: np.ndarray
    t_off: np.ndarray
    t_id: np.ndarray

    @classmethod
    def empty(cls) -> "_OpenSessions":
        words, times = np.empty(0, np.uint64), np.empty(0, np.float64)
        return cls(words, words, times, times, np.empty(0, np.int64),
                   np.zeros(1, np.int64), np.empty(0, np.int64))

    def __len__(self) -> int:
        return len(self.k_hi)

    def targets(self) -> np.ndarray:
        """Distinct-target count per session."""
        return np.diff(self.t_off)

    def take(self, rows: np.ndarray) -> "_OpenSessions":
        positions, lengths = _csr_take(self.t_off, rows)
        return _OpenSessions(
            self.k_hi[rows], self.k_lo[rows], self.start[rows],
            self.last[rows], self.packets[rows],
            np.concatenate([[0], np.cumsum(lengths)]),
            self.t_id[positions])


class SessionTracker:
    """The scan-session kernel at one aggregation length.

    Feed time-ordered chunks (each chunk may be internally unsorted, but no
    chunk may contain a timestamp earlier than a previous chunk's horizon);
    call :meth:`finish` for the final event list.  The emitted events are
    element-identical — same fields, same order — however the records are
    split into chunks, one chunk included (:func:`detect_scans`), and equal
    the per-packet oracle ``detect_scans_reference`` over their
    concatenation.
    """

    def __init__(
        self,
        source_length: int = 64,
        min_targets: int = DEFAULT_MIN_TARGETS,
        timeout: float = DEFAULT_TIMEOUT,
        targets: TargetTable | None = None,
    ):
        """``targets`` is a table shared with other trackers fed the same
        chunks, whose owner compacts it after every chunk; by default the
        tracker owns a table of its own and compacts it itself."""
        _validate(min_targets, timeout)
        if not 0 <= source_length <= 128:
            raise ValueError(
                f"prefix length must be in [0, 128], got {source_length}")
        self.source_length = source_length
        self.min_targets = min_targets
        self.timeout = timeout
        self._watermark = _NEG_INF
        self._events: list[ScanEvent] = []
        self._open = _OpenSessions.empty()
        self._owns_targets = targets is None
        self._targets = TargetTable() if targets is None else targets

    # -- introspection ----------------------------------------------------

    @property
    def open_sessions(self) -> int:
        return len(self._open)

    @property
    def events_closed(self) -> int:
        return len(self._events)

    # -- internals --------------------------------------------------------

    def _emit(self, k_hi, k_lo, start, end, packets, uniq) -> None:
        """Record every given session reaching ``min_targets`` as an
        event."""
        q = np.flatnonzero(uniq >= self.min_targets)
        length = self.source_length
        self._events.extend(
            ScanEvent(source=(hi << 64) | lo, source_length=length,
                      start=s, end=e, packets=p, unique_targets=u)
            for hi, lo, s, e, p, u in zip(
                k_hi[q].tolist(), k_lo[q].tolist(), start[q].tolist(),
                end[q].tolist(), packets[q].tolist(), uniq[q].tolist()))

    def _close_open(self, rows: np.ndarray) -> None:
        """Emit the open sessions ``rows`` with their stored stats."""
        o = self._open
        self._emit(o.k_hi[rows], o.k_lo[rows], o.start[rows], o.last[rows],
                   o.packets[rows], o.targets()[rows])

    # -- the per-chunk kernel ---------------------------------------------

    def feed(self, records: PacketRecords, now: float | None = None) -> int:
        """Consume one chunk; returns the number of events closed.

        ``now`` is the chunk horizon (defaults to the chunk's max
        timestamp): the tracker may finalize any session idle for more
        than a timeout before it, so later chunks must not carry earlier
        timestamps.
        """
        return self.feed_index(DayIndex(records), now)

    def feed_index(self, index: DayIndex, now: float | None = None) -> int:
        """:meth:`feed` over a prebuilt :class:`DayIndex`."""
        n = index.n
        before = len(self._events)
        if n and index.t_min < self._watermark:
            raise ValueError(
                f"out-of-order feed: chunk starts at {index.t_min}, before "
                f"the tracker's horizon {self._watermark}")
        horizon = self._watermark
        if now is not None:
            horizon = max(horizon, float(now))
        if n:
            horizon = max(horizon, index.t_max)
        timeout = self.timeout
        # >= : a session ending exactly a timeout before the horizon can
        # still merge with a packet at ts == horizon (the gap rule is > ).
        lower = horizon - timeout
        if self._owns_targets:
            # Deferred from the previous feed, so a single-chunk run never
            # builds a table.
            self._targets.compact((self,))
        carry = self._open
        if n == 0:
            idle = carry.last >= lower
            self._close_open(np.flatnonzero(~idle))
            self._open = carry.take(np.flatnonzero(idle))
            self._watermark = horizon
            return len(self._events) - before

        kid_of_sid, key_hi, key_lo = index.level(self.source_length)
        # Destination ids: the chunk's, then the carried targets absent
        # from it, so every id stays below this bound.
        to_chunk, id_bound = self._targets.chunk_ids(index)
        codes, starts, seg_kid, start_ts, end_ts = _sessions(
            kid_of_sid[index.sid], index, id_bound, timeout)
        n_segs = len(starts)
        seg_packets = np.diff(starts, append=n)
        group_first = run_starts(seg_kid)
        key_seg = np.flatnonzero(group_first)  # first segment of each kid
        # Only a group's final segment can reach past the horizon's
        # timeout window: any other is followed by a > timeout gap.
        stays = np.append(group_first[1:], True) & (end_ts >= lower)

        # A carried session merges into its source's first segment when
        # that segment starts within the timeout of its last packet.
        # Otherwise it is idle: it closes if its source is in this chunk
        # (the gap already exceeded the timeout) or if the horizon has
        # moved a timeout past it, and stays open if not.
        kid_of_open = (find_keys((key_hi, key_lo), (carry.k_hi, carry.k_lo))
                       if len(carry) else np.empty(0, dtype=np.int64))
        present = np.flatnonzero(kid_of_open >= 0)
        first_seg = key_seg[kid_of_open[present]]
        joins = start_ts[first_seg] - carry.last[present] <= timeout
        merged, merged_seg = present[joins], first_seg[joins]
        idle = (kid_of_open < 0) & (carry.last >= lower)
        closing = ~idle
        closing[merged] = False

        # Distinct targets per segment from one sort of the codes; a
        # merged session's carried targets sort into its segment, so the
        # count is the union's.
        if len(merged):
            positions, lengths = _csr_take(carry.t_off, merged)
            carried = np.repeat(merged_seg, lengths)
            carried *= id_bound
            carried += to_chunk[carry.t_id[positions]]
            codes = np.concatenate([codes, carried])
            del carried, positions
            start_ts[merged_seg] = carry.start[merged]
            seg_packets[merged_seg] += carry.packets[merged]
        codes.sort()
        codes = codes[run_starts(codes)]
        code_seg = codes // id_bound
        uniq = np.bincount(code_seg, minlength=n_segs)

        self._close_open(np.flatnonzero(closing))
        done = np.flatnonzero(~stays)
        self._emit(key_hi[seg_kid[done]], key_lo[seg_kid[done]],
                   start_ts[done], end_ts[done], seg_packets[done],
                   uniq[done])

        # The next carry, in chunk ids until the table is compacted: the
        # staying segments' targets, then the idle carried sessions',
        # each written straight into its slice of one allocation.
        keep = stays[code_seg]
        del code_seg
        kept = np.flatnonzero(stays)
        rest = np.flatnonzero(idle)
        positions, lengths = _csr_take(carry.t_off, rest)
        split = int(np.count_nonzero(keep))
        t_id = np.empty(split + len(positions), dtype=np.int64)
        np.remainder(codes[keep], id_bound, out=t_id[:split])
        del codes, keep
        # mode="clip" (the indices are in range): the default "raise"
        # would buffer the output instead of writing ``out`` in place.
        np.take(to_chunk, carry.t_id[positions], out=t_id[split:],
                mode="clip")
        del positions
        self._open = _OpenSessions(
            np.concatenate([key_hi[seg_kid[kept]], carry.k_hi[rest]]),
            np.concatenate([key_lo[seg_kid[kept]], carry.k_lo[rest]]),
            np.concatenate([start_ts[kept], carry.start[rest]]),
            np.concatenate([end_ts[kept], carry.last[rest]]),
            np.concatenate([seg_packets[kept], carry.packets[rest]]),
            np.concatenate([[0], np.cumsum(np.concatenate(
                [uniq[kept], lengths]))]),
            t_id)
        self._watermark = horizon
        return len(self._events) - before

    def finish(self) -> list[ScanEvent]:
        """Close every open session and return the full sorted event list.

        Idempotent: a second call returns the same list.
        """
        self._close_open(np.arange(len(self._open)))
        self._open = _OpenSessions.empty()
        if self._owns_targets:
            self._targets = TargetTable()
        self._events.sort(key=_event_order)
        return list(self._events)


def detect_scans(
    records: PacketRecords,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[ScanEvent]:
    """Detect scan events in ``records``.

    A session per aggregated source ends when its packet inter-arrival gap
    exceeds ``timeout``; sessions reaching ``min_targets`` distinct /128
    destinations become :class:`ScanEvent`s.  One :class:`SessionTracker`
    fed ``records`` as a single chunk.
    """
    with stage("analysis.detect_scans", records=len(records),
               source_length=source_length):
        tracker = SessionTracker(source_length, min_targets, timeout)
        tracker.feed(records)
        events = tracker.finish()
    registry = get_registry()
    registry.counter("analysis.detect_scans.records_in").inc(len(records))
    registry.counter("analysis.detect_scans.events_out").inc(len(events))
    get_journal().emit(
        "detection",
        source_length=source_length, min_targets=min_targets,
        timeout=timeout, records_in=len(records), events_out=len(events),
    )
    return events
