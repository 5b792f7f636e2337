"""Scan-event detection.

The paper's definition (footnote 1): a scan is a source hitting at least
100 distinct IPv6 destinations with a maximum packet inter-arrival time of
3600 seconds.  Sources can be aggregated at /128, /64, or /48 before
detection to catch scanners that rotate source addresses within a covering
prefix to evade per-address thresholds.

:func:`detect_scans` is fully columnar: one lexsort by (source group,
timestamp), session splits where the within-group inter-arrival gap exceeds
the timeout, per-segment packet counts from the segment boundaries, and
per-segment unique-target counts from a second sort over (segment, dst).
The original per-packet loop is retained as
:func:`detect_scans_reference` and cross-checked by randomized equivalence
tests; both produce identical event lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.analysis.records import PacketRecords
from repro.net.addr import mask_u64, pack_key_u64
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


def detect_scans(
    records: PacketRecords,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[ScanEvent]:
    """Detect scan events in ``records``.

    A session per aggregated source ends when its packet inter-arrival gap
    exceeds ``timeout``; sessions reaching ``min_targets`` distinct /128
    destinations become :class:`ScanEvent`s.
    """
    with stage("analysis.detect_scans", records=len(records),
               source_length=source_length):
        events = _detect_scans_impl(records, source_length, min_targets,
                                    timeout)
    registry = get_registry()
    registry.counter("analysis.detect_scans.records_in").inc(len(records))
    registry.counter("analysis.detect_scans.events_out").inc(len(events))
    get_journal().emit(
        "detection",
        source_length=source_length, min_targets=min_targets,
        timeout=timeout, records_in=len(records), events_out=len(events),
    )
    return events


def sessionize(
    group_change: np.ndarray,
    t: np.ndarray,
    dst_hi: np.ndarray,
    dst_lo: np.ndarray,
    timeout: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split group-contiguous, time-sorted rows into gap-bounded sessions.

    The shared kernel behind :func:`detect_scans` and the ground-truth
    session builder (:func:`repro.analysis.groundtruth.truth_events`):
    callers sort their rows so each source group is one contiguous,
    time-ordered run and pass ``group_change`` (row ``i+1`` starts a new
    group).  A new session starts at a group change or a gap strictly
    exceeding the timeout (a gap exactly equal to the timeout stays
    in-session).

    Returns ``(starts, packets, start_ts, end_ts, uniq_targets)``, one
    entry per session, where ``starts`` indexes the session's first row.
    """
    n = len(t)
    new_seg = np.empty(n, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = group_change | (t[1:] - t[:-1] > timeout)
    seg_of = np.cumsum(new_seg) - 1
    starts = np.flatnonzero(new_seg)
    n_segs = len(starts)
    packets = np.diff(starts, append=n)
    ends = starts + packets - 1
    start_ts = t[starts]
    end_ts = t[ends]

    # Unique /128 targets per session: sort by (session, dst) and count
    # first occurrences.
    ord2 = np.lexsort((dst_lo, dst_hi, seg_of))
    s2, h2, l2 = seg_of[ord2], dst_hi[ord2], dst_lo[ord2]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (s2[1:] != s2[:-1]) | (h2[1:] != h2[:-1]) | (l2[1:] != l2[:-1])
    uniq_targets = np.bincount(s2[first], minlength=n_segs)
    return starts, packets, start_ts, end_ts, uniq_targets


def _detect_scans_impl(
    records: PacketRecords,
    source_length: int,
    min_targets: int,
    timeout: float,
) -> list[ScanEvent]:
    _validate(min_targets, timeout)
    n = len(records)
    if n == 0:
        return []

    ts = records.ts
    # Sort rows by (truncated source, timestamp): each aggregated source
    # becomes one contiguous, time-ordered run.  Sources aggregated at
    # <= /64 (the paper's levels) pack into a single uint64 key column;
    # longer lengths sort on the masked (hi, lo) pair.
    packed = pack_key_u64(records.src_hi, records.src_lo, source_length)
    if packed is not None:
        order = np.lexsort((ts, packed))
        k = packed[order]
        group_change = k[1:] != k[:-1]
        src_hi_sorted, src_lo_sorted = k, None
    else:
        mhi, mlo = mask_u64(records.src_hi, records.src_lo, source_length)
        order = np.lexsort((ts, mlo, mhi))
        h, l = mhi[order], mlo[order]
        group_change = (h[1:] != h[:-1]) | (l[1:] != l[:-1])
        src_hi_sorted, src_lo_sorted = h, l
    t = ts[order]

    starts, packets, start_ts, end_ts, uniq_targets = sessionize(
        group_change, t, records.dst_hi[order], records.dst_lo[order],
        timeout,
    )

    # The truncated source value of each session is its sort key at the
    # segment's first row.
    qualifying = np.flatnonzero(uniq_targets >= min_targets)
    rep_rows = starts[qualifying]
    rep_hi = src_hi_sorted[rep_rows].tolist()
    rep_lo = (src_lo_sorted[rep_rows].tolist() if src_lo_sorted is not None
              else [0] * len(rep_rows))

    events = [
        ScanEvent(
            source=(hi << 64) | lo,
            source_length=source_length,
            start=float(start_ts[i]),
            end=float(end_ts[i]),
            packets=int(packets[i]),
            unique_targets=int(uniq_targets[i]),
        )
        for hi, lo, i in zip(rep_hi, rep_lo, qualifying)
    ]
    events.sort(key=_event_order)
    return events


def detect_scans_reference(
    records: PacketRecords,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[ScanEvent]:
    """Per-packet reference implementation of :func:`detect_scans`.

    Kept as the ground truth for the randomized equivalence tests and as
    the baseline the microbenchmarks measure the vectorized path against.
    """
    _validate(min_targets, timeout)
    if len(records) == 0:
        return []

    ordered = records.sorted_by_time()
    groups = ordered.source_groups(source_length)
    # Representative truncated source value per group.
    reps: dict[int, int] = {}
    src_iter = ordered.src_addresses()
    dst_iter = ordered.dst_addresses()

    mask_shift = 128 - source_length
    sessions: dict[int, dict] = {}
    events: list[ScanEvent] = []

    def _close(state: dict, source: int) -> None:
        if len(state["targets"]) >= min_targets:
            events.append(ScanEvent(
                source=source,
                source_length=source_length,
                start=state["start"],
                end=state["last"],
                packets=state["packets"],
                unique_targets=len(state["targets"]),
            ))

    for i in range(len(ordered)):
        src = next(src_iter)
        dst = next(dst_iter)
        ts = float(ordered.ts[i])
        group = int(groups[i])
        if group not in reps:
            reps[group] = (src >> mask_shift) << mask_shift if mask_shift else src
        state = sessions.get(group)
        if state is not None and ts - state["last"] > timeout:
            _close(state, reps[group])
            state = None
        if state is None:
            state = sessions[group] = {
                "start": ts, "last": ts, "packets": 0, "targets": set(),
            }
        state["last"] = ts
        state["packets"] += 1
        state["targets"].add(dst)

    for group, state in sessions.items():
        _close(state, reps[group])
    events.sort(key=_event_order)
    return events


def weekly_scan_sources(
    records: PacketRecords,
    start: float,
    end: float,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> np.ndarray:
    """Per-week count of distinct scanning sources (Fig. 1's metric).

    A source counts in every week during which one of its scan events was
    active.
    """
    from repro._util import WEEK

    n_weeks = int(np.ceil((end - start) / WEEK))
    if n_weeks <= 0:
        return np.zeros(0)
    events = detect_scans(records, source_length=source_length,
                          min_targets=min_targets, timeout=timeout)
    per_week: list[set[int]] = [set() for _ in range(n_weeks)]
    for event in events:
        w0 = max(0, int((event.start - start) // WEEK))
        w1 = min(n_weeks - 1, int((event.end - start) // WEEK))
        for w in range(w0, w1 + 1):
            per_week[w].add(event.source)
    return np.array([len(s) for s in per_week], dtype=np.float64)


def weekly_scan_packets(
    records: PacketRecords,
    start: float,
    end: float,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-week scan packets: (total, from the single most active source).

    Fig. 2's two series: total weekly scan traffic, and the share of the
    top source — whose dominance faded as scanning dispersed.
    """
    from repro._util import WEEK

    n_weeks = int(np.ceil((end - start) / WEEK))
    totals = np.zeros(n_weeks)
    per_source: list[dict[int, int]] = [dict() for _ in range(n_weeks)]
    events = detect_scans(records, source_length=source_length,
                          min_targets=min_targets, timeout=timeout)
    for event in events:
        # Attribute the event's packets to the week it started in: events
        # are short relative to weeks, and this matches per-event tallies.
        # Events starting outside [start, end) are dropped, not mis-bucketed.
        w = int((event.start - start) // WEEK)
        if 0 <= w < n_weeks:
            totals[w] += event.packets
            bucket = per_source[w]
            bucket[event.source] = bucket.get(event.source, 0) + event.packets
    top = np.array(
        [max(bucket.values()) if bucket else 0 for bucket in per_source],
        dtype=np.float64,
    )
    return totals, top
