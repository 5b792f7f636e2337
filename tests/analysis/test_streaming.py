"""Streaming analysis equivalence: incremental trackers vs. batch.

The :class:`~repro.analysis.scandetect.SessionTracker` fed chunk by
chunk must emit event lists *element-identical* to the per-packet
reference (and to the single-chunk batch detector, which is the same
tracker) over the concatenation of the fed chunks — on randomized
workloads with random chunk splits, internally shuffled chunks (the
shape of the NT-B and NT-C day drains), carried sessions whose source is
absent from the next chunk, tie-heavy quantized timestamps and ties at
the watermark, empty feeds, sessions crossing chunk boundaries (the
midnight case), chunks larger than 65,536 rows, and aggregation lengths
on both sides of the 64-bit packing threshold.
"""

import copy
import pickle

import numpy as np
import pytest

from repro._util import DAY, HOUR
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import detect_scans
from repro.analysis.streaming import (
    SCAN_LEVELS,
    SessionTracker,
    StreamAnalyzer,
)
from repro.net import addr
from repro.net.addr import find_keys, group_keys, key_hashes, mask_u64
from repro.net.packet import TCP, UDP, Packet, icmp_echo_request
from tests.analysis.reference import detect_scans_reference, sorted_by_time

LENGTHS = (128, 64, 48, 0, 96)


def _random_records(rng, n, n_sources=12, n_dests=40, t_max=20_000.0,
                    quantize=None, host_bits=16):
    base_src = [(int(rng.integers(1 << 40)) << 88)
                | (int(rng.integers(1 << 30)) << 50)
                for _ in range(n_sources)]
    base_dst = [(int(rng.integers(1 << 60)) << 64)
                | int(rng.integers(1 << 62))
                for _ in range(n_dests)]
    pkts = []
    for _ in range(n):
        ts = float(rng.uniform(0, t_max))
        if quantize:
            ts = round(ts / quantize) * quantize
        src = base_src[int(rng.integers(n_sources))] | int(
            rng.integers(1 << host_bits))
        dst = base_dst[int(rng.integers(n_dests))]
        proto = (TCP, UDP)[int(rng.integers(2))]
        pkts.append(Packet(
            timestamp=ts, src=src, dst=dst, proto=proto,
            sport=int(rng.integers(1024, 1030)),
            dport=(53, 80, 123, 443)[int(rng.integers(4))],
        ))
    return PacketRecords.from_packets(pkts)


def _chunk_splits(rng, records, n_chunks):
    """Sort by time and cut into ``n_chunks`` contiguous slices (some
    possibly empty), the shape a day-boundary drain produces."""
    records = sorted_by_time(records)
    idx = np.arange(len(records))
    cuts = np.sort(rng.integers(0, len(records) + 1, size=n_chunks - 1))
    bounds = [0, *cuts.tolist(), len(records)]
    return [records.select((idx >= bounds[i]) & (idx < bounds[i + 1]))
            for i in range(n_chunks)]


class TestSessionTrackerEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_randomized_chunked(self, seed, source_length):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, 500)
        for timeout in (250.0, 3_600.0):
            tracker = SessionTracker(source_length=source_length,
                                     min_targets=5, timeout=timeout)
            for chunk in _chunk_splits(rng, records,
                                       int(rng.integers(1, 8))):
                tracker.feed(chunk)
            got = tracker.finish()
            assert got == detect_scans(records, source_length, 5, timeout)
            assert got == detect_scans_reference(records, source_length, 5,
                                                 timeout)

    @pytest.mark.parametrize("seed", range(3))
    def test_quantized_ties_and_empty_feeds(self, seed):
        """Duplicate timestamps, chunk boundaries exactly on timestamps,
        gaps exactly equal to the timeout, interleaved empty feeds."""
        rng = np.random.default_rng(100 + seed)
        records = _random_records(rng, 400, quantize=100.0)
        tracker = SessionTracker(source_length=64, min_targets=3,
                                 timeout=100.0)
        for chunk in _chunk_splits(rng, records, 6):
            if rng.integers(2):
                tracker.feed(PacketRecords.empty())
            tracker.feed(chunk)
        got = tracker.finish()
        assert got == detect_scans(records, 64, 3, 100.0)
        assert got == detect_scans_reference(records, 64, 3, 100.0)

    def test_midnight_crossing_session_single_event(self):
        """A scan straddling a day boundary, fed as two day chunks with
        day-boundary horizons, is one event — identical to batch and to
        the per-packet reference."""
        src = 0xABCD << 100
        pkts = [icmp_echo_request(DAY - 50 * 60 + i * 60.0, src, (1 << 80) + i)
                for i in range(100)]  # spans DAY-3000s .. DAY+2940s
        records = PacketRecords.from_packets(pkts)
        day0 = records.select(records.ts < DAY)
        day1 = records.select(records.ts >= DAY)
        assert len(day0) and len(day1)

        tracker = SessionTracker(source_length=64, min_targets=100)
        tracker.feed(day0, now=DAY)
        tracker.feed(day1, now=2 * DAY)
        got = tracker.finish()
        assert len(got) == 1
        assert got == detect_scans(records, 64, 100)
        assert got == detect_scans_reference(records, 64, 100, 3600.0)

    def test_midnight_gap_splits_into_two_events(self):
        """Same straddle but with a > timeout silence at the boundary:
        the carried session closes on the next feed, no cross-day merge."""
        src = 0xABCD << 100
        early = [icmp_echo_request(DAY - 2 * HOUR + i, src, (1 << 80) + i)
                 for i in range(120)]
        late = [icmp_echo_request(DAY + 2 * HOUR + i, src, (2 << 80) + i)
                for i in range(120)]
        records = PacketRecords.from_packets(early + late)
        tracker = SessionTracker(source_length=64, min_targets=100)
        tracker.feed(records.select(records.ts < DAY), now=DAY)
        tracker.feed(records.select(records.ts >= DAY), now=2 * DAY)
        got = tracker.finish()
        assert len(got) == 2
        assert got == detect_scans(records, 64, 100)
        assert got == detect_scans_reference(records, 64, 100, 3600.0)

    def test_idle_session_expires_between_feeds(self):
        """An empty feed whose horizon passes last+timeout finalizes the
        carried session without any packet arriving."""
        src = 7 << 100
        pkts = [icmp_echo_request(i * 1.0, src, (1 << 80) + i)
                for i in range(10)]
        tracker = SessionTracker(source_length=64, min_targets=5)
        tracker.feed(PacketRecords.from_packets(pkts), now=DAY)
        assert tracker.open_sessions == 0  # horizon DAY >> last + timeout
        assert tracker.events_closed == 1

    def test_out_of_order_feed_rejected(self):
        tracker = SessionTracker(source_length=64, min_targets=5)
        tracker.feed(PacketRecords.from_packets(
            [icmp_echo_request(100.0, 7, 9)]), now=200.0)
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.feed(PacketRecords.from_packets(
                [icmp_echo_request(50.0, 7, 9)]))

    def test_finish_idempotent(self):
        rng = np.random.default_rng(0)
        records = _random_records(rng, 300)
        tracker = SessionTracker(source_length=64, min_targets=5,
                                 timeout=500.0)
        tracker.feed(sorted_by_time(records))
        assert tracker.finish() == tracker.finish()


def _feed_and_check(chunks, source_length, min_targets, timeout,
                    nows=None):
    """Feed ``chunks`` one by one; after each, ``finish()`` on a deep copy
    must equal both batch detectors over every record fed so far."""
    tracker = SessionTracker(source_length=source_length,
                             min_targets=min_targets, timeout=timeout)
    fed = []
    for i, chunk in enumerate(chunks):
        tracker.feed(chunk, now=None if nows is None else nows[i])
        fed.append(chunk)
        records = PacketRecords.concat(fed)
        got = copy.deepcopy(tracker).finish()
        assert got == detect_scans(records, source_length, min_targets,
                                   timeout)
        assert got == detect_scans_reference(records, source_length,
                                             min_targets, timeout)
    return tracker


def _shuffled(rng, records):
    return records.select(rng.permutation(len(records)))


def _column_records(rng, n, n_sources, n_dests, t_lo, t_hi):
    """``n`` random rows built as columns (fast at any size): sources
    clustered so that /128, /96, /64 and /48 group them differently."""
    prefixes = rng.integers(1, 1 << 20, size=max(1, n_sources // 8),
                            dtype=np.uint64) << np.uint64(44)
    src_hi = (rng.choice(prefixes, size=n_sources)
              | rng.integers(0, 1 << 3, size=n_sources, dtype=np.uint64))
    src_lo = rng.integers(0, 1 << 40, size=n_sources, dtype=np.uint64) \
        << np.uint64(rng.integers(0, 24))
    dst_hi = rng.integers(1, 1 << 62, size=n_dests, dtype=np.uint64)
    dst_lo = rng.integers(0, 1 << 62, size=n_dests, dtype=np.uint64)
    src = rng.integers(0, n_sources, size=n)
    dst = rng.integers(0, n_dests, size=n)
    return PacketRecords.from_columns(
        ts=rng.uniform(t_lo, t_hi, size=n), src_hi=src_hi[src],
        src_lo=src_lo[src], dst_hi=dst_hi[dst], dst_lo=dst_lo[dst],
        proto=np.full(n, TCP, dtype=np.uint8),
        sport=np.full(n, 4000, dtype=np.uint16),
        dport=np.full(n, 80, dtype=np.uint16))


class TestUnsortedAndEdgeChunks:
    """Chunk shapes a time-sorted split never produces."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_internally_shuffled_chunks(self, seed, source_length):
        rng = np.random.default_rng(300 + seed)
        records = _random_records(rng, 500, t_max=5_000.0, host_bits=2)
        chunks = [_shuffled(rng, chunk)
                  for chunk in _chunk_splits(rng, records, 5)]
        _feed_and_check(chunks, source_length, 5, 400.0)

    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_carried_keys_absent_from_next_chunk(self, source_length):
        """Windows shorter than the timeout, each probed by a random
        third of the sources: open sessions ride through chunks without
        their source, then merge, or close once the horizon passes."""
        rng = np.random.default_rng(400 + source_length)
        timeout, width = 600.0, 250.0
        pool = _random_records(rng, 1_500, n_sources=15,
                               t_max=16 * width, host_bits=1)
        sources = np.unique(pool.src_hi)
        chunks, nows = [], []
        for w in range(16):
            active = rng.choice(sources, size=5, replace=False)
            window = pool.mask_time(w * width, (w + 1) * width)
            chunks.append(_shuffled(
                rng, pool.select(window & np.isin(pool.src_hi, active))))
            nows.append((w + 1) * width)
        # One long silence: every carried session closes on horizon alone.
        chunks.append(PacketRecords.empty())
        nows.append(16 * width + 3 * timeout)
        tracker = _feed_and_check(chunks, source_length, 4, timeout, nows)
        assert tracker.open_sessions == 0

    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_equal_timestamp_ties_at_the_watermark(self, source_length):
        """Rows stamped exactly at the previous chunk's horizon, split
        across both chunks, from sources with sessions open on both
        sides."""
        rng = np.random.default_rng(500 + source_length)
        records = _random_records(rng, 600, n_sources=6, t_max=3_000.0,
                                  quantize=100.0, host_bits=1)
        chunks, nows, previous = [], [], -1.0
        for cut in (700.0, 1_500.0, 2_200.0, 3_000.0):
            ties = np.flatnonzero(records.ts == cut)
            early = np.zeros(len(records), dtype=bool)
            early[(records.ts > previous) & (records.ts < cut)] = True
            early[ties[: len(ties) // 2]] = True
            late_ties = np.zeros(len(records), dtype=bool)
            late_ties[ties[len(ties) // 2:]] = True
            chunks.append(_shuffled(rng, records.select(early)))
            nows.append(cut)
            chunks.append(records.select(late_ties))
            nows.append(cut)
            previous = cut
        assert sum(len(chunk) for chunk in chunks) == int(
            (records.ts <= 3_000.0).sum())
        _feed_and_check(chunks, source_length, 3, 100.0, nows)

    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_chunk_larger_than_65536_rows(self, source_length):
        rng = np.random.default_rng(600 + source_length)
        big = _column_records(rng, 70_000, n_sources=3_000,
                              n_dests=20_000, t_lo=0.0, t_hi=2_000.0)
        tail = _column_records(rng, 2_000, n_sources=300,
                               n_dests=2_000, t_lo=2_000.0, t_hi=2_400.0)
        # Carried sessions need sources shared across the boundary.
        tail = PacketRecords.from_columns(
            ts=tail.ts, src_hi=big.src_hi[:2_000], src_lo=big.src_lo[:2_000],
            dst_hi=tail.dst_hi, dst_lo=tail.dst_lo, proto=tail.proto,
            sport=tail.sport, dport=tail.dport)
        assert len(np.unique(big.src_lo)) > 2_000
        _feed_and_check([big, tail], source_length, 10, 300.0)


def _rows(rows):
    """Records from ``(ts, src, dst)`` triples (128-bit ints)."""
    mask = (1 << 64) - 1
    return PacketRecords.from_columns(
        ts=[t for t, _, _ in rows],
        src_hi=[s >> 64 for _, s, _ in rows],
        src_lo=[s & mask for _, s, _ in rows],
        dst_hi=[d >> 64 for _, _, d in rows],
        dst_lo=[d & mask for _, _, d in rows],
        proto=np.full(len(rows), TCP), sport=np.full(len(rows), 4000),
        dport=np.full(len(rows), 80))


def _analyzer_matches_reference(chunks, nows, min_targets, timeout):
    """Feed ``chunks`` to one analyzer; its events must equal the
    per-packet oracle over their concatenation at every level."""
    analyzer = StreamAnalyzer("NT-A", min_targets=min_targets,
                              timeout=timeout)
    for chunk, now in zip(chunks, nows):
        analyzer.feed(chunk, now=now)
        assert all(tracker._targets is analyzer._targets
                   for tracker in analyzer.trackers.values())
    records = PacketRecords.concat(chunks)
    summary = copy.deepcopy(analyzer).finish()
    for level in SCAN_LEVELS:
        assert summary.events[level] == detect_scans_reference(
            records, level, min_targets, timeout), level
    return analyzer


def _table_targets(analyzer) -> set:
    table = analyzer._targets
    return set(zip(table.hi.tolist(), table.lo.tolist()))


def _held_targets(analyzer) -> set:
    """The (hi, lo) targets some open session of some level holds."""
    table = analyzer._targets
    held = set()
    for tracker in analyzer.trackers.values():
        ids = tracker._open.t_id
        held |= set(zip(table.hi[ids].tolist(), table.lo[ids].tolist()))
    return held


class TestTargetTable:
    """One carried-target table per analyzer, shared by its three levels:
    ids, not (hi, lo) pairs, ride in the carry, and the table keeps
    exactly the targets an open session still holds."""

    def test_sources_active_every_day_reuse_targets(self):
        """Scanners probing a small target pool every day: their sessions
        never close, so the same targets are carried and seen again day
        after day, at all three levels at once."""
        rng = np.random.default_rng(0)
        net = 0x2001_0DB8 << 96
        sources = [net | (i % 3) << 80 | i << 64 | 1 for i in range(6)]
        pool = [0x3FFF << 112 | int(rng.integers(1 << 40))
                for _ in range(150)]
        timeout, width = 600.0, 500.0
        chunks, nows = [], []
        for day in range(20):
            # Every source probes at least once per window (gaps stay
            # under the timeout), from a pool that repeats day to day.
            rows = [(day * width + float(rng.uniform(0, width)),
                     sources[int(rng.integers(6))],
                     pool[int(rng.integers(150))]) for _ in range(80)]
            rows += [(day * width + 10.0 * (i + 1), source,
                      pool[int(rng.integers(150))])
                     for i, source in enumerate(sources)]
            chunks.append(_shuffled(rng, _rows(rows)))
            nows.append((day + 1) * width)
        analyzer = _analyzer_matches_reference(chunks, nows, 50, timeout)
        assert analyzer.open_sessions == 3 + 6 + 6  # /48, /64, /128
        assert _table_targets(analyzer) == _held_targets(analyzer)
        assert len(analyzer._targets) <= 150

    def test_target_leaves_and_returns(self):
        """A target whose sessions all closed leaves the table; probed
        again later, it takes a new id and counts from scratch."""
        timeout = 100.0
        a, b = 0x2001_0DB8_0001 << 80 | 1, 0x2001_0DB8_0002 << 80 | 1
        back = 0x3FFF << 112 | 0xBEEF
        others = [0x3FFF << 112 | i for i in range(1, 8)]
        first = _rows([(float(i), a, d)
                       for i, d in enumerate([back] + others)])
        # ``a`` falls silent: its session closes on the horizon alone.
        quiet = _rows([(150.0, b, others[0])])
        later = _rows([(400.0 + i, a, d)
                       for i, d in enumerate([back, back] + others[:3])])
        chunks, nows = [first, quiet, later], [50.0, 300.0, 450.0]
        analyzer = StreamAnalyzer("NT-A", min_targets=3, timeout=timeout)
        analyzer.feed(first, now=nows[0])
        assert (back >> 64, back & (1 << 64) - 1) in _table_targets(analyzer)
        analyzer.feed(quiet, now=nows[1])
        assert (back >> 64, back & (1 << 64) - 1) not in _table_targets(
            analyzer)
        assert _table_targets(analyzer) == _held_targets(analyzer)
        _analyzer_matches_reference(chunks, nows, 3, timeout)

    def test_idle_session_across_an_empty_feed(self):
        """An empty chunk inside the timeout carries every session and
        the table untouched; the next chunk merges into them."""
        timeout = 1_000.0
        src = 0x2001_0DB8_0003 << 80 | 7
        targets = [0x3FFF << 112 | i for i in range(12)]
        before = _rows([(float(i), src, d)
                        for i, d in enumerate(targets[:8])])
        after = _rows([(900.0 + i, src, d)
                       for i, d in enumerate(targets[4:])])
        chunks = [before, PacketRecords.empty(), after]
        nows = [100.0, 500.0, 1_000.0]
        analyzer = StreamAnalyzer("NT-A", min_targets=10, timeout=timeout)
        analyzer.feed(before, now=nows[0])
        held = _table_targets(analyzer)
        analyzer.feed(PacketRecords.empty(), now=nows[1])
        assert analyzer.open_sessions == 3
        assert _table_targets(analyzer) == held == _held_targets(analyzer)
        analyzer.feed(after, now=nows[2])
        events = analyzer.finish().events
        assert [e.unique_targets for e in events[128]] == [12]
        _analyzer_matches_reference(chunks, nows, 10, timeout)

    def test_colliding_hashes_in_the_day_lookup(self, monkeypatch):
        """Targets that share their low half collide under a weak pair
        hash (the low half alone); the table's lookup among the day's
        destinations still finds each exactly."""
        monkeypatch.setattr(
            addr, "key_hashes",
            lambda cols: np.array(cols[-1], dtype=np.uint64, copy=True))
        rng = np.random.default_rng(3)
        src = [0x2001_0DB8_0004 << 80 | i << 64 | 1 for i in range(3)]
        # 40 targets over 8 low halves: every low half is shared.
        targets = [(0x3FFF << 112 | i << 64) | (i % 8) for i in range(40)]
        chunks, nows = [], []
        for day in range(6):
            rows = [(day * 300.0 + float(rng.uniform(0, 300)),
                     src[int(rng.integers(3))],
                     targets[int(rng.integers(40))]) for _ in range(60)]
            chunks.append(_rows(rows))
            nows.append((day + 1) * 300.0)
        analyzer = _analyzer_matches_reference(chunks, nows, 20, 400.0)
        assert _table_targets(analyzer) == _held_targets(analyzer)
        table = analyzer._targets
        assert len(set(table.lo.tolist())) < len(table)


class TestPairIds:
    """The two-column case of the composite-key kernel, which the session
    tracker uses for source and destination ids, including pairs built to
    collide in its 64-bit hash."""

    def test_hash_collision_falls_back_to_exact_ids(self):
        """Two distinct pairs built to share the 64-bit pair hash still
        get distinct ids."""
        mix = 0x9E3779B97F4A7C15
        mask = (1 << 64) - 1
        hi = [1, 2, 1, 3]
        lo = [0, ((2 * mix) & mask) ^ mix, 0, 5]
        hi_col = np.array(hi, dtype=np.uint64)
        lo_col = np.array(lo, dtype=np.uint64)
        hashes = (hi_col * np.uint64(mix)) ^ lo_col
        assert hashes[0] == hashes[1]
        assert (key_hashes((hi_col, lo_col)) == hashes).all()
        ids, rep = group_keys((hi_col, lo_col))
        assert ids[0] == ids[2] and len(set(ids.tolist())) == 3
        assert (hi_col[rep][ids] == hi_col).all()
        assert (lo_col[rep][ids] == lo_col).all()

    def test_find_pairs_with_a_colliding_table(self):
        """A table holding two pairs with one hash still answers every
        lookup exactly (the binary search cannot tell them apart)."""
        mix = 0x9E3779B97F4A7C15
        mask = (1 << 64) - 1
        table_hi = np.array([1, 2, 7], dtype=np.uint64)
        table_lo = np.array([0, ((2 * mix) & mask) ^ mix, 9],
                            dtype=np.uint64)
        q_hi = np.array([2, 1, 7, 3, 1], dtype=np.uint64)
        q_lo = np.array([table_lo[1], 0, 9, 0, 1], dtype=np.uint64)
        assert find_keys((table_hi, table_lo), (q_hi, q_lo)).tolist() == [
            1, 0, 2, -1, -1]

    def test_find_pairs_random(self):
        rng = np.random.default_rng(2)
        table = {(int(h), int(l)) for h, l in zip(
            rng.integers(0, 50, 300), rng.integers(0, 50, 300))}
        table_hi = np.array([h for h, _ in table], dtype=np.uint64)
        table_lo = np.array([l for _, l in table], dtype=np.uint64)
        q_hi = rng.integers(0, 60, 400).astype(np.uint64)
        q_lo = rng.integers(0, 60, 400).astype(np.uint64)
        rows = {pair: i for i, pair in enumerate(zip(table_hi.tolist(),
                                                      table_lo.tolist()))}
        assert find_keys((table_hi, table_lo), (q_hi, q_lo)).tolist() == [
            rows.get(pair, -1)
            for pair in zip(q_hi.tolist(), q_lo.tolist())]
        assert find_keys((table_hi[:0], table_lo[:0]),
                         (q_hi, q_lo)).tolist() == [-1] * len(q_hi)

    def test_random_pairs(self):
        rng = np.random.default_rng(1)
        hi = rng.integers(0, 4, size=500, dtype=np.uint64)
        lo = rng.integers(0, 40, size=500, dtype=np.uint64)
        ids, rep = group_keys((hi, lo))
        assert len(rep) == len(set(zip(hi.tolist(), lo.tolist())))
        assert (hi[rep][ids] == hi).all() and (lo[rep][ids] == lo).all()


class TestStreamAnalyzer:
    def test_matches_batch_at_all_levels(self):
        rng = np.random.default_rng(42)
        records = _random_records(rng, 600)
        analyzer = StreamAnalyzer("NT-A", min_targets=5, timeout=500.0)
        for chunk in _chunk_splits(rng, records, 4):
            analyzer.feed(chunk)
        summary = analyzer.finish()
        assert summary.records_in == len(records)
        for level in (128, 64, 48):
            assert summary.events[level] == detect_scans(
                records, level, 5, 500.0)
            assert summary.events[level] == detect_scans_reference(
                records, level, 5, 500.0)

    def test_pickle_roundtrip_mid_run(self):
        """Checkpointing contract: a pickled analyzer resumes to the same
        final event list as an uninterrupted one."""
        rng = np.random.default_rng(7)
        records = _random_records(rng, 500)
        chunks = _chunk_splits(rng, records, 4)

        straight = StreamAnalyzer("NT-A", min_targets=5, timeout=500.0)
        resumed = StreamAnalyzer("NT-A", min_targets=5, timeout=500.0)
        for i, chunk in enumerate(chunks):
            straight.feed(chunk)
            resumed.feed(chunk)
            if i == 1:
                resumed = pickle.loads(pickle.dumps(resumed))
        a, b = straight.finish(), resumed.finish()
        assert a.events == b.events and a.records_in == b.records_in

    def test_day_sources_are_the_chunk_distinct_sources(self):
        """What the observer counts as a day's sources: the fed chunk's
        distinct truncated sources, read off the day index, and never
        carried into a pickle."""
        rng = np.random.default_rng(11)
        records = _random_records(rng, 400, host_bits=3)
        analyzer = StreamAnalyzer("NT-A", levels=LENGTHS, min_targets=5)
        analyzer.feed(records)
        for level in LENGTHS:
            hi, lo = mask_u64(records.src_hi, records.src_lo, level)
            got_hi, got_lo = analyzer.day_sources(level)
            assert list(zip(got_hi.tolist(), got_lo.tolist())) == sorted(
                set(zip(hi.tolist(), lo.tolist())))
        restored = pickle.loads(pickle.dumps(analyzer))
        with pytest.raises(KeyError):
            restored.day_sources(64)

    def test_finish_idempotent(self):
        analyzer = StreamAnalyzer("NT-B", min_targets=5)
        analyzer.feed(PacketRecords.empty(), now=DAY)
        assert analyzer.finish() is analyzer.finish()
