"""Tests for ground-truth provenance and detection scoring.

The pinned-value tests build a tiny, fully hand-checkable scanner
population: three agents whose behavior separates the three aggregation
levels — a source-rotating agent invisible at /128, a single-address agent
visible everywhere, and a /48-cohabiting agent that merges at /48.
"""

import numpy as np
import pytest

from repro.analysis.groundtruth import (
    TruthEvent,
    score_all_levels,
    score_detection,
    truth_events,
)
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import detect_scans
from repro.net.batch import PacketBatch, UNKNOWN_ORIGIN

HI_A = 0x20010DB8_00000000  # 2001:db8:0:0::/64 — agent 0 (rotates /128s)
HI_B = 0x20010DB9_00000000  # 2001:db9::/64     — agent 1 (one address)
HI_C = 0x20010DB8_00000001  # 2001:db8:0:1::/64 — agent 2 (shares A's /48)
DST_HI = 0x2403E800_00000000


def _toy_population():
    """Three agents, one second between probes, all gaps << timeout.

    * agent 0: 300 probes from 100 rotating /128s (3 targets each) in HI_A;
    * agent 1: 150 probes from one address in HI_B;
    * agent 2: 120 probes from one address in HI_C (same /48 as HI_A).
    """
    rows = []  # (ts, src_hi, src_lo, dst_lo, origin)
    for i in range(300):
        rows.append((0.5 + i, HI_A, i // 3, i, 0))
    for i in range(150):
        rows.append((0.3 + i, HI_B, 1, 10_000 + i, 1))
    for i in range(120):
        rows.append((0.7 + i, HI_C, 1, 20_000 + i, 2))
    ts, src_hi, src_lo, dst_lo, origin = map(np.asarray, zip(*rows))
    records = PacketRecords.from_columns(
        ts=ts, src_hi=src_hi, src_lo=src_lo,
        dst_hi=np.full(len(ts), DST_HI, dtype=np.uint64), dst_lo=dst_lo,
        proto=np.full(len(ts), 6), sport=np.full(len(ts), 40_000),
        dport=np.full(len(ts), 443),
    )
    return records, origin.astype(np.int32)


def _rows(ts, src_hi, src_lo, dst_hi, dst_lo, origin):
    """Hand-built ``(records, origin)`` with zeroed protocol and ports."""
    n = len(ts)
    records = PacketRecords.from_columns(
        ts=ts, src_hi=src_hi, src_lo=src_lo, dst_hi=dst_hi, dst_lo=dst_lo,
        proto=np.zeros(n), sport=np.zeros(n), dport=np.zeros(n),
    )
    return records, np.asarray(origin, dtype=np.int32)


class TestTruthEvents:
    def test_pinned_truth_events(self):
        events = truth_events(*_toy_population())
        assert [(e.agent, e.packets, e.unique_targets) for e in events] == [
            (1, 150, 150), (0, 300, 300), (2, 120, 120),
        ]
        by_agent = {e.agent: e for e in events}
        assert by_agent[0].start == pytest.approx(0.5)
        assert by_agent[0].end == pytest.approx(299.5)

    def test_min_targets_filters(self):
        # agent 0 only
        assert len(truth_events(*_toy_population(), min_targets=200)) == 1

    def test_timeout_splits_sessions(self):
        truth = _rows(
            ts=[0.0, 1.0, 5000.0, 5001.0],
            src_hi=[HI_A] * 4, src_lo=[1] * 4,
            dst_hi=[DST_HI] * 4, dst_lo=[1, 2, 3, 4],
            origin=[0] * 4,
        )
        events = truth_events(*truth, min_targets=2, timeout=3600.0)
        assert [(e.start, e.end) for e in events] == [
            (0.0, 1.0), (5000.0, 5001.0),
        ]

    def test_unknown_origin_excluded(self):
        truth = _rows(
            ts=[0.0, 1.0], src_hi=[HI_A] * 2, src_lo=[1] * 2,
            dst_hi=[DST_HI] * 2, dst_lo=[1, 2],
            origin=[UNKNOWN_ORIGIN] * 2,
        )
        assert truth_events(*truth, min_targets=1) == []


def _truth_events_oracle(truth, min_targets, timeout):
    """Per-row reference for :func:`truth_events`: walk the rows of
    ``truth = (records, origin)`` in stable time order, one open session
    per known ``origin``."""
    records, origin = truth
    open_sessions: dict[int, dict] = {}
    events = []

    def close(agent, state):
        if len(state["targets"]) >= min_targets:
            events.append(TruthEvent(
                agent=agent, start=state["start"], end=state["last"],
                packets=state["packets"],
                unique_targets=len(state["targets"])))

    for i in np.argsort(records.ts, kind="stable").tolist():
        agent = int(origin[i])
        if agent < 0:
            continue
        ts = float(records.ts[i])
        state = open_sessions.get(agent)
        if state is not None and ts - state["last"] > timeout:
            close(agent, state)
            state = None
        if state is None:
            state = open_sessions[agent] = {
                "start": ts, "last": ts, "packets": 0, "targets": set()}
        state["last"] = ts
        state["packets"] += 1
        state["targets"].add((int(records.dst_hi[i]),
                              int(records.dst_lo[i])))
    for agent, state in open_sessions.items():
        close(agent, state)
    events.sort(key=lambda e: (e.start, e.agent))
    return events


def _random_truth(rng, n, quantum):
    """``n`` unsorted rows: a few agents (some with negative, unknown
    origins, one at the int32 maximum) probing a small destination pool
    from sources unrelated to the agent, on timestamps quantized so that
    ties and gaps of exactly one quantum are common."""
    agents = np.array([-7, -1, 0, 1, 2, 5, 40, 2**31 - 1], dtype=np.int32)
    dst = rng.integers(0, 60, size=n, dtype=np.uint64)
    return _rows(
        ts=np.round(rng.uniform(0, 40 * quantum, size=n) / quantum)
        * quantum,
        src_hi=rng.integers(0, 4, size=n, dtype=np.uint64),
        src_lo=rng.integers(0, 1 << 63, size=n, dtype=np.uint64),
        dst_hi=dst % np.uint64(3), dst_lo=dst,
        origin=rng.choice(agents, size=n),
    )


class TestTruthEventsOracle:
    """Randomized equivalence with a per-row loop keyed by ``origin``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        quantum = 100.0
        truth = _random_truth(rng, 700, quantum)
        # A timeout equal to the quantum puts gaps exactly at the
        # timeout (kept in-session); a shorter one splits at every gap.
        for timeout in (quantum, quantum / 2, 7 * quantum):
            for min_targets in (1, 4, 12):
                assert truth_events(*truth, min_targets, timeout) == \
                    _truth_events_oracle(truth, min_targets, timeout)

    def test_gap_exactly_at_timeout_stays_in_session(self):
        truth = _rows(
            ts=[0.0, 3600.0, 3600.0, 7200.5], src_hi=[HI_A] * 4,
            src_lo=[1, 2, 3, 4], dst_hi=[DST_HI] * 4, dst_lo=[1, 2, 3, 4],
            origin=[3] * 4,
        )
        events = truth_events(*truth, min_targets=1, timeout=3600.0)
        assert [(e.start, e.end, e.packets) for e in events] == [
            (0.0, 3600.0, 3), (7200.5, 7200.5, 1)]
        assert events == _truth_events_oracle(truth, 1, 3600.0)


class TestPinnedScores:
    """Exact precision/recall at /128, /64, /48 on the toy population."""

    @pytest.fixture(scope="class")
    def scores(self):
        records, origin = _toy_population()
        return score_all_levels(records, origin)

    def test_slash128(self, scores):
        s = scores[128]
        # Agent 0's rotation defeats per-address detection: only agents 1
        # and 2 are found, both pure, so recall loses exactly agent 0.
        assert s.n_events == 2
        assert s.n_truth_events == 3
        assert s.precision == pytest.approx(1.0)
        assert s.recall == pytest.approx(2 / 3)
        assert s.fragmentation == pytest.approx(1.0)
        assert s.merge_rate == pytest.approx(0.0)

    def test_slash64(self, scores):
        s = scores[64]
        # /64 aggregation reunites agent 0's rotating addresses.
        assert s.n_events == 3
        assert s.precision == pytest.approx(1.0)
        assert s.recall == pytest.approx(1.0)
        assert s.fragmentation == pytest.approx(1.0)
        assert s.merge_rate == pytest.approx(0.0)

    def test_slash48(self, scores):
        s = scores[48]
        # Agents 0 and 2 share a /48: their sessions merge into one impure
        # event, halving precision while recall stays perfect.
        assert s.n_events == 2
        assert s.precision == pytest.approx(0.5)
        assert s.recall == pytest.approx(1.0)
        assert s.merge_rate == pytest.approx(0.5)
        assert s.fragmentation == pytest.approx(1.0)

    def test_n_agents(self, scores):
        assert all(s.n_agents == 3 for s in scores.values())


class TestScoreDetectionEdges:
    def test_fragmentation_counts_split_events(self):
        """One agent scanning from two /64s at once: one truth event,
        two detected events at /64 — fragmentation 2."""
        rows = []
        for i in range(120):
            rows.append((0.5 + i, HI_A, 1, i, 7))
            rows.append((0.6 + i, HI_C, 1, 1000 + i, 7))
        ts, src_hi, src_lo, dst_lo, origin = map(np.asarray, zip(*rows))
        records = PacketRecords.from_columns(
            ts=ts, src_hi=src_hi, src_lo=src_lo,
            dst_hi=np.full(len(ts), DST_HI, dtype=np.uint64), dst_lo=dst_lo,
            proto=np.full(len(ts), 6), sport=np.full(len(ts), 1),
            dport=np.full(len(ts), 2),
        )
        events = detect_scans(records, source_length=64)
        assert len(events) == 2
        score = score_detection(events, records, origin.astype(np.int32))
        assert score.n_truth_events == 1
        assert score.recall == pytest.approx(1.0)
        assert score.fragmentation == pytest.approx(2.0)
        assert score.precision == pytest.approx(1.0)

    def test_empty_everything(self):
        score = score_detection([], PacketRecords.empty(),
                                np.empty(0, dtype=np.int32),
                                source_length=64)
        assert score.source_length == 64
        assert score.n_events == 0
        assert score.n_truth_events == 0
        assert score.precision == 1.0
        assert score.recall == 1.0

    def test_mixed_levels_rejected(self):
        records, origin = _toy_population()
        events = (detect_scans(records, source_length=64)
                  + detect_scans(records, source_length=48))
        with pytest.raises(ValueError, match="mix aggregation levels"):
            score_detection(events, records, origin)

    def test_explicit_level_must_match(self):
        records, origin = _toy_population()
        events = detect_scans(records, source_length=64)
        with pytest.raises(ValueError, match="aggregated at /64"):
            score_detection(events, records, origin, source_length=48)

    def test_misaligned_origin_rejected(self):
        records, origin = _toy_population()
        with pytest.raises(ValueError, match="origin has"):
            score_all_levels(records, origin[:-1])


class TestProvenanceBoundary:
    def test_capture_strips_origin_keeps_sidecar(self):
        from repro.core.capture import PacketCapturer

        capturer = PacketCapturer("t")
        batch = PacketBatch.from_columns(
            [0.0, 1.0], [HI_A] * 2, [1, 2], [DST_HI] * 2, [1, 2],
            [6] * 2, [1] * 2, [2] * 2,
        ).with_origin(9)
        capturer.capture_batch(batch)
        records = capturer.to_records()
        origin = capturer.to_truth()
        assert len(records) == 2 and len(origin) == 2
        assert origin.tolist() == [9, 9]
        # Analysis-facing records carry no provenance column at all.
        assert not hasattr(records, "origin") or records.origin is None

    def test_unstamped_batches_produce_no_truth(self):
        from repro.core.capture import PacketCapturer

        capturer = PacketCapturer("t")
        capturer.capture_batch(PacketBatch.from_columns(
            [0.0], [HI_A], [1], [DST_HI], [1], [6], [1], [2],
        ))
        assert len(capturer.to_records()) == 1
        assert capturer.to_truth().tolist() == [UNKNOWN_ORIGIN]

    def test_batch_origin_ops(self):
        batch = PacketBatch.from_columns(
            [0.0, 1.0], [HI_A] * 2, [1, 2], [DST_HI] * 2, [1, 2],
            [6] * 2, [1] * 2, [2] * 2,
        )
        stamped = batch.with_origin(5)
        assert stamped.origin.tolist() == [5, 5]
        sub = stamped.select(np.array([True, False]))
        assert sub.origin.tolist() == [5]
        mixed = PacketBatch.concat([stamped, batch])
        assert mixed.origin.tolist() == [5, 5, UNKNOWN_ORIGIN, UNKNOWN_ORIGIN]
