"""Capture spill: bounded-memory chunk sealing and streaming freeze.

A spill-enabled :class:`~repro.core.capture.PacketCapturer` must produce
byte-identical ``to_records()``/``to_truth()`` output to a plain one, seal
segments atomically with verified checksums, and keep the repeated-freeze
and capture-after-freeze contracts the shared test fixtures rely on.
"""

import numpy as np
import pytest

from repro.analysis.records import PacketRecords
from repro.core.capture import (
    CAPTURE_COLUMNS,
    ChunkSpill,
    PacketCapturer,
    SpillIntegrityError,
)
from repro.net.batch import PacketBatch


def _batch(rng, n, with_origin=True):
    return PacketBatch.from_columns(
        rng.uniform(0, 1000, n),
        rng.integers(0, 1 << 60, n, dtype=np.uint64),
        rng.integers(0, 1 << 60, n, dtype=np.uint64),
        rng.integers(0, 1 << 60, n, dtype=np.uint64),
        rng.integers(0, 1 << 60, n, dtype=np.uint64),
        rng.integers(0, 255, n, dtype=np.uint8),
        rng.integers(0, 65535, n, dtype=np.uint16),
        rng.integers(0, 65535, n, dtype=np.uint16),
        origin=(rng.integers(0, 50, n, dtype=np.int64)
                if with_origin else None),
    )


def _assert_records_equal(a: PacketRecords, b: PacketRecords):
    assert len(a) == len(b)
    for col in CAPTURE_COLUMNS:
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


class TestSpillEquivalence:
    @pytest.mark.parametrize("budget", [1, 2048, 1 << 30])
    def test_records_and_truth_match_plain_capturer(self, tmp_path, budget):
        rng = np.random.default_rng(0)
        plain = PacketCapturer("plain")
        spilly = PacketCapturer("spilly")
        spilly.enable_spill(tmp_path, budget_bytes=budget)
        for i in range(12):
            batch = _batch(rng, int(rng.integers(1, 200)),
                           with_origin=bool(i % 2))
            plain.capture_batch(batch)
            spilly.capture_batch(batch)
        assert len(plain) == len(spilly)
        _assert_records_equal(plain.to_records(), spilly.to_records())
        ta, tb = plain.to_truth(), spilly.to_truth()
        assert len(ta) == len(tb)
        assert np.array_equal(ta.origin, tb.origin)
        assert np.array_equal(ta.ts, tb.ts)

    def test_tiny_budget_actually_spills(self, tmp_path):
        rng = np.random.default_rng(1)
        cap = PacketCapturer("t")
        cap.enable_spill(tmp_path, budget_bytes=1)
        for _ in range(5):
            cap.capture_batch(_batch(rng, 100))
        assert cap.spill_enabled
        assert cap.spilled_rows > 0
        assert any(p.suffix == ".npz" for p in tmp_path.iterdir())
        # freeze consumes and clears the analysis spill
        records = cap.to_records()
        assert len(records) == 500
        assert cap.spilled_rows == 0

    def test_repeated_freeze_and_capture_after_freeze(self, tmp_path):
        rng = np.random.default_rng(2)
        cap = PacketCapturer("r")
        cap.enable_spill(tmp_path, budget_bytes=1)
        first = _batch(rng, 150)
        cap.capture_batch(first)
        r1 = cap.to_records()
        r2 = cap.to_records()
        _assert_records_equal(r1, r2)
        second = _batch(rng, 70)
        cap.capture_batch(second)
        r3 = cap.to_records()
        assert len(r3) == 220
        assert np.array_equal(r3.ts[:150], first.ts)
        assert np.array_equal(r3.ts[150:], second.ts)

    def test_len_counts_frozen_spilled_and_buffered(self, tmp_path):
        rng = np.random.default_rng(3)
        cap = PacketCapturer("n")
        cap.enable_spill(tmp_path, budget_bytes=1)
        cap.capture_batch(_batch(rng, 80))
        assert len(cap) == 80
        cap.to_records()
        cap.capture_batch(_batch(rng, 20))
        assert len(cap) == 100


class TestDrainDayRecords:
    def test_drain_empties_and_preserves_order(self):
        rng = np.random.default_rng(4)
        cap = PacketCapturer("d")
        b1, b2 = _batch(rng, 30), _batch(rng, 40)
        cap.capture_batch(b1)
        cap.capture_batch(b2)
        day = cap.drain_day_records()
        assert len(day) == 70
        assert np.array_equal(day.ts, np.concatenate([b1.ts, b2.ts]))
        assert len(cap) == 0
        assert len(cap.drain_day_records()) == 0

    def test_drain_flushes_scalar_tail(self):
        """A single captured packet (a one-row batch) drains too."""
        from repro.net.packet import icmp_echo_request

        cap = PacketCapturer("s")
        cap.capture_batch(PacketBatch.from_packets(
            [icmp_echo_request(1.0, 7, 9)]))
        day = cap.drain_day_records()
        assert len(day) == 1 and day.ts[0] == 1.0


class TestChunkSpillIntegrity:
    def test_corrupted_segment_detected(self, tmp_path):
        rng = np.random.default_rng(5)
        spill = ChunkSpill(tmp_path, "seg")
        spill.spill([_batch(rng, 50, with_origin=False)])
        segment = next(p for p in tmp_path.iterdir()
                       if p.suffix == ".npz")
        segment.write_bytes(segment.read_bytes()[:-4] + b"XXXX")
        with pytest.raises(SpillIntegrityError):
            list(spill.iter_batches())

    def test_roundtrip_and_clear(self, tmp_path):
        rng = np.random.default_rng(6)
        batch = _batch(rng, 64)
        spill = ChunkSpill(tmp_path, "rt")
        assert spill.spill([batch]) == 64
        [back] = list(spill.iter_batches())
        for col in CAPTURE_COLUMNS:
            assert np.array_equal(getattr(back, col), getattr(batch, col))
        assert np.array_equal(back.origin, batch.origin)
        assert spill.manifest_path.exists()
        spill.clear()
        assert spill.rows == 0
        assert list(tmp_path.iterdir()) == []

    def test_empty_spill_writes_nothing(self, tmp_path):
        spill = ChunkSpill(tmp_path, "e")
        assert spill.spill([]) == 0
        assert spill.segments == 0

    def test_invalid_budget_rejected(self, tmp_path):
        cap = PacketCapturer("b")
        with pytest.raises(ValueError):
            cap.enable_spill(tmp_path, budget_bytes=0)
