"""Chunked capture: ``capture_batch`` appends numpy chunks, ``to_records``
concatenates them in arrival order, one-row batches and bursts alike;
repeated freezes and captures after a freeze stay valid, the frozen
``origin`` column stays aligned row for row with the records, and the day
drain empties the buffer."""

import numpy as np

from repro.core.capture import CAPTURE_COLUMNS, PacketCapturer
from repro.net.addr import IPv6Prefix
from repro.net.batch import UNKNOWN_ORIGIN, PacketBatch
from repro.net.packet import icmp_echo_request
from repro.obs.registry import MetricsRegistry, use_registry

PREFIX = IPv6Prefix.parse("2001:db8:50::/48")


def _packets(n, t0=0.0):
    return [icmp_echo_request(t0 + i, 0x2620 << 112 | i, PREFIX.network | i)
            for i in range(n)]


def _row(t0):
    """One packet as a one-row batch."""
    return PacketBatch.from_packets(_packets(1, t0=t0))


def _batch(rng, n, with_origin=True):
    """``n`` random rows, with an ``origin`` column unless told not to."""
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


class TestChunkedCapture:
    def test_batch_then_records(self):
        capturer = PacketCapturer("t")
        capturer.capture_batch(PacketBatch.from_packets(_packets(5)))
        records = capturer.to_records()
        assert len(records) == 5
        assert np.array_equal(records.ts, np.arange(5.0))

    def test_interleaved_order_preserved(self):
        capturer = PacketCapturer("t")
        capturer.capture_batch(_row(0.0))
        capturer.capture_batch(PacketBatch.from_packets(_packets(3, t0=1.0)))
        capturer.capture_batch(_row(4.0))
        capturer.capture_batch(PacketBatch.from_packets(_packets(2, t0=5.0)))
        records = capturer.to_records()
        assert np.array_equal(records.ts, np.arange(7.0))

    def test_len_counts_chunks_and_scalars(self):
        capturer = PacketCapturer("t")
        capturer.capture_batch(PacketBatch.from_packets(_packets(3)))
        capturer.capture_batch(_row(9.0))
        assert len(capturer) == 4

    def test_empty_batch_is_noop(self):
        capturer = PacketCapturer("t")
        capturer.capture_batch(PacketBatch.empty())
        assert len(capturer) == 0
        assert len(capturer.to_records()) == 0

    def test_packet_metric_counts_batches(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            capturer = PacketCapturer("metered")
            capturer.capture_batch(PacketBatch.from_packets(_packets(4)))
            capturer.capture_batch(_row(9.0))
        assert registry.counter("telescope.metered.packets").value == 5


class TestFreeze:
    def test_repeated_freeze_and_capture_after_freeze(self):
        rng = np.random.default_rng(2)
        cap = PacketCapturer("r")
        first = _batch(rng, 150)
        cap.capture_batch(first)
        r1 = cap.to_records()
        r2 = cap.to_records()
        assert len(r1) == len(r2) == 150
        for col in CAPTURE_COLUMNS:
            assert np.array_equal(getattr(r1, col), getattr(r2, col)), col
        second = _batch(rng, 70)
        cap.capture_batch(second)
        r3 = cap.to_records()
        assert len(r3) == 220
        assert np.array_equal(r3.ts[:150], first.ts)
        assert np.array_equal(r3.ts[150:], second.ts)
        # The origin column outlives every freeze, aligned with the rows.
        assert np.array_equal(cap.to_truth(),
                              np.concatenate([first.origin, second.origin]))

    def test_len_counts_frozen_and_buffered(self):
        rng = np.random.default_rng(3)
        cap = PacketCapturer("n")
        cap.capture_batch(_batch(rng, 80))
        assert len(cap) == 80
        cap.to_records()
        cap.capture_batch(_batch(rng, 20))
        assert len(cap) == 100


class TestDrainDayRecords:
    def test_drain_empties_and_preserves_order(self):
        rng = np.random.default_rng(4)
        cap = PacketCapturer("d")
        b1, b2 = _batch(rng, 30), _batch(rng, 40, with_origin=False)
        cap.capture_batch(b1)
        cap.capture_batch(b2)
        day = cap.drain_day_records()
        assert len(day) == 70
        for col in CAPTURE_COLUMNS:
            assert np.array_equal(
                getattr(day, col),
                np.concatenate([getattr(b1, col), getattr(b2, col)])), col
        assert len(cap) == 0
        assert len(cap.to_records()) == len(cap.to_truth()) == 0
        assert len(cap.drain_day_records()) == 0

    def test_drain_flushes_scalar_tail(self):
        """A single captured packet (a one-row batch) drains too."""
        cap = PacketCapturer("s")
        cap.capture_batch(_row(1.0))
        day = cap.drain_day_records()
        assert len(day) == 1 and day.ts[0] == 1.0


class TestAlignedOrigin:
    """``to_truth()`` is one origin column aligned with ``to_records()``,
    whatever mix of batches arrived and however they were transferred."""

    def test_mixed_batches_freeze_and_transfer(self):
        rng = np.random.default_rng(5)
        parts = [_batch(rng, 40), _batch(rng, 25, with_origin=False),
                 _batch(rng, 30), _batch(rng, 15, with_origin=False)]
        source = PacketCapturer("src")
        source.capture_batch(parts[0])
        source.capture_batch(parts[1])
        source.to_records()  # freeze mid-stream
        source.capture_batch(parts[2])
        source.capture_batch(parts[3])
        moved = PacketCapturer("dst")
        moved.extend_chunks(source.chunks())
        expected = np.concatenate([
            p.origin if p.origin is not None
            else np.full(len(p), UNKNOWN_ORIGIN, dtype=np.int32)
            for p in parts])
        for cap in (source, moved):
            records, origin = cap.to_records(), cap.to_truth()
            assert len(origin) == len(records) == 110
            assert origin.dtype == np.int32
            assert np.array_equal(origin, expected)
            assert np.array_equal((origin == UNKNOWN_ORIGIN).nonzero()[0],
                                  np.r_[40:65, 95:110])
            for col in CAPTURE_COLUMNS:
                assert np.array_equal(
                    getattr(records, col),
                    np.concatenate([getattr(p, col) for p in parts])), col
            assert not hasattr(records, "origin")
