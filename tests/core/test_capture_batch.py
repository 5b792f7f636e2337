"""Chunked capture: ``capture_batch`` appends numpy chunks, ``to_records``
concatenates them in arrival order, one-row batches and bursts alike."""

import numpy as np

from repro.core.capture import PacketCapturer
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.net.packet import icmp_echo_request
from repro.net.pcapstore import read_packets
from repro.obs.registry import MetricsRegistry, use_registry

PREFIX = IPv6Prefix.parse("2001:db8:50::/48")


def _packets(n, t0=0.0):
    return [icmp_echo_request(t0 + i, 0x2620 << 112 | i, PREFIX.network | i)
            for i in range(n)]


def _row(t0):
    """One packet as a one-row batch."""
    return PacketBatch.from_packets(_packets(1, t0=t0))


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

    def test_mirror_writes_batch_rows(self, tmp_path):
        path = tmp_path / "mirror.pkts"
        capturer = PacketCapturer("t", mirror_path=path)
        capturer.capture_batch(PacketBatch.from_packets(_packets(3)))
        capturer.close()
        mirrored = read_packets(path)
        assert [p.timestamp for p in mirrored] == [0.0, 1.0, 2.0]
