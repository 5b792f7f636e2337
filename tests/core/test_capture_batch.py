"""The capture store: ``capture_batch`` appends rows in arrival order,
one-row batches and bursts alike, and ``to_records`` hands the store out;
repeated freezes and captures after a freeze stay valid, the frozen
``origin`` column stays aligned row for row with the records, arrays a
freeze handed out are never written again, the freeze copies no rows, and
the day drain empties the store."""

import numpy as np

from repro.core.capture import CAPTURE_COLUMNS, PacketCapturer
from repro.net.addr import IPv6Prefix
from repro.net.batch import UNKNOWN_ORIGIN, PacketBatch
from repro.net.packet import icmp_echo_request
from repro.obs import use_journal
from repro.obs.registry import MetricsRegistry, use_registry
from repro.sim import ScenarioConfig
from repro.sim.scenario import PaperScenario

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
        day, origin = cap.drain_day_records()
        assert len(day) == len(origin) == 70
        for col in CAPTURE_COLUMNS:
            assert np.array_equal(
                getattr(day, col),
                np.concatenate([getattr(b1, col), getattr(b2, col)])), col
        assert origin.dtype == np.int32
        assert np.array_equal(origin, np.concatenate(
            [b1.origin, np.full(40, UNKNOWN_ORIGIN)]))
        assert day.origin is None
        assert len(cap) == 0
        assert len(cap.to_records()) == len(cap.to_truth()) == 0
        day, origin = cap.drain_day_records()
        assert len(day) == len(origin) == 0 and origin.dtype == np.int32

    def test_drain_flushes_scalar_tail(self):
        """A single captured packet (a one-row batch) drains too."""
        cap = PacketCapturer("s")
        cap.capture_batch(_row(1.0))
        day, origin = cap.drain_day_records()
        assert len(day) == 1 and day.ts[0] == 1.0
        assert origin.tolist() == [UNKNOWN_ORIGIN]

    def test_days_do_not_share_arrays(self):
        """Each drain hands out its own day; a later day never writes
        into the arrays an earlier drain handed out."""
        rng = np.random.default_rng(6)
        cap = PacketCapturer("days")
        first = _batch(rng, 50)
        cap.capture_batch(first)
        day1, origin1 = cap.drain_day_records()
        cap.capture_batch(_batch(rng, 80))
        day2, origin2 = cap.drain_day_records()
        assert len(day2) == len(origin2) == 80
        assert np.array_equal(day1.ts, first.ts)
        assert np.array_equal(origin1, first.origin)


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
            assert records.origin is None


def _snapshot(records, origin):
    """Byte copies of a freeze's columns, ``origin`` last."""
    return [getattr(records, col).tobytes() for col in CAPTURE_COLUMNS] + [
        origin.tobytes()]


class TestViewSafety:
    """Arrays a freeze handed out are never resized or written again."""

    def test_first_freeze_survives_later_work(self):
        rng = np.random.default_rng(7)
        cap = PacketCapturer("v")
        parts = [_batch(rng, 300), _batch(rng, 40, with_origin=False),
                 _batch(rng, 200)]
        for part in parts:
            cap.capture_batch(part)
        records, origin = cap.to_records(), cap.to_truth()
        before = _snapshot(records, origin)

        # More captures (enough to grow the fresh store several times),
        # with origin-less batches between them.
        later = []
        for i in range(12):
            later.append(_batch(rng, 150 + 37 * i))
            later.append(_batch(rng, 9, with_origin=False))
        for part in later:
            cap.capture_batch(part)
        assert _snapshot(records, origin) == before

        # A second freeze extends the first without touching it.
        again, again_origin = cap.to_records(), cap.to_truth()
        assert again is not records
        assert _snapshot(records, origin) == before
        n = len(records)
        assert len(again) == n + sum(len(p) for p in later)
        for col in CAPTURE_COLUMNS:
            assert getattr(again, col)[:n].tobytes() == getattr(
                records, col).tobytes(), col
        assert again_origin[:n].tobytes() == origin.tobytes()
        assert (again_origin[n:] == UNKNOWN_ORIGIN).sum() == 12 * 9
        again_before = _snapshot(again, again_origin)

        # A checkpoint-style transfer, and captures on both sides after it.
        cap.capture_batch(_batch(rng, 77))
        moved = PacketCapturer("moved")
        moved.extend_chunks(cap.chunks())
        for target in (cap, moved):
            target.capture_batch(_batch(rng, 500))
            target.capture_batch(_batch(rng, 5, with_origin=False))
        for target in (cap, moved):
            final, final_origin = target.to_records(), target.to_truth()
            assert _snapshot(records, origin) == before
            assert _snapshot(again, again_origin) == again_before
            m = len(again)
            for col in CAPTURE_COLUMNS:
                assert getattr(final, col)[:m].tobytes() == getattr(
                    again, col).tobytes(), col
            assert final_origin[:m].tobytes() == again_origin.tobytes()
            assert len(final) == m + 77 + 505

    def test_held_capture_views_stay_valid(self):
        """Views a capture returned survive the store growing past them."""
        rng = np.random.default_rng(8)
        cap = PacketCapturer("held")
        first = _batch(rng, 20)
        stored = cap.capture_batch(first)
        for _ in range(30):
            cap.capture_batch(_batch(rng, 64))
        for col in (*CAPTURE_COLUMNS, "origin"):
            assert np.array_equal(getattr(stored, col), getattr(first, col))
        assert np.array_equal(cap.to_truth()[:20], first.origin)


#: The bench honeypot workload's config at a tenth of its volume: every
#: capture is retained to the end and frozen.
HONEYPOT_STYLE = dict(seed=31, duration_days=12, volume_scale=1e-3,
                      n_tail=20, phase1_day=2, phase2_day=4, phase3_day=6,
                      specific_start_day=8, tpot_hitlist_offset_days=3,
                      tpot_tls_offset_days=5)


class TestStoreMemory:
    def test_freeze_copies_no_rows(self, traced_peak):
        """The freeze hands the store out: freezing every telescope of a
        retained run adds under 1% to the bytes already live."""
        scenario = PaperScenario(ScenarioConfig(**HONEYPOT_STYLE))
        with use_journal(None):
            scenario.run()
        rows = sum(len(cap) for cap in scenario.capturers.values())
        assert rows > 100_000

        def freeze():
            for cap in scenario.capturers.values():
                cap.to_records()
                cap.to_truth()

        live, peak = traced_peak(freeze)
        assert peak <= 1.01 * live, (live, peak)
