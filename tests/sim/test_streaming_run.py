"""Streaming scenario runs: incremental detection equals batch analysis.

``run_scenario(stream_analysis=True)`` analyzes each day's captures
online and releases them; its event lists must be element-identical to
running :func:`~repro.analysis.scandetect.detect_scans` over a batch
run's records — uninterrupted, and across a kill-and-resume whose
checkpoint carries open sessions over the boundary.
"""

import io
import json

import pytest

from repro.analysis.scandetect import detect_scans
from repro.exec.cache import ScenarioCache
from repro.obs import Journal, MetricsRegistry, use_journal, use_registry
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario
from tests.analysis.reference import detect_scans_reference

DAYS = 12
CADENCE = 4
LEVELS = (128, 64, 48)


def _config():
    return ScenarioConfig(seed=19, duration_days=DAYS, volume_scale=1e-4,
                          n_tail=20, phase1_day=2, phase2_day=4,
                          phase3_day=6, specific_start_day=7,
                          withdraw_after_days=5)


def _stream_run(cache_dir=None, **kwargs):
    """One journaled streaming run; returns (result, journal text with
    the store directory replaced by ``STORE``)."""
    buffer = io.StringIO()
    with use_journal(Journal(buffer)):
        result = run_scenario(_config(), stream_analysis=True,
                              cache_dir=cache_dir, **kwargs)
    journal = buffer.getvalue()
    if cache_dir is not None:
        journal = journal.replace(str(cache_dir), "STORE")
    return result, journal


def _assert_same_events(a, b):
    for name in ("NT-A", "NT-B", "NT-C"):
        assert a.streaming[name].records_in == b.streaming[name].records_in
        for level in LEVELS:
            assert a.streaming[name].events[level] == \
                b.streaming[name].events[level], (name, level)


@pytest.fixture(scope="module")
def batch():
    return run_scenario(_config())


@pytest.fixture(scope="module")
def stream():
    return _stream_run()


class TestStreamingEqualsBatch:
    def test_events_identical_at_every_level(self, batch, stream):
        result, _ = stream
        for name, records in batch.telescopes().items():
            summary = result.streaming[name]
            assert summary.records_in == len(records)
            for level in LEVELS:
                expect = detect_scans(records, source_length=level)
                assert summary.events[level] == expect, (name, level)
                assert summary.events[level] == detect_scans_reference(
                    records, level, 100, 3600.0), (name, level)

    def test_matches_per_packet_reference(self, batch, stream):
        result, _ = stream
        records = batch.nta
        assert result.streaming["NT-A"].events[64] == \
            detect_scans_reference(records, 64, 100, 3600.0)

    def test_streaming_run_retains_no_records(self, stream):
        result, _ = stream
        assert len(result.nta) == len(result.ntb) == len(result.ntc) == 0
        assert result.truth == {}

    def test_journal_has_stream_detection_per_telescope_day(self, stream):
        _, journal = stream
        lines = [line for line in journal.splitlines()
                 if '"stream_detection"' in line]
        assert len(lines) == 3 * DAYS


class TestStreamingCheckpoint:
    def test_kill_and_resume_carries_open_sessions(self, stream, tmp_path):
        base, base_journal = stream
        with pytest.raises(SimulationAborted):
            _stream_run(tmp_path, checkpoint_every=CADENCE,
                        abort_after_day=5)
        checkpoint = ScenarioCache(tmp_path).read(_config(), "stream")
        assert checkpoint is not None and not checkpoint.complete
        assert checkpoint.streams is not None
        carried = sum(a.open_sessions for a in checkpoint.streams.values())
        assert carried > 0  # sessions genuinely cross the boundary
        resumed, journal = _stream_run(tmp_path, checkpoint_every=CADENCE)
        _assert_same_events(base, resumed)

    def test_resumed_equals_uninterrupted_with_checkpointing(self, tmp_path):
        base, base_journal = _stream_run(
            tmp_path / "base", checkpoint_every=CADENCE)
        with pytest.raises(SimulationAborted):
            _stream_run(tmp_path / "kill", checkpoint_every=CADENCE,
                        abort_after_day=5)
        resumed, journal = _stream_run(tmp_path / "kill",
                                       checkpoint_every=CADENCE)
        _assert_same_events(base, resumed)
        assert journal == base_journal


class TestModeGuards:
    def test_stream_composes_with_cache(self, stream, tmp_path):
        """A streaming run stores its summaries; the warm rerun returns
        them without simulating a day."""
        base, _ = stream
        cold, _ = _stream_run(tmp_path)
        _assert_same_events(base, cold)
        warm, journal = _stream_run(tmp_path)
        _assert_same_events(base, warm)
        assert len(warm.nta) == len(warm.ntb) == len(warm.ntc) == 0
        assert [json.loads(line)["type"] for line in journal.splitlines()] \
            == ["run_manifest", "cache_hit"]

    def test_checkpoint_every_needs_a_store(self):
        with pytest.raises(TypeError, match="cache_dir"):
            run_scenario(_config(), stream_analysis=True,
                         checkpoint_every=CADENCE)


class TestPeakRssGauge:
    def test_stage_gauges_in_telemetry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_scenario(ScenarioConfig(
                seed=19, duration_days=3, volume_scale=1e-4, n_tail=20))
        gauges = result.telemetry["gauges"]
        assert gauges["process.peak_rss_bytes"] > 0
        for stage in ("build", "run", "freeze"):
            assert gauges[f"process.peak_rss_bytes.{stage}"] > 0
