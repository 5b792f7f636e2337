"""Observatory runs end to end: bit-reproducibility and crash recovery.

The reproducibility contract under test: the data directory a streaming
observatory run writes — every per-day file, the ``observations.jsonl``
mirror, the index, the manifest — is byte-identical across uninterrupted
and killed-and-resumed executions of one config, and an aborted run stops
after the day it was asked to.  An observe checkpoint pointed at a
directory without its earlier day files restarts at day zero.  Plus the
mode guards: ``observe_dir`` turns streaming on by itself, and the
observatory refuses out-of-order days and a foreign config.
"""

import io
import json
from pathlib import Path

import pytest

from repro.exec.cache import ScenarioCache
from repro.net.addr import KeySet
from repro.obs import Journal, MetricsRegistry, use_journal, use_registry
from repro.observatory import Observatory, ObservatoryError, ObservatoryState
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario

from tests.observatory.conftest import OBS_CONFIG, run_observatory

CADENCE = 4
ABORT_AFTER = 5

#: A lighter config for the mode-guard tests (no byte-compare needed).
GUARD = ScenarioConfig(seed=3, duration_days=6, volume_scale=1e-5, n_tail=2)


def _dir_bytes(directory) -> dict:
    return {path.name: path.read_bytes()
            for path in Path(directory).iterdir() if path.is_file()}


class TestByteIdentity:
    def test_aborted_run_ends_with_the_named_day(self, serial_observatory,
                                                 tmp_path):
        """``abort_after_day=N`` stops after day N even when N is not the
        end of a checkpoint window: the journal and the observer day files
        end with day N, and those files match the uninterrupted run's."""
        golden, _ = serial_observatory
        data = tmp_path / "data"
        buffer = io.StringIO()
        with use_journal(Journal(buffer)):
            with pytest.raises(SimulationAborted):
                run_observatory(data, cache_dir=tmp_path / "ckpt",
                                checkpoint_every=CADENCE,
                                abort_after_day=ABORT_AFTER)
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        assert [r["day"] for r in records if r["type"] == "day"] \
            == list(range(ABORT_AFTER + 1))
        assert records[-1]["day"] == ABORT_AFTER
        day_files = {name: body for name, body in _dir_bytes(data).items()
                     if name.startswith("observer-")}
        golden_files = _dir_bytes(golden)
        assert sorted(day_files) == [f"observer-{day:05d}.json"
                                     for day in range(ABORT_AFTER + 1)]
        assert all(body == golden_files[name]
                   for name, body in day_files.items())

    def test_killed_and_resumed_matches_serial(self, serial_observatory,
                                               tmp_path):
        golden, _ = serial_observatory
        data = tmp_path / "data"
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulationAborted):
            run_observatory(data, cache_dir=ckpt,
                            checkpoint_every=CADENCE,
                            abort_after_day=ABORT_AFTER)
        # The realistic crash artifact: a torn final observations line.
        with open(data / "observations.jsonl", "ab") as stream:
            stream.write(b'{"v": 1, "type": "observer", "da')

        result = run_observatory(data, cache_dir=ckpt,
                                 checkpoint_every=CADENCE)
        assert result.observatory["days"] == OBS_CONFIG.duration_days
        # The resume healed the torn line: every file byte-identical,
        # checkpoint sidecar aside, to the uninterrupted run's.
        assert _dir_bytes(data) == _dir_bytes(golden)


    def test_checkpoint_with_fresh_directory_restarts(self,
                                                      serial_observatory,
                                                      tmp_path):
        """An observe checkpoint whose ``observe_dir`` lacks the day files
        before it is unusable: the run starts at day zero and writes the
        serial run's files."""
        golden, _ = serial_observatory
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulationAborted):
            run_observatory(tmp_path / "first", cache_dir=ckpt,
                            checkpoint_every=CADENCE,
                            abort_after_day=ABORT_AFTER)
        assert ScenarioCache(ckpt).read(OBS_CONFIG, "observe").next_day \
            == CADENCE
        registry = MetricsRegistry()
        with use_registry(registry):
            run_observatory(tmp_path / "fresh", cache_dir=ckpt,
                            checkpoint_every=CADENCE)
        simulated = registry.snapshot()["timings"]["scenario.run_day"]
        assert simulated["count"] == OBS_CONFIG.duration_days
        assert _dir_bytes(tmp_path / "fresh") == _dir_bytes(golden)


class TestModeGuards:
    def test_observe_dir_implies_streaming(self, tmp_path):
        implied = run_scenario(GUARD, observe_dir=tmp_path / "implied")
        run_scenario(GUARD, stream_analysis=True,
                     observe_dir=tmp_path / "explicit")
        assert implied.streaming is not None
        assert len(implied.nta) == 0
        assert implied.observatory["days"] == GUARD.duration_days
        assert (_dir_bytes(tmp_path / "implied")
                == _dir_bytes(tmp_path / "explicit"))

    def test_directory_refuses_foreign_config(self, tmp_path):
        observatory = Observatory(tmp_path / "data", GUARD)
        observatory.close()
        with pytest.raises(ObservatoryError, match="different config"):
            Observatory(tmp_path / "data", OBS_CONFIG)

    def test_days_must_be_observed_in_order(self, tmp_path):
        observatory = Observatory(tmp_path / "data", GUARD)
        try:
            with pytest.raises(ObservatoryError, match="in order"):
                observatory.observe_day(3, None, None, {})
        finally:
            observatory.close()

    def test_state_day_mismatch_rejected(self, tmp_path):
        with pytest.raises(ObservatoryError, match="resumes at day"):
            Observatory(tmp_path / "data", GUARD, start_day=4,
                        state=ObservatoryState(next_day=2))

    def test_resume_with_missing_day_file_rejected(self, tmp_path):
        state = ObservatoryState(
            next_day=2,
            seen_sources={t: {lv: KeySet(1 if lv <= 64 else 2)
                              for lv in (128, 64, 48)}
                          for t in ("NT-A", "NT-B", "NT-C")},
            event_counts={t: {lv: 0 for lv in (128, 64, 48)}
                          for t in ("NT-A", "NT-B", "NT-C")})
        with pytest.raises(ObservatoryError, match="missing day file"):
            Observatory(tmp_path / "data", GUARD, start_day=2, state=state)


class TestOpsCounters:
    def test_registry_sees_observatory_activity(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_scenario(GUARD, stream_analysis=True,
                                  observe_dir=tmp_path / "data")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["observatory.days"] \
            == GUARD.duration_days
        assert snapshot["counters"]["observatory.records"] \
            == result.observatory["records"]
        assert snapshot["timings"]["observatory.emit"]["count"] \
            == GUARD.duration_days
