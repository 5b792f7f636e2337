"""Checkpoint/resume equivalence: a run killed mid-horizon and resumed
must be byte-identical — journal, capture records, counters, ground
truth — to one that ran uninterrupted.  A checkpoint is a mid-run entry
of the run store, one per config and mode (batch, stream or observe); a
run with a store resumes by itself from its own mode's entry, and the
three modes' entries sit side by side.

The kill is simulated with ``run_scenario(abort_after_day=...)``, which
raises :class:`SimulationAborted` at the same point a real SIGKILL
between day windows would land: the last cadence checkpoint is on disk,
nothing after it is.  The uninterrupted baseline also runs *with*
checkpointing enabled so both journals carry the same ``checkpoint``
records; journals are compared with the store's directory (named by
the ``cache_store`` record) replaced by a placeholder.
"""

import io
import json

import numpy as np
import pytest

from pathlib import Path

from repro.exec.cache import ScenarioCache
from repro.obs import Journal, MetricsRegistry, use_journal, use_registry
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario

DAYS = 12
CADENCE = 4

COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
           "proto", "sport", "dport")


def _config():
    return ScenarioConfig(seed=19, duration_days=DAYS, volume_scale=1e-4,
                          n_tail=20, phase1_day=2, phase2_day=4,
                          phase3_day=6, specific_start_day=7,
                          withdraw_after_days=5)


def _honeypot_heavy_config():
    """The aliased prefix and both T-Pot prefixes deployed from day 2, so
    a large share of traffic goes through the columnar reply kernels
    (session table churn, DNAT flow allocation) across the kill."""
    return ScenarioConfig(seed=31, duration_days=14, volume_scale=1e-4,
                          n_tail=20, phase1_day=2, phase2_day=4,
                          phase3_day=6, specific_start_day=8,
                          tpot_hitlist_offset_days=3,
                          tpot_tls_offset_days=5)


def _run(cache_dir, config=None, cadence=CADENCE, **kwargs):
    """One journaled, checkpointed run; returns (result, journal text
    with the store directory replaced by ``STORE``)."""
    buffer = io.StringIO()
    with use_journal(Journal(buffer)):
        result = run_scenario(config or _config(), cache_dir=cache_dir,
                              checkpoint_every=cadence, **kwargs)
    return result, buffer.getvalue().replace(str(cache_dir), "STORE")


def _stored(cache_dir, mode="batch", config=None):
    """The verified entry of ``config`` in ``mode``, or None."""
    return ScenarioCache(cache_dir).read(config or _config(), mode)


def _entry(cache_dir, mode="batch", config=None):
    return ScenarioCache(cache_dir).entry_dir(config or _config(), mode)


def _counted_run(cache_dir, **kwargs):
    """:func:`_run` under a fresh registry; returns (result, journal text,
    number of days simulated rather than fast-forwarded)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        result, journal = _run(cache_dir, **kwargs)
    timings = registry.snapshot()["timings"]
    days = timings.get("scenario.run_day", {}).get("count", 0)
    return result, journal, days


def _dir_bytes(directory) -> dict:
    return {path.name: path.read_bytes()
            for path in Path(directory).iterdir() if path.is_file()}


def _assert_same_events(a, b):
    for name, summary in a.streaming.items():
        assert summary.records_in == b.streaming[name].records_in, name
        assert summary.events == b.streaming[name].events, name


def _assert_identical(a, b):
    for name in ("nta", "ntb", "ntc"):
        ra, rb = getattr(a, name), getattr(b, name)
        assert len(ra) == len(rb), name
        for column in COLUMNS:
            assert np.array_equal(getattr(ra, column),
                                  getattr(rb, column)), (name, column)
    assert set(a.truth) == set(b.truth)
    for name, origin in a.truth.items():
        assert np.array_equal(origin, b.truth[name]), name
    ca, cb = a.scenario.counters, b.scenario.counters
    assert (ca.nta, ca.ntb, ca.ntc, ca.live_dropped, ca.unrouted) \
        == (cb.nta, cb.ntb, cb.ntc, cb.live_dropped, cb.unrouted)


def _assert_same_emission_accounting(a, b):
    """Every agent's ``packets_emitted`` and every session's
    ``packets_sent`` match: replayed days count exactly what emitting
    them counted."""
    agents_a, agents_b = a.scenario.agents, b.scenario.agents
    assert ([agent.packets_emitted for agent in agents_a]
            == [agent.packets_emitted for agent in agents_b])
    assert ([[s.packets_sent for s in agent.sessions] for agent in agents_a]
            == [[s.packets_sent for s in agent.sessions]
                for agent in agents_b])


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Uninterrupted run with checkpointing on — the golden bytes."""
    return _run(tmp_path_factory.mktemp("ckpt-base"))


@pytest.fixture(scope="module")
def stream_baseline(tmp_path_factory):
    """Uninterrupted streaming run with checkpointing on."""
    return _run(tmp_path_factory.mktemp("ckpt-stream-base"),
                stream_analysis=True)


class TestAbort:
    def test_abort_raises_after_the_named_day(self, tmp_path):
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)

    def test_abort_leaves_the_cadence_checkpoint(self, tmp_path):
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)
        checkpoint = _stored(tmp_path)
        assert checkpoint is not None and not checkpoint.complete
        # day 5 completed, so the last cadence boundary <= 6 is day 4.
        assert checkpoint.next_day == CADENCE
        types = [json.loads(line)["type"] for line in checkpoint.journal]
        assert types[0] == "run_manifest"
        assert types[-1] == "checkpoint"
        # A checkpoint is not a warm entry.
        assert not ScenarioCache(tmp_path).probe(_config())


class TestResumeSerial:
    def test_resumed_equals_uninterrupted(self, baseline, tmp_path):
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)
        resumed, journal = _run(tmp_path)
        _assert_identical(base_result, resumed)
        _assert_same_emission_accounting(base_result, resumed)
        assert journal == base_journal

    def test_resume_without_checkpoint_runs_fresh(self, baseline, tmp_path):
        base_result, base_journal = baseline
        result, journal = _run(tmp_path)
        _assert_identical(base_result, result)
        assert journal == base_journal

    def test_stale_checkpoint_is_ignored(self, baseline, tmp_path):
        """A checkpoint for a *different* config must not be loaded."""
        base_result, base_journal = baseline
        other = ScenarioConfig(seed=23, duration_days=DAYS,
                               volume_scale=1e-4, n_tail=20)
        with pytest.raises(SimulationAborted):
            _run(tmp_path, other, abort_after_day=5)
        assert _stored(tmp_path, config=other) is not None
        assert _stored(tmp_path) is None
        result, journal = _run(tmp_path)
        _assert_identical(base_result, result)
        assert journal == base_journal

    def test_finished_run_replaces_its_checkpoint(self, baseline,
                                                  tmp_path):
        """A run that finishes leaves one completed entry and no
        checkpoint files; a rerun is served from it and never
        simulates."""
        _run(tmp_path)
        stored = _stored(tmp_path)
        assert stored.complete
        names = {p.name for p in _entry(tmp_path).iterdir()}
        assert not any(name.startswith(("captures.", "journal."))
                       for name in names), names
        result, journal, days = _counted_run(tmp_path)
        assert days == 0
        assert [json.loads(line)["type"] for line in journal.splitlines()] \
            == ["run_manifest", "cache_hit"]
        _assert_identical(baseline[0], result)


class TestHoneypotHeavyResume:
    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        config = _honeypot_heavy_config()
        base, base_journal = _run(tmp_path / "base", config, cadence=5)
        with pytest.raises(SimulationAborted):
            _run(tmp_path / "killed", config, cadence=5, abort_after_day=9)
        resumed, journal = _run(tmp_path / "killed", config, cadence=5)
        _assert_identical(base, resumed)
        assert set(base.truth) == {"NT-A", "NT-B", "NT-C"}
        for name, records in base.telescopes().items():
            assert len(base.truth[name]) == len(records), name
        assert journal == base_journal


class TestCheckpointContents:
    def test_no_reply_path_state_is_pickled(self, tmp_path):
        """A checkpoint holds captures, counters and the journal, never a
        honeypot: the T-Pot flow tables and Twinklenet sessions are not
        resumed state, so reshaping them leaves the entry layout and
        ``CACHE_SCHEMA_VERSION`` as they are."""
        config = _honeypot_heavy_config()
        with pytest.raises(SimulationAborted):
            _run(tmp_path, config, cadence=5, abort_after_day=5)
        files = list(_entry(tmp_path, config=config).iterdir())
        assert any(path.name.startswith("captures.") for path in files)
        for path in files:
            assert b"repro.core" not in path.read_bytes(), path.name


class TestResumeCadence:
    def test_resume_with_new_cadence_checkpoints_on_multiples(
            self, tmp_path):
        """Resuming at day 5 with cadence 4 checkpoints at day 8 (a
        cadence multiple), not at ``resume day + cadence``."""
        with pytest.raises(SimulationAborted):
            _run(tmp_path, cadence=5, abort_after_day=6)
        _, journal = _run(tmp_path, cadence=4)
        records = [json.loads(line) for line in journal.splitlines()]
        assert [r["day"] for r in records if r["type"] == "checkpoint"] \
            == [5, 8]


class TestTornCheckpoint:
    """A kill can leave a torn file behind, and a disk can flip a byte; a
    resume must then either refuse the entry or load the last good one,
    and the bytes still match the uninterrupted run."""

    def test_truncated_checkpoint_is_ignored(self, baseline, tmp_path):
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)
        path = _entry(tmp_path) / f"captures.{CADENCE:05d}.pkl"
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert _stored(tmp_path) is None
        resumed, journal = _run(tmp_path)
        _assert_identical(base_result, resumed)
        assert journal == base_journal

    def test_flipped_byte_in_captures_is_unusable(self, baseline,
                                                  tmp_path):
        """One flipped byte inside NT-A's first captured chunk of the
        day-8 checkpoint (kept in its day-4 segment) makes the checkpoint
        unusable: the rerun simulates from day zero and matches the
        uninterrupted run, instead of resuming corrupt rows."""
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=9)
        checkpoint = _stored(tmp_path)
        assert checkpoint.next_day == 2 * CADENCE
        chunk = checkpoint.captures["NT-A"][0]
        assert len(chunk) > 0
        path = _entry(tmp_path) / f"captures.{CADENCE:05d}.pkl"
        data = bytearray(path.read_bytes())
        at = bytes(data).index(chunk.src_lo.tobytes()) + 8 * (len(chunk) // 2)
        data[at] ^= 0x01
        path.write_bytes(bytes(data))

        registry = MetricsRegistry()
        with use_registry(registry):
            assert _stored(tmp_path) is None
        assert registry.snapshot()["counters"]["scenario.cache.invalid"] == 1
        resumed, journal, days = _counted_run(tmp_path)
        assert days == DAYS
        _assert_identical(base_result, resumed)
        assert journal == base_journal

    def test_stray_temp_file_leaves_good_checkpoint_usable(self, baseline,
                                                           tmp_path):
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)
        entry = _entry(tmp_path)
        name = f"captures.{CADENCE:05d}.pkl"
        # A kill during the next write: its temp file is torn, the
        # committed entry beside it is intact.
        data = (entry / name).read_bytes()
        (entry / f".{name}.99999.tmp").write_bytes(data[:len(data) // 2])
        checkpoint = _stored(tmp_path)
        assert checkpoint is not None and checkpoint.next_day == CADENCE
        resumed, journal = _run(tmp_path)
        _assert_identical(base_result, resumed)
        _assert_same_emission_accounting(base_result, resumed)
        assert journal == base_journal
        # The finished run's commit swept the stray file.
        assert sorted(p.name for p in entry.iterdir()
                      if p.name.endswith(".tmp")) == []


class TestModeKeyedCheckpoints:
    """Batch, stream and observe runs of one config checkpoint into one
    store side by side; a rerun resumes its own mode's checkpoint
    without being asked and simulates only the days after it."""

    def test_three_modes_share_a_directory(self, baseline, stream_baseline,
                                           tmp_path):
        ckpt = tmp_path / "ckpt"
        modes = {"batch": {}, "stream": {"stream_analysis": True},
                 "observe": {"observe_dir": tmp_path / "observed"}}
        for kwargs in modes.values():
            with pytest.raises(SimulationAborted):
                _run(ckpt, abort_after_day=5, **kwargs)
        for mode in modes:
            checkpoint = _stored(ckpt, mode)
            assert checkpoint is not None and checkpoint.next_day == CADENCE

        batch, journal, days = _counted_run(ckpt)
        assert days == DAYS - CADENCE
        _assert_identical(baseline[0], batch)
        assert journal == baseline[1]

        stream, journal, days = _counted_run(ckpt, stream_analysis=True)
        assert days == DAYS - CADENCE
        _assert_same_events(stream_baseline[0], stream)
        assert journal == stream_baseline[1]

        twin, twin_journal = _run(tmp_path / "twin-ckpt",
                                  observe_dir=tmp_path / "twin")
        observed, journal, days = _counted_run(
            ckpt, observe_dir=tmp_path / "observed")
        assert days == DAYS - CADENCE
        _assert_same_events(twin, observed)
        assert journal == twin_journal
        assert (_dir_bytes(tmp_path / "observed")
                == _dir_bytes(tmp_path / "twin"))

    def test_renamed_checkpoint_of_another_mode_is_unusable(
            self, stream_baseline, tmp_path):
        """A batch checkpoint renamed to the stream entry is refused by
        its manifest, and the streaming rerun starts from day zero."""
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)
        _entry(tmp_path).rename(_entry(tmp_path, "stream"))
        assert _stored(tmp_path, "stream") is None
        stream, journal, days = _counted_run(tmp_path, stream_analysis=True)
        assert days == DAYS
        _assert_same_events(stream_baseline[0], stream)
        assert journal == stream_baseline[1]
