"""Golden digests for the streaming observatory's outputs.

A compressed deployment timeline (all three tactic phases, the
hyper-specific window, TLS, hitlist and withdrawal triggers inside eight
days) streamed through the per-day detectors and the observer.  The
digests below were computed by the per-session carry implementation of
the streaming detectors; uninterrupted and killed-and-resumed runs must
reproduce them byte for byte, so a change that shifts both modes the
same way still fails.
"""

import copy
import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    ScenarioCache,
    _manifest_digest,
)
from repro.observatory.index import list_day_files, read_observations
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario
from tests.observatory.reference import as_sets

CONFIG = ScenarioConfig(seed=29, duration_days=8, volume_scale=1e-3,
                        n_tail=20, phase1_day=1, phase2_day=2, phase3_day=3,
                        specific_start_day=4, tls_offset_days=1,
                        tpot_hitlist_offset_days=2, tpot_tls_offset_days=3,
                        udp_hitlist_offset_days=1, withdraw_after_days=3,
                        hitlist_first_cycle_day=1, hitlist_cycle_days=2)

OBSERVATIONS_SHA256 = ("0b19971d9dad90fee98f6fcbc270211e"
                       "fddb0ee1a471bd90c7cb744bf21373f9")
DAY_FILES_SHA256 = {
    0: "fab311b23cf188cde516a1303ca5eba2e217f0bc36af485fef6d29d257d6400b",
    1: "f7c4fc04fa35af26d49f5cf22e0dbcf8074226554a65cbcf1e62316486d2263c",
    2: "a6868179f3827216bed2e916d284f8a19492161df3132f7252f3b93916f9fb58",
    3: "a22ae98c4b6cd64a8a8ad04928827796171b298a799acb0297a5681c0aec9794",
    4: "29582affe4991611e8d2a1f2b32cecce92b952d78919e616694a96e1b1f954f5",
    5: "461d0d7c4fd35c9a904a4cf41c682291ccddd553d116335bf6b98f5781e6924a",
    6: "7c756f6f042135a161eddd969e6b8cd8065bbe0bf5d8938d909c18ea6da8dfca",
    7: "1359a9528b26362a8647a11db23368734f6e449621902e58b515dd1d9107fae3",
}
EVENTS_SHA256 = {
    "NT-A/48": ("ad48fd86c82c453aa396828c6b2cedc6"
                "c6932afe59c1cd978a64f51a5685e270"),
    "NT-A/64": ("e6190b4b4d15262d8e7eddb11155bd24"
                "d4dd0d8cfc06bbafc36276aa6bb8d037"),
    "NT-A/128": ("9d44f6b5141a5f7311de8852e3cfc82b"
                 "ec709f18adec472886a676ff204cbbd0"),
    "NT-B/48": ("e3b0c44298fc1c149afbf4c8996fb924"
                "27ae41e4649b934ca495991b7852b855"),
    "NT-B/64": ("e3b0c44298fc1c149afbf4c8996fb924"
                "27ae41e4649b934ca495991b7852b855"),
    "NT-B/128": ("e3b0c44298fc1c149afbf4c8996fb924"
                 "27ae41e4649b934ca495991b7852b855"),
    "NT-C/48": ("b5a8d8154577d288e4f79518a1dec610"
                "d641c24a7d7597bbc170fabce5e7bdcc"),
    "NT-C/64": ("2e5ed11425c1867896ccd523da70b2d8"
                "57bdd82687baf5983637f285e244c153"),
    "NT-C/128": ("666082671f5706388ddfd27b64df3cc4"
                 "c4de916d524c02be6e44eed6e48fa4b3"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def events_digests(streaming) -> dict:
    """sha256 of each telescope's event list at each level, keyed
    ``"<telescope>/<level>"``."""
    out = {}
    for name, summary in sorted(streaming.items()):
        for level, events in sorted(summary.events.items()):
            text = "".join(
                f"{e.source},{e.source_length},{e.start!r},{e.end!r},"
                f"{e.packets},{e.unique_targets};" for e in events)
            out[f"{name}/{level}"] = _sha256(text.encode())
    return out


def digests(directory, result) -> tuple[str, dict, dict]:
    directory = Path(directory)
    observations = _sha256((directory / "observations.jsonl").read_bytes())
    day_files = {day: _sha256(path.read_bytes())
                 for day, path in list_day_files(directory)}
    return observations, day_files, events_digests(result.streaming)


def observe(directory, **kwargs):
    return run_scenario(CONFIG, stream_analysis=True, observe_dir=directory,
                        **kwargs)


GOLDEN = (OBSERVATIONS_SHA256, DAY_FILES_SHA256, EVENTS_SHA256)

#: A second pinned config: the default deployment timeline at seed 7 over
#: 20 days, whose ``observations.jsonl`` digest predates this file.
SEED7_CONFIG = ScenarioConfig(seed=7, duration_days=20, volume_scale=1e-4,
                              n_tail=20)
SEED7_OBSERVATIONS_SHA256 = ("2f8cdbb2e4ad72f3b550e9141adc6783"
                             "b3d994f040265a4055cb7b810e45ce89")


def test_digests(tmp_path):
    result = observe(tmp_path / "data")
    assert digests(tmp_path / "data", result) == GOLDEN


def test_seed7_observations_digest(tmp_path):
    """The pinned stream, and one day file per day that validates."""
    run_scenario(SEED7_CONFIG, observe_dir=tmp_path / "data")
    observations = (tmp_path / "data" / "observations.jsonl").read_bytes()
    assert _sha256(observations) == SEED7_OBSERVATIONS_SHA256
    records = read_observations(tmp_path / "data")  # validates each file
    assert [r["day"] for r in records] == list(range(20))
    assert len(list_day_files(tmp_path / "data")) == 20


def test_killed_and_resumed_digests(tmp_path):
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    with pytest.raises(SimulationAborted):
        observe(data, cache_dir=ckpt, checkpoint_every=3,
                abort_after_day=4)
    result = observe(data, cache_dir=ckpt, checkpoint_every=3)
    assert digests(data, result) == GOLDEN


@dataclass
class ColumnCarry:
    """The open-session columns that cache schema 4 pickled: every
    tracker held its sessions' targets as its own (hi, lo) columns."""

    k_hi: np.ndarray
    k_lo: np.ndarray
    start: np.ndarray
    last: np.ndarray
    packets: np.ndarray
    t_off: np.ndarray
    t_hi: np.ndarray
    t_lo: np.ndarray


def _carried_targets(analyzer, tracker):
    table = analyzer._targets
    sessions = tracker._open
    return table.hi[sessions.t_id], table.lo[sessions.t_id]


def _list_layout(analyzer) -> None:
    """Rewrite an analyzer's trackers into the per-session list layout
    that checkpoint protocol 3 stored (before checkpoints joined the
    store)."""
    for tracker in analyzer.trackers.values():
        t_hi, t_lo = _carried_targets(analyzer, tracker)
        state = tracker.__dict__
        sessions = state.pop("_open")
        del state["_targets"], state["_owns_targets"]
        keys = (sessions.k_hi.tolist()
                if tracker.source_length <= 64 else
                list(zip(sessions.k_hi.tolist(), sessions.k_lo.tolist())))
        off = sessions.t_off
        state.update(
            _keys=keys, _start=sessions.start.tolist(),
            _last=sessions.last.tolist(), _packets=sessions.packets.tolist(),
            _targets=[(t_hi[a:b], t_lo[a:b])
                      for a, b in zip(off[:-1], off[1:])])
    del analyzer.__dict__["_targets"]


def _column_layout(analyzer) -> None:
    """Rewrite an analyzer's trackers into the column carry of cache
    schema 4: no shared target table, each tracker's targets as (hi, lo)
    columns of its own."""
    for tracker in analyzer.trackers.values():
        t_hi, t_lo = _carried_targets(analyzer, tracker)
        state = tracker.__dict__
        sessions = state.pop("_open")
        del state["_targets"], state["_owns_targets"]
        state["_open"] = ColumnCarry(
            sessions.k_hi, sessions.k_lo, sessions.start, sessions.last,
            sessions.packets, sessions.t_off, t_hi, t_lo)
    del analyzer.__dict__["_targets"]


def _write_state(entry, streams, cursor) -> None:
    """Replace the checkpoint's state file and reseal the entry under
    the previous store version with valid checksums."""
    state = entry / "state.00003.pkl"
    state.write_bytes(pickle.dumps({"streams": streams,
                                    "observatory": cursor}))
    manifest = json.loads((entry / "manifest.json").read_text())
    del manifest["manifest_sha256"]
    manifest["files"][state.name] = _sha256(state.read_bytes())
    manifest["cache_schema"] = CACHE_SCHEMA_VERSION - 1
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    (entry / "manifest.json").write_text(json.dumps(manifest))


def test_previous_layout_checkpoint_is_refused(tmp_path):
    """Checkpoints in the old layouts, sealed under an older store version
    with valid checksums, are ignored rather than unpickled into the new
    code: per-session tracker lists with seen sources as Python sets
    (protocol 3), and per-tracker (hi, lo) target columns (schema 4).
    The resume then runs from day zero and still reproduces the serial
    run byte for byte."""
    data, ckpt = tmp_path / "data", tmp_path / "ckpt"
    with pytest.raises(SimulationAborted):
        observe(data, cache_dir=ckpt, checkpoint_every=3,
                abort_after_day=4)
    store = ScenarioCache(ckpt)
    entry = store.entry_dir(CONFIG, "observe")
    checkpoint = store.read(CONFIG, "observe")
    assert any(tracker.open_sessions
               for analyzer in checkpoint.streams.values()
               for tracker in analyzer.trackers.values())

    columns = copy.deepcopy(checkpoint.streams)
    for analyzer in columns.values():
        _column_layout(analyzer)
    assert any(len(tracker._open.t_hi)
               for analyzer in columns.values()
               for tracker in analyzer.trackers.values())
    _write_state(entry, columns, checkpoint.observatory)
    assert store.read(CONFIG, "observe") is None

    for analyzer in checkpoint.streams.values():
        _list_layout(analyzer)
    cursor = checkpoint.observatory
    cursor.seen_sources = {
        name: {level: as_sets(keys, level) for level, keys in levels.items()}
        for name, levels in cursor.seen_sources.items()}
    assert any(cursor.seen_sources["NT-A"].values())
    _write_state(entry, checkpoint.streams, cursor)
    assert store.read(CONFIG, "observe") is None
    result = observe(data, cache_dir=ckpt, checkpoint_every=3)
    assert digests(data, result) == GOLDEN
