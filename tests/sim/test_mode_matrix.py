"""The mode matrix: every run mode in every run-store state yields one
set of outputs.

One small honeypot-heavy config runs in each mode — ``batch``,
``stream`` and ``observe`` — with no store, into a cold store, from the
warm store it left, and killed at a seeded random day and resumed from
its checkpoint.  Every case must reproduce its mode's pinned digests:
the records, the ``origin`` columns, the dispatch counters, the journal
(with the store's own ``cache_store``, ``cache_hit`` and ``checkpoint``
records set aside), the stream summaries and the observatory directory.
The cold store entry's record and ``origin`` files are pinned byte for
byte.
The digests were computed by the code before checkpoints joined the run
store, from runs with no store.  A warm run never simulates: its journal
is the manifest and one ``cache_hit``.

The service row runs each mode through ``POST /runs``: cold on two
workers, deduped, then warm from a restarted service over the same store.
What the service serves and writes must reproduce the same pinned
digests.

The last test drives the report path through the CLI — ``experiment all
--jobs 2 --cache`` cold, then warm — and checks the store's journal
records.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.tpot import DnatGateway
from repro.core.twinklenet import Twinklenet
from repro.exec.cache import ScenarioCache
from repro.obs import Journal, MetricsRegistry, use_journal, use_registry
from repro.service import ScenarioServer, ScenarioService
from repro.service.client import ServiceClient
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario

CONFIG = ScenarioConfig(seed=31, duration_days=12, volume_scale=1e-4,
                        n_tail=20, phase1_day=2, phase2_day=4,
                        phase3_day=6, specific_start_day=8,
                        tpot_hitlist_offset_days=3, tpot_tls_offset_days=5)
CADENCE = 3
#: The kill lands after at least one checkpoint and before the last day.
KILL_AFTER = random.Random(30).randrange(CADENCE, CONFIG.duration_days - 1)

COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
           "proto", "sport", "dport")
STORE_RECORDS = ("cache_store", "cache_hit", "checkpoint")

MODES = ("batch", "stream", "observe")

#: Stream and observe runs share every output but the directory.
STREAM = {
    "records": ("7470da0916c3a3a8c10098ca87a89060"
                "10806e40cd955e8b032fa4ba23bd3cf3"),
    "origin": ("e3b0c44298fc1c149afbf4c8996fb924"
               "27ae41e4649b934ca495991b7852b855"),
    "journal": ("a85569da556fe4cb7d56f3cab845e796"
                "0e90c3238c3f4ad20a19befb570103ce"),
    "streams": ("9618df011ad4c8ed4070813bb24da057"
                "c80274ed7542f3933d99e89c85f73b57"),
    "counters": [11179, 0, 1266, 5, 0],
    "observe": None,
}

PINNED = {
    "batch": {
        "records": ("790ae6a7c57ec65a7d7f119f5d0a63bb"
                    "df98e73925c60c851139156d793aed97"),
        "origin": ("19b34c04a876635a87a2dcc75432120f"
                   "5c31acf87f0568b0cfd948d2019f41c4"),
        "journal": ("07a057c784d82d7d3658532b871368de"
                    "4dbb5cbc0bf45ae0f72474000b45b22e"),
        "streams": ("e3b0c44298fc1c149afbf4c8996fb924"
                    "27ae41e4649b934ca495991b7852b855"),
        "counters": [11179, 0, 1266, 5, 0],
        "observe": None,
    },
    "stream": STREAM,
    "observe": {
        **STREAM,
        "observe": {
            "index.jsonl":
                ("16189d8faa1e2a8b445139d263ca6446"
                 "b9db4af19bddbea1479cf676783263f3"),
            "observations.jsonl":
                ("eb58d295452dfe87d151e2fced727e24"
                 "ae57d0cf5a60ed6da3c6183d8d564473"),
            "observatory.json":
                ("29ef4e49c1118218c5d5bbc07f36be67"
                 "3da0f61555a4177fc7dd96d713a45f7b"),
            "observer-00000.json":
                ("809e48c68ba9eaeefb1b79b047255234"
                 "7918fb5b58866a1397668d6c58e24574"),
            "observer-00001.json":
                ("f873acfa0d817bd30fa78c84abacbf7d"
                 "fccbfb70a6be24f8712e56513d644d07"),
            "observer-00002.json":
                ("dae1aecbb86e1d27315222e68bda29c3"
                 "d3a82a86a29a0c7f1193b76783f260b5"),
            "observer-00003.json":
                ("c6f12ca2b2b0344261ae85286f8757e3"
                 "c22ca2d0aed9a62da15e2dda3c80a482"),
            "observer-00004.json":
                ("64a334544f68fc54fb54809d4bf21f34"
                 "27e0628adc0cf6184b65892529d80159"),
            "observer-00005.json":
                ("78389af18782bca8644d3ffa154145a7"
                 "8219c9d06d222930943453f72b58b847"),
            "observer-00006.json":
                ("d52a1320e60704e1c817838166d5266f"
                 "b49c37886aacb67b56c11bc2381cd60a"),
            "observer-00007.json":
                ("2026ef548598ac66d3522425410b0ae0"
                 "926a6680f6bad7fd62538f7627ba9f51"),
            "observer-00008.json":
                ("1daa6f201e85b298f4290fb23b27f4ca"
                 "4d6acf8d24892934416a31f6dddb4117"),
            "observer-00009.json":
                ("163a7bef4d9351fc7195e30e6893d910"
                 "daa1df695f7a55803ed229dd77dceabd"),
            "observer-00010.json":
                ("1aa22c34b2b06667490a9876ab639ba2"
                 "9edbbf61a3bacc1bc088a829a393c7c2"),
            "observer-00011.json":
                ("e8dd5c6ffb11cec3551532c7805c9469"
                 "9f0b95f4c6e75374fab868114390b02f"),
        },
    },
}

#: The cold store entry's record and ``origin`` files.  numpy dates every
#: zip member 1980-01-01, so their bytes depend only on the arrays; a
#: numpy that stamped the write time would fail here.
EMPTY_NPZ = ("f89c5866ba59d2819a941494cbf1378f"
             "b4d319a07308fe8147c46f41f54e4340")
STREAM_FILES = {"nta.npz": EMPTY_NPZ, "ntb.npz": EMPTY_NPZ,
                "ntc.npz": EMPTY_NPZ}
STORE_FILES = {
    "batch": {
        "nta.npz": ("a7e6f0897f58ee50e8ab28e2b24effb5"
                    "83de97e9ecc75ecdb9a8244a4d8a4f34"),
        "ntb.npz": EMPTY_NPZ,
        "ntc.npz": ("eb98e54c883a07daad4880401ae04f35"
                    "41d88da90c5960745421fad9a9f6f4f6"),
        "origin-NT-A.npy": ("a39bede5dc05ab8c2bcab4e49e97729a"
                            "39395852ab3b485512499ff3c86e83db"),
        "origin-NT-B.npy": ("040ce28f7590a34af85fbdb8115c90c9"
                            "a0529a73b047533889c859c2f2c6e627"),
        "origin-NT-C.npy": ("988ad3c22414b288b9ad6deea78fe43a"
                            "5374f2c9d6f25dba4341c87def519373"),
    },
    "stream": STREAM_FILES,
    "observe": STREAM_FILES,
}


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(result, journal: str, observe_dir) -> dict:
    """The outputs of one run, each as a digest (counters as numbers)."""
    records = hashlib.sha256()
    for name, telescope in result.telescopes().items():
        records.update(f"{name}:{len(telescope)};".encode())
        for column in COLUMNS:
            records.update(np.ascontiguousarray(getattr(telescope, column)))
    origin = hashlib.sha256()
    for name, column in sorted(result.truth.items()):
        origin.update(f"{name}:{len(column)};".encode())
        origin.update(np.ascontiguousarray(column))
    c = result.scenario.counters
    lines = [line for line in journal.splitlines()
             if json.loads(line)["type"] not in STORE_RECORDS]
    streams = hashlib.sha256()
    for name, summary in sorted((result.streaming or {}).items()):
        streams.update(f"{name}:{summary.records_in};".encode())
        for level, events in sorted(summary.events.items()):
            streams.update("".join(
                f"{level},{e.source},{e.source_length},{e.start!r},"
                f"{e.end!r},{e.packets},{e.unique_targets};"
                for e in events).encode())
    observed = ({path.name: _sha(path.read_bytes())
                 for path in sorted(Path(observe_dir).iterdir())}
                if observe_dir is not None else None)
    return {
        "records": records.hexdigest(),
        "origin": origin.hexdigest(),
        "counters": [c.nta, c.ntb, c.ntc, c.live_dropped, c.unrouted],
        "journal": _sha("\n".join(lines).encode()),
        "streams": streams.hexdigest(),
        "observe": observed,
    }


def run(mode, tmp_path, label, **kwargs):
    """One journaled run of :data:`CONFIG` in ``mode``; returns
    ``(result, journal text, observe dir, days simulated)``."""
    observe_dir = tmp_path / f"observe-{label}" if mode == "observe" else None
    buffer = io.StringIO()
    registry = MetricsRegistry()
    with use_registry(registry), use_journal(Journal(buffer)):
        result = run_scenario(CONFIG, stream_analysis=mode == "stream",
                              observe_dir=observe_dir, **kwargs)
    days = registry.snapshot()["timings"].get(
        "scenario.run_day", {}).get("count", 0)
    return result, buffer.getvalue(), observe_dir, days


def _types(journal: str) -> list[str]:
    return [json.loads(line)["type"] for line in journal.splitlines()]


@pytest.mark.parametrize("mode", MODES)
class TestModeMatrix:
    def test_no_store(self, mode, tmp_path):
        result, journal, observe_dir, days = run(mode, tmp_path, "plain")
        assert days == CONFIG.duration_days
        assert digests(result, journal, observe_dir) == PINNED[mode]

    def test_cold_then_warm_store(self, mode, tmp_path):
        store = tmp_path / "store"
        cold, cold_journal, cold_dir, days = run(mode, tmp_path, "cold",
                                                 cache_dir=store)
        assert days == CONFIG.duration_days
        assert _types(cold_journal)[-1] == "cache_store"
        assert "cache_hit" not in _types(cold_journal)
        assert digests(cold, cold_journal, cold_dir) == PINNED[mode]
        entry = ScenarioCache(store).entry_dir(CONFIG, mode)
        assert {path.name: _sha(path.read_bytes())
                for path in sorted(entry.iterdir())
                if path.suffix in (".npz", ".npy")} == STORE_FILES[mode]

        # Served from the store into a fresh observe directory: nothing
        # is simulated, and every output matches but the journal, which
        # is the manifest and the hit.
        warm, warm_journal, warm_dir, days = run(mode, tmp_path, "warm",
                                                 cache_dir=store)
        assert days == 0
        assert _types(warm_journal) == ["run_manifest", "cache_hit"]
        assert (warm_journal.splitlines()[0]
                == cold_journal.splitlines()[0])
        expect = dict(PINNED[mode])
        expect["journal"] = _sha(warm_journal.splitlines()[0].encode())
        assert digests(warm, warm_journal, warm_dir) == expect

    def test_kill_and_resume(self, mode, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SimulationAborted):
            run(mode, tmp_path, "resumed", cache_dir=store,
                checkpoint_every=CADENCE, abort_after_day=KILL_AFTER)
        result, journal, observe_dir, days = run(
            mode, tmp_path, "resumed", cache_dir=store,
            checkpoint_every=CADENCE)
        resumed_at = (KILL_AFTER + 1) // CADENCE * CADENCE
        assert days == CONFIG.duration_days - resumed_at
        assert "checkpoint" in _types(journal)
        assert digests(result, journal, observe_dir) == PINNED[mode]

    def test_service_cold_deduped_then_warm(self, mode, tmp_path):
        """One mode through the service: the cold run's progress stream
        is the whole journal in order, a second POST joins it, a restarted
        service answers warm, and the fetched results, the run's journal
        and an observe run's directory (``journals/<run id>/``) reproduce
        the pinned digests; the served day files are the pinned ones."""
        store = tmp_path / "store"
        server = ScenarioServer(ScenarioService(store, jobs=2),
                                port=0).start()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            view = client.submit(CONFIG, mode=mode)
            assert view["outcome"] == "created"
            run_id = view["run_id"]
            assert run_id.endswith(f"-{mode}")
            types = [r["type"] for r in client.stream_progress(run_id)]
            assert types[0] == "run_manifest"
            assert types.count("day") == CONFIG.duration_days
            assert types.count("run_end") == 1
            assert types[-1] == "cache_store"
            assert client.status(run_id)["state"] == "done"
            assert client.submit(CONFIG, mode=mode)["outcome"] == "deduped"
            journal = Path(
                server.service.get(run_id).journal_path).read_text()
            observe_dir = (server.service.journals_dir / run_id
                           if mode == "observe" else None)
            cold = client.fetch_result(run_id, CONFIG, tmp_path / "cold")
            assert digests(cold, journal, observe_dir) == PINNED[mode]
        finally:
            server.stop()

        server = ScenarioServer(ScenarioService(store, jobs=1),
                                port=0).start()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            view = client.submit(CONFIG, mode=mode)
            assert (view["run_id"], view["outcome"]) == (run_id, "warm")
            counters = client.metrics()["counters"]
            assert counters["service.warm_hits"] == 1
            assert "service.cold_runs" not in counters
            warm = client.fetch_result(run_id, CONFIG, tmp_path / "warm")
            assert digests(warm, journal, observe_dir) == PINNED[mode]
            files = client.result_manifest(run_id)["manifest"]["files"]
            pinned = PINNED[mode]["observe"] or {}
            assert ({n: sha for n, sha in files.items()
                     if n.startswith("observer-")}
                    == {n: sha for n, sha in pinned.items()
                        if n.startswith("observer-")})
        finally:
            server.stop()


def test_day_loop_never_replies(tmp_path, monkeypatch):
    """NT-A captures and answers nothing: with every honeypot entry point
    raising, a batch run still reproduces the pinned outputs, and both
    kinds of honeyprefix were deployed and probed."""
    def refuse(*args, **kwargs):
        raise AssertionError("the day loop handed a packet to a honeypot")

    for owner in (Twinklenet, DnatGateway):
        monkeypatch.setattr(owner, "handle", refuse)
        monkeypatch.setattr(owner, "handle_batch", refuse)
    result, journal, observe_dir, _ = run("batch", tmp_path, "silent")
    assert digests(result, journal, observe_dir) == PINNED["batch"]
    probed = {bool(hp.config.tpot)
              for hp in result.honeyprefixes.values()
              if hp.responsive and result.nta.mask_dst_in(hp.prefix).any()}
    assert probed == {False, True}


def test_experiment_all_cold_store_then_warm_hit(tmp_path, monkeypatch,
                                                 capsys):
    """``experiment all --jobs 2 --cache``: the cold run stores and never
    hits, the warm run hits and never simulates a day, and both render
    the report a serial run with no store renders, byte for byte."""
    monkeypatch.chdir(tmp_path)
    serial = ["experiment", "all",
              "--days", "30", "--scale", "1e-4", "--tail", "20"]
    command = [*serial, "--jobs", "2", "--cache", "store"]
    reports = {}
    for label, argv in (("serial", serial), ("cold", command),
                        ("warm", command)):
        assert main([*argv, "--journal", f"{label}.jsonl",
                     "--output", f"report-{label}.txt"]) == 0
        capsys.readouterr()
        reports[label] = (tmp_path / f"report-{label}.txt").read_bytes()
    journals = {label: (tmp_path / f"{label}.jsonl").read_text()
                for label in reports}
    assert '"type": "cache_' not in journals["serial"]
    assert '"type": "cache_store"' in journals["cold"]
    assert '"type": "cache_hit"' in journals["warm"]
    assert '"type": "cache_hit"' not in journals["cold"]
    assert '"type": "day"' not in journals["warm"]
    assert reports["cold"] == reports["serial"]
    assert reports["warm"] == reports["serial"]
