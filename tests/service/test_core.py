"""Concurrency and lifecycle tests for the transport-agnostic service core.

The dedupe contract under test is the acceptance criterion: N clients
posting one config concurrently produce **exactly one** underlying run —
one ``run_end`` in the journal, ``scenario.cache.stores == 1`` in the
merged telemetry — and every client reads byte-identical results.  A
killed worker's checkpoint is a mid-run entry of the run's own key: the
next submit is cold, resumes it, and serves an uninterrupted run's bytes.
"""

import errno
import io
import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.exec import cache as cache_module
from repro.exec.cache import ScenarioCache
from repro.obs import Journal, read_journal, use_journal
from repro.service import (
    AdmissionFull,
    ResultUnavailable,
    ScenarioService,
    ServiceClosed,
    UnknownRun,
)
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario

from tests.service.conftest import TINY, assert_results_identical

CLIENTS = 16


def _submit_concurrently(service, configs):
    """Submit each config from its own thread through one barrier, so all
    POSTs genuinely race; returns [(run, outcome), ...] in thread order."""
    barrier = threading.Barrier(len(configs))
    outcomes = [None] * len(configs)

    def post(i, config):
        barrier.wait()
        try:
            outcomes[i] = service.submit(config)
        except Exception as error:  # noqa: BLE001 — surfaced by the test
            outcomes[i] = error

    threads = [threading.Thread(target=post, args=(i, c))
               for i, c in enumerate(configs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


class TestDedupe:
    def test_16_concurrent_identical_posts_run_exactly_once(
            self, tmp_path, tiny_direct):
        with ScenarioService(tmp_path / "cache", jobs=2) as service:
            outcomes = _submit_concurrently(service, [TINY] * CLIENTS)
            by_kind = sorted(outcome for _, outcome in outcomes)
            assert by_kind.count("created") == 1
            assert by_kind.count("deduped") == CLIENTS - 1

            run_ids = {run.run_id for run, _ in outcomes}
            assert len(run_ids) == 1  # every client shares the run
            run_id = run_ids.pop()
            run = service.wait(run_id, timeout=120)
            assert run.status == "done"

            # Exactly one underlying execution: one run_end in the
            # journal, one cache store in the merged worker telemetry.
            records = read_journal(run.journal_path)
            assert sum(r["type"] == "run_end" for r in records) == 1
            assert sum(r["type"] == "run_manifest" for r in records) == 1
            counters = service.metrics_snapshot()["counters"]
            assert counters["scenario.cache.stores"] == 1
            assert counters["service.cold_runs"] == 1
            assert counters["service.deduped"] == CLIENTS - 1
            assert counters["service.requests"] == CLIENTS

            # Every client fetches byte-identical results — identical to
            # a direct run_scenario(config) (the cold byte-equality
            # acceptance criterion).
            cache = ScenarioCache(tmp_path / "cache")
            for _ in range(3):
                loaded = cache.load(TINY)
                assert loaded is not None
                assert_results_identical(tiny_direct, loaded)

    def test_distinct_configs_run_independently(self, tmp_path):
        other = ScenarioConfig(seed=4, duration_days=3,
                               volume_scale=1e-5, n_tail=2)
        with ScenarioService(tmp_path / "cache", jobs=2) as service:
            outcomes = _submit_concurrently(service, [TINY, other])
            assert [outcome for _, outcome in outcomes] == \
                ["created", "created"]
            runs = [run for run, _ in outcomes]
            assert runs[0].run_id != runs[1].run_id
            for run in runs:
                service.wait(run.run_id, timeout=120)
                assert run.status == "done"
                records = read_journal(run.journal_path)
                assert sum(r["type"] == "run_end" for r in records) == 1
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.cold_runs"] == 2
            assert counters["scenario.cache.stores"] == 2


class TestWarmTier:
    def test_warm_config_served_straight_from_cache(self, tmp_path,
                                                    tiny_direct):
        cache_dir = tmp_path / "cache"
        with ScenarioService(cache_dir, jobs=1) as service:
            run, _ = service.submit(TINY)
            service.wait(run.run_id, timeout=120)

        # A fresh service over the same cache never simulates TINY again.
        with ScenarioService(cache_dir, jobs=1) as service:
            run, outcome = service.submit(TINY)
            assert outcome == "warm"
            assert run.status == "done"
            assert run.warm
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.warm_hits"] == 1
            assert "service.cold_runs" not in counters
            # Warm byte-equality: the served entry is the same bytes.
            loaded = ScenarioCache(cache_dir).load(TINY)
            assert_results_identical(tiny_direct, loaded)

    def test_resubmit_after_completion_dedupes_in_registry(self, tmp_path):
        with ScenarioService(tmp_path / "cache", jobs=1) as service:
            run, outcome = service.submit(TINY)
            assert outcome == "created"
            service.wait(run.run_id, timeout=120)
            again, outcome = service.submit(TINY)
            assert outcome == "deduped"
            assert again is run


class TestAdmissionAndFailure:
    def test_bounded_admission_queue_rejects_overflow(self, tmp_path):
        other = ScenarioConfig(seed=5, duration_days=3,
                               volume_scale=1e-5, n_tail=2)
        with ScenarioService(tmp_path / "cache", jobs=1,
                             queue_limit=1) as service:
            run, outcome = service.submit(TINY)
            assert outcome == "created"
            with pytest.raises(AdmissionFull):
                service.submit(other)
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.rejected"] == 1
            service.wait(run.run_id, timeout=120)
            # Capacity freed: the previously rejected config now admits.
            _, outcome = service.submit(other)
            assert outcome == "created"

    def test_failed_run_reports_and_allows_retry(self, tmp_path):
        broken = ScenarioConfig(seed=3, duration_days=3, volume_scale=1e-5,
                                n_tail=2, nta_prefix="not-a-prefix")
        with ScenarioService(tmp_path / "cache", jobs=1) as service:
            run, outcome = service.submit(broken)
            assert outcome == "created"
            service.wait(run.run_id, timeout=120)
            assert run.status == "failed"
            assert run.error
            with pytest.raises(ResultUnavailable):
                service.result_entry(run.run_id)
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.failed"] == 1
            # A failed run does not poison its config hash: retry admits.
            _retry, outcome = service.submit(broken)
            assert outcome == "created"

    def test_queued_retry_of_a_failed_run_reads_pending(self, tmp_path):
        """A retry queued behind a running run reads ``pending``: the
        failed attempt's journal, at the retry's own journal path, is
        cleared when the retry is registered, so it cannot pass for the
        retry's progress."""
        broken = ScenarioConfig(seed=3, duration_days=3, volume_scale=1e-5,
                                n_tail=2, nta_prefix="not-a-prefix")
        # About two seconds of simulation: long enough to hold the one
        # worker while the retry is queued behind it.
        blocker = ScenarioConfig(seed=7, duration_days=100,
                                 volume_scale=5e-4, n_tail=2)
        with ScenarioService(tmp_path / "cache", jobs=1) as service:
            failed, _ = service.submit(broken)
            service.wait(failed.run_id, timeout=120)
            assert failed.status == "failed"
            assert os.path.getsize(failed.journal_path) > 0
            busy, _ = service.submit(blocker)
            deadline = time.monotonic() + 60
            while service.status(busy.run_id)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            retry, outcome = service.submit(broken)
            assert outcome == "created"
            assert retry.journal_path == failed.journal_path
            assert service.status(retry.run_id)["state"] == "pending"
            assert busy.status == "pending"  # the retry was really queued
            service.wait(retry.run_id, timeout=120)
        assert retry.status == "failed"

    def test_result_unavailable_while_pending(self, tmp_path):
        with ScenarioService(tmp_path / "cache", jobs=1) as service:
            run, _ = service.submit(TINY)
            if run.status == "pending":
                with pytest.raises(ResultUnavailable):
                    service.result_entry(run.run_id)
            service.wait(run.run_id, timeout=120)
            assert service.result_entry(run.run_id).is_dir()

    def test_unknown_run_raises(self, tmp_path):
        with ScenarioService(tmp_path / "cache") as service:
            with pytest.raises(UnknownRun):
                service.status("no-such-run")
            with pytest.raises(UnknownRun):
                service.result_manifest("no-such-run")


class TestShutdown:
    def test_graceful_close_drains_in_flight_runs(self, tmp_path):
        service = ScenarioService(tmp_path / "cache", jobs=1)
        run, outcome = service.submit(TINY)
        assert outcome == "created"
        service.close(drain=True)
        assert run.done_event.is_set()
        assert run.status == "done"
        assert service.result_entry(run.run_id).is_dir()

    def test_close_without_drain_fails_the_cancelled_runs(self, tmp_path):
        """``close(drain=False)`` cancels the runs still queued: each ends
        failed and wakes its waiters, so ``wait()`` without a timeout
        returns.  The running ones finish in the abandoned pool."""
        configs = [ScenarioConfig(seed=seed, duration_days=60,
                                  volume_scale=1e-4, n_tail=2)
                   for seed in range(10, 14)]
        service = ScenarioService(tmp_path / "cache", jobs=1)
        runs = [service.submit(config)[0] for config in configs]
        service.close(drain=False)
        # The pool cancels from its manager thread, after close returns.
        for run in runs:
            assert run.done_event.wait(120), run.run_id
        cancelled = [run for run in runs if run.future.cancelled()]
        assert cancelled
        for run in cancelled:
            assert run.status == "failed"
            assert run.error.startswith("CancelledError")
            assert service.wait(run.run_id) is run
        assert all(view["state"] != "pending" for view in service.runs())

    def test_submit_after_close_refused(self, tmp_path):
        service = ScenarioService(tmp_path / "cache", jobs=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(TINY)


#: Six days at cadence two: a kill after day 3 leaves the day-4
#: checkpoint, so a resume simulates the last two days only.
RESUMABLE = ScenarioConfig(seed=3, duration_days=6, volume_scale=1e-5,
                           n_tail=2)
CADENCE = 2


def _leave_checkpoint(cache_dir, config=RESUMABLE):
    """A mid-run entry, as a worker killed after day 3 leaves it."""
    with pytest.raises(SimulationAborted):
        run_scenario(config, cache_dir=cache_dir, checkpoint_every=CADENCE,
                     abort_after_day=3)


def _payloads(entry):
    """Every payload of an entry by file name, as bytes.  An ``.npz``
    compares whole: numpy stamps each zip member with the fixed date
    1980-01-01, so two writes of the same arrays are the same bytes."""
    return {name: (entry / name).read_bytes()
            for name in json.loads(
                (entry / "manifest.json").read_text())["files"]}


class TestCheckpointResume:
    def test_killed_run_resumes_cold_and_serves_uninterrupted_bytes(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        _leave_checkpoint(cache_dir)
        assert not ScenarioCache(cache_dir).probe(RESUMABLE)
        with ScenarioService(cache_dir, jobs=1,
                             checkpoint_every=CADENCE) as service:
            run, outcome = service.submit(RESUMABLE)
            assert outcome == "created" and not run.warm
            service.wait(run.run_id, timeout=120)
            assert run.status == "done"
            snapshot = service.metrics_snapshot()
            assert snapshot["timings"]["scenario.run_day"]["count"] == 2
            served = service.result_entry(run.run_id)
            journal = Path(run.journal_path).read_text()

        twin_dir = tmp_path / "twin"
        buffer = io.StringIO()
        with use_journal(Journal(buffer)):
            run_scenario(RESUMABLE, cache_dir=twin_dir,
                         checkpoint_every=CADENCE)
        twin = ScenarioCache(twin_dir).entry_dir(RESUMABLE)
        assert served.name == twin.name
        assert _payloads(served) == _payloads(twin)
        assert (journal.replace(str(cache_dir), "STORE")
                == buffer.getvalue().replace(str(twin_dir), "STORE"))

    def test_sweep_keeps_the_in_flight_checkpoint(self, tmp_path):
        cache_dir = tmp_path / "cache"
        other = ScenarioConfig(seed=4, duration_days=6, volume_scale=1e-5,
                               n_tail=2)
        _leave_checkpoint(cache_dir)
        _leave_checkpoint(cache_dir, other)
        store = ScenarioCache(cache_dir)
        with ScenarioService(cache_dir, jobs=1, max_cache_bytes=1,
                             checkpoint_every=CADENCE) as service:
            run, outcome = service.submit(RESUMABLE)
            assert outcome == "created"
            assert service.sweep_cache() == [store.key(other)]
            assert store.entry_dir(RESUMABLE).is_dir()
            service.wait(run.run_id, timeout=120)
            assert run.status == "done"
            assert store.probe(RESUMABLE)


class TestFullDisk:
    def test_store_out_of_space_fails_the_run(self, tmp_path, monkeypatch):
        """The worker's store raises ENOSPC: the run is marked failed,
        and no temp file is left in the cache."""
        def full(path, payload):
            path.write_bytes(b"partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        # Workers fork when the service starts, so they inherit the patch.
        monkeypatch.setattr(cache_module, "_write_file", full)
        with ScenarioService(tmp_path / "cache", jobs=1) as service:
            run, _ = service.submit(TINY)
            service.wait(run.run_id, timeout=120)
            assert run.status == "failed"
            assert "No space left" in run.error
            assert service.metrics_snapshot()["counters"][
                "service.failed"] == 1
        assert [p for p in (tmp_path / "cache").rglob("*")
                if p.name.endswith(".tmp")] == []
