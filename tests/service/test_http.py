"""HTTP-layer tests: a real TCP server, real concurrent clients.

The end-to-end acceptance path lives here: POST a config over HTTP from
many threads at once, stream progress as SSE, download the artifacts,
and verify the reconstructed result is byte-identical to a direct
``run_scenario`` — cold and warm.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.exec.cache import ScenarioCache
from repro.service import ScenarioServer, ScenarioService
from repro.service.client import ServiceClient, ServiceClientError
from repro.sim import ScenarioConfig

from tests.service.conftest import TINY, assert_results_identical

HTTP_CLIENTS = 16


@pytest.fixture()
def server(tmp_path):
    srv = ScenarioServer(
        ScenarioService(tmp_path / "cache", jobs=2), port=0).start()
    try:
        yield srv
    finally:
        srv.stop()


@pytest.fixture()
def client(server):
    return ServiceClient("127.0.0.1", server.port)


class TestLifecycle:
    def test_cold_run_end_to_end_byte_equality(self, server, client,
                                               tmp_path, tiny_direct):
        assert client.healthz()

        # 16 concurrent HTTP POSTs of the same config → one run.
        barrier = threading.Barrier(HTTP_CLIENTS)
        views = [None] * HTTP_CLIENTS

        def post(i):
            barrier.wait()
            views[i] = client.submit(TINY)

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(HTTP_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        run_ids = {view["run_id"] for view in views}
        assert len(run_ids) == 1
        outcomes = sorted(view["outcome"] for view in views)
        assert outcomes.count("created") == 1
        assert outcomes.count("deduped") == HTTP_CLIENTS - 1

        run_id = run_ids.pop()
        done = client.wait(run_id, timeout=120)
        assert done["state"] == "done"
        assert done["packets"] > 0

        # Progress stream: manifest first, daily records, the run's end,
        # and the trailing cache_store — the full journal, in order.
        records = list(client.stream_progress(run_id))
        types = [record["type"] for record in records]
        assert types[0] == "run_manifest"
        assert types.count("day") == TINY.duration_days
        assert types.count("run_end") == 1
        assert types[-1] == "cache_store"
        assert records[0]["config_hash"] == done["config_hash"]

        # Byte-equality, cold: download + client-side verification.
        fetched = client.fetch_result(run_id, TINY, tmp_path / "dl")
        assert_results_identical(tiny_direct, fetched)

        counters = client.metrics()["counters"]
        assert counters["scenario.cache.stores"] == 1
        assert counters["service.requests"] == HTTP_CLIENTS

    def test_cold_post_reads_to_eof(self, server):
        """A cold POST's connection closes as soon as its 202 is sent: no
        pool worker is forked while the request socket is open, so none
        can inherit it and hold it open for the run's lifetime."""
        body = json.dumps(asdict(TINY)).encode()
        request = (b"POST /runs HTTP/1.1\r\nHost: localhost\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(body)) + body
        started = time.monotonic()
        response = b""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=2.0) as sock:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                response += chunk
        assert time.monotonic() - started < 2.0
        assert response.startswith(b"HTTP/1.1 202")
        assert response.endswith(b"\n")

    def test_warm_post_served_from_cache(self, tmp_path, tiny_direct):
        cache_dir = tmp_path / "cache"
        with ScenarioService(cache_dir, jobs=1) as service:
            run, _ = service.submit(TINY)
            service.wait(run.run_id, timeout=120)

        warm_server = ScenarioServer(
            ScenarioService(cache_dir, jobs=1), port=0).start()
        try:
            warm_client = ServiceClient("127.0.0.1", warm_server.port)
            view = warm_client.submit(TINY)
            assert view["outcome"] == "warm"
            assert view["state"] == "done"
            fetched = warm_client.fetch_result(
                view["run_id"], TINY, tmp_path / "dl-warm")
            assert_results_identical(tiny_direct, fetched)
            counters = warm_client.metrics()["counters"]
            assert counters["service.warm_hits"] == 1
        finally:
            warm_server.stop()

    def test_pin_roundtrip(self, server, client):
        view = client.submit(TINY)
        run_id = view["run_id"]
        client.wait(run_id, timeout=120)
        client.pin(run_id)
        assert run_id in server.service.cache.pinned()
        client.unpin(run_id)
        assert run_id not in server.service.cache.pinned()

    def test_ops_surfaces(self, server, client):
        view = client.submit(TINY)
        client.wait(view["run_id"], timeout=120)
        snapshot = client.metrics()
        assert "counters" in snapshot
        assert snapshot["counters"]["service.requests"] >= 1
        spans = client.traces()
        assert any(span.get("name") == "service.submit" for span in spans)


class TestErrors:
    def test_unknown_run_is_404(self, client):
        with pytest.raises(ServiceClientError) as info:
            client.status("no-such-run")
        assert info.value.status == 404
        with pytest.raises(ServiceClientError) as info:
            client.result_manifest("no-such-run")
        assert info.value.status == 404
        with pytest.raises(ServiceClientError) as info:
            list(client.stream_progress("no-such-run"))
        assert info.value.status == 404

    def test_unknown_config_field_is_400(self, client):
        # The second knob is a field ScenarioConfig has since dropped; a
        # client still sending it must be told, not silently run the
        # default scenario.  (Spelled in parts so the removed name only
        # appears where it is asserted absent.)
        for knob in ("no_such_knob", "use_batch_" + "path"):
            with pytest.raises(ServiceClientError) as info:
                client.submit({"seed": 1, knob: True})
            assert info.value.status == 400
            assert knob in str(info.value)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as info:
            client._json("GET", "/nope")
        assert info.value.status == 404

    def test_unknown_artifact_is_404(self, client):
        view = client.submit(TINY)
        client.wait(view["run_id"], timeout=120)
        with pytest.raises(ServiceClientError) as info:
            client._request(
                "GET", f"/runs/{view['run_id']}/result/evil.npz")
        assert info.value.status == 404


class TestObservatory:
    """An observe run's live day tail and its day files, under its run."""

    def test_unconfigured_observatory_is_404(self, server, client):
        """Only an observe run has an observatory to stream."""
        view = client.submit(TINY)
        with pytest.raises(ServiceClientError) as info:
            list(client.stream_observations(view["run_id"]))
        assert info.value.status == 404
        with pytest.raises(ServiceClientError) as info:
            list(client.stream_observations("no-such-run"))
        assert info.value.status == 404
        client.wait(view["run_id"], timeout=120)

    def test_unknown_mode_is_400(self, client):
        for mode in ("observatory", "", 3):
            with pytest.raises(ServiceClientError) as info:
                client.submit(TINY, mode=mode)
            assert info.value.status == 400
            assert "mode must be one of" in str(info.value)

    def test_live_stream_concatenates_to_day_files(self, server, client):
        """Acceptance: SSE attached to a *live* observe run yields exactly
        the records of the day files it writes beside its journal, and
        the entry serves those day files under manifest checksums."""
        import hashlib

        from repro.observatory.index import read_observations

        view = client.submit(TINY, mode="observe")
        assert view["outcome"] == "created"
        run_id = view["run_id"]
        assert run_id.endswith("-observe")
        streamed = list(client.stream_observations(run_id))
        assert client.status(run_id)["state"] == "done"
        assert streamed[-1]["type"] == "observatory_end"
        observers = [r for r in streamed if r["type"] == "observer"]
        data = server.service.journals_dir / run_id
        assert observers == read_observations(data)
        assert [r["day"] for r in observers] \
            == list(range(TINY.duration_days))

        files = client.result_manifest(run_id)["manifest"]["files"]
        day_files = sorted(n for n in files if n.startswith("observer-"))
        assert len(day_files) == TINY.duration_days
        for name in day_files:
            _status, payload = client._request(
                "GET", f"/runs/{run_id}/result/{name}")
            assert payload == (data / name).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == files[name]


#: Long enough (about a second and a half) that a kill lands mid-run.
KILLABLE = ScenarioConfig(seed=3, duration_days=120, volume_scale=1e-4,
                          n_tail=2)
KILL_CADENCE = 5


class TestKilledWorker:
    """A pool worker SIGKILLed mid-run breaks the pool for good: the run
    fails, nothing is left pending, the service answers 503 until it is
    restarted, and a restarted service resumes the run from its last
    mid-run entry."""

    def test_kill_fails_the_run_and_a_restart_resumes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        server = ScenarioServer(ScenarioService(
            cache_dir, jobs=1, checkpoint_every=KILL_CADENCE), port=0).start()
        service = server.service
        try:
            client = ServiceClient("127.0.0.1", server.port)
            run_id = client.submit(KILLABLE)["run_id"]
            journal = service.get(run_id).journal_path
            deadline = time.monotonic() + 60
            # Two checkpoint records: the first checkpoint is committed.
            while _text(journal).count('"type": "checkpoint"') < 2:
                assert time.monotonic() < deadline, "no checkpoint written"
                time.sleep(0.002)
            (worker,) = service._pool._processes
            os.kill(worker, signal.SIGKILL)

            run = service.wait(run_id, timeout=60)
            assert run.status == "failed"
            assert "BrokenProcessPool" in run.error
            assert not service.healthy
            for request in (client.healthz, lambda: client.submit(KILLABLE),
                            lambda: client.submit({"seed": 4})):
                with pytest.raises(ServiceClientError) as info:
                    request()
                assert info.value.status == 503
            assert [view["state"] for view in service.runs()] == ["failed"]
        finally:
            server.stop()

        store = ScenarioCache(cache_dir)
        entry = store.entry_dir(KILLABLE)
        resumed_from = json.loads(
            (entry / "manifest.json").read_text())["next_day"]
        assert KILL_CADENCE <= resumed_from < KILLABLE.duration_days
        with ScenarioService(cache_dir, jobs=1,
                             checkpoint_every=KILL_CADENCE) as restarted:
            assert restarted.healthy
            run, outcome = restarted.submit(KILLABLE)
            assert outcome == "created"
            restarted.wait(run.run_id, timeout=120)
            assert run.status == "done"
            timings = restarted.metrics_snapshot()["timings"]
            assert (timings["scenario.run_day"]["count"]
                    == KILLABLE.duration_days - resumed_from)
        manifest = json.loads((entry / "manifest.json").read_text())
        assert manifest["next_day"] == KILLABLE.duration_days
        assert (sorted(p.name for p in entry.iterdir())
                == sorted([*manifest["files"], "manifest.json"]))

    def test_idle_worker_death_fails_healthz(self, server, client):
        assert client.healthz()
        os.kill(next(iter(server.service._pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while server.service.healthy:
            assert time.monotonic() < deadline, "the death went unseen"
            time.sleep(0.01)
        with pytest.raises(ServiceClientError) as info:
            client.healthz()
        assert info.value.status == 503
        assert server.service.runs() == []


class TestServeCommand:
    def test_sigterm_drains_the_in_flight_run(self, tmp_path):
        """``python -m repro serve --port 0``: a SIGTERM with a run in
        flight lets the run finish, the process exits 0, and the run's
        entry verifies."""
        import repro

        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        cache_dir = tmp_path / "cache"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(cache_dir), "--jobs", "1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            port = None
            while port is None:
                line = proc.stderr.readline()
                assert line, "serve exited before it listened"
                found = re.search(r" on http://[\d.]+:(\d+)", line)
                port = int(found.group(1)) if found else None
            view = ServiceClient("127.0.0.1", port).submit(KILLABLE)
            assert view["outcome"] == "created"
            journal = cache_dir / "journals" / f"{view['run_id']}.jsonl"
            deadline = time.monotonic() + 60
            while '"type": "day"' not in _text(journal):
                assert time.monotonic() < deadline, "the run never started"
                time.sleep(0.002)
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert '"type": "run_end"' in _text(journal)
        assert ScenarioCache(cache_dir).probe(KILLABLE)


def _text(path) -> str:
    try:
        with open(path) as stream:
            return stream.read()
    except FileNotFoundError:
        return ""
