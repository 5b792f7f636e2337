"""Blocking stdlib client for the scenario service.

A thin ``http.client`` wrapper speaking the service's one-request-per-
connection dialect.  Used by the tests and the load-generator
microbenchmark; it is also the reference for how an analyst's tooling
would consume the API.

:meth:`ServiceClient.fetch_result` closes the byte-equality loop: it
downloads every artifact of a completed run into a local directory laid
out exactly like a cache entry, then loads it through
:class:`~repro.exec.cache.ScenarioCache` — re-running the same manifest
and checksum verification the server ran, so a corrupted transfer
surfaces as a miss instead of silently wrong arrays.
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path


class ServiceClientError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class RunFailed(ServiceClientError):
    """The awaited run reached the ``failed`` state."""

    def __init__(self, run_id: str, error: str | None):
        RuntimeError.__init__(self, f"run {run_id} failed: {error}")
        self.status = 500


class ServiceClient:
    """One service endpoint; safe to use from many threads (each request
    opens its own connection)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            payload = (json.dumps(body).encode() if body is not None else None)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        if response.status >= 400:
            try:
                message = json.loads(data).get("error", data.decode())
            except (ValueError, UnicodeDecodeError):
                message = data.decode(errors="replace")
            raise ServiceClientError(response.status, message)
        return response.status, data

    def _json(self, method: str, path: str, body: dict | None = None):
        status, data = self._request(method, path, body)
        return status, json.loads(data)

    # -- API ---------------------------------------------------------------

    def healthz(self) -> bool:
        return self._json("GET", "/healthz")[1].get("ok", False)

    def submit(self, config, mode: str | None = None) -> dict:
        """POST a config (ScenarioConfig or field dict), in ``mode``
        (``batch`` when None); returns the run view with its ``outcome``
        (created/deduped/warm)."""
        from dataclasses import asdict, is_dataclass

        payload = asdict(config) if is_dataclass(config) else dict(config)
        if mode is not None:
            payload["mode"] = mode
        return self._json("POST", "/runs", payload)[1]

    def status(self, run_id: str) -> dict:
        return self._json("GET", f"/runs/{run_id}")[1]

    def wait(self, run_id: str, timeout: float = 120.0,
             poll_interval: float = 0.05) -> dict:
        """Poll until the run is done; raises :class:`RunFailed` on
        failure and :class:`TimeoutError` on expiry."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.status(run_id)
            if view["state"] == "done":
                return view
            if view["state"] == "failed":
                raise RunFailed(run_id, view.get("error"))
            if time.monotonic() >= deadline:
                raise TimeoutError(f"run {run_id} still {view['state']} "
                                   f"after {timeout}s")
            time.sleep(poll_interval)

    def _events(self, path: str):
        """Yield the records of one SSE stream as dicts."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    message = json.loads(data).get("error", "")
                except ValueError:
                    message = data.decode(errors="replace")
                raise ServiceClientError(response.status, message)
            for raw in response:
                line = raw.strip()
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):].decode())
        finally:
            connection.close()

    def stream_progress(self, run_id: str):
        """Yield journal records from the SSE progress stream."""
        return self._events(f"/runs/{run_id}/progress")

    def stream_observations(self, run_id: str):
        """Yield an observe run's observer records as it writes them;
        their ``observer`` records are its day files' records."""
        return self._events(f"/runs/{run_id}/observations")

    def metrics(self) -> dict:
        return self._json("GET", "/metrics")[1]

    def traces(self) -> list:
        return self._json("GET", "/traces")[1]

    def pin(self, run_id: str) -> None:
        self._json("POST", f"/runs/{run_id}/pin")

    def unpin(self, run_id: str) -> None:
        self._json("DELETE", f"/runs/{run_id}/pin")

    # -- results -----------------------------------------------------------

    def result_manifest(self, run_id: str) -> dict:
        return self._json("GET", f"/runs/{run_id}/result")[1]

    def download_result(self, run_id: str, dest_root) -> Path:
        """Download every artifact into ``dest_root/<run_id>/`` (a local
        replica of the server's cache entry); returns the entry path."""
        view = self.result_manifest(run_id)
        entry = Path(dest_root) / run_id
        entry.mkdir(parents=True, exist_ok=True)
        for name in [*view["files"], "manifest.json"]:
            _status, payload = self._request(
                "GET", f"/runs/{run_id}/result/{name}")
            (entry / name).write_bytes(payload)
        return entry

    def fetch_result(self, run_id: str, config, dest_root):
        """The run's :class:`~repro.sim.runner.ScenarioResult`, verified.

        Downloads the entry, then loads it through ``ScenarioCache``, in
        the run mode its manifest records, so the client re-checks every
        artifact's SHA-256 against the manifest before deserializing —
        end-to-end integrity, and the same arrays (or stream summaries) a
        direct ``run_scenario(config)`` in that mode returns.
        """
        from repro.exec.cache import ScenarioCache

        entry = self.download_result(run_id, dest_root)
        mode = json.loads((entry / "manifest.json").read_text()).get("mode")
        local = ScenarioCache(dest_root)
        if local.key(config, mode) != run_id:
            raise ServiceClientError(
                409, f"run id {run_id} does not match the local key for "
                     f"this config ({local.key(config, mode)}): version "
                     "skew?")
        result = local.load(config, mode)
        if result is None:
            raise ServiceClientError(
                502, "downloaded entry failed verification")
        return result
