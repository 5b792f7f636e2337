"""Stdlib-only asyncio HTTP front end for the scenario service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no dependencies — exposing :class:`~repro.service.core.
ScenarioService` to many tenants:

========================  =================================================
``GET  /healthz``         liveness probe; ``503`` once a pool worker died
                          (the process must be restarted)
``POST /runs``            body: ``ScenarioConfig`` JSON plus an optional
                          ``"mode"`` (``batch``, the default, ``stream`` or
                          ``observe``) → ``202`` (created) or ``200``
                          (deduped onto a registered run / warm from
                          cache); ``400`` bad config or mode, ``503``
                          queue full, draining or pool broken
``GET  /runs``            all registered runs
``GET  /runs/{id}``       one run's status
``GET  /runs/{id}/progress``  Server-Sent Events stream of the run's
                          journal records (one ``data:`` event per record)
``GET  /runs/{id}/observations``  observe runs: Server-Sent Events stream
                          of the observer day records as the run writes
                          them (one ``data:`` event per record)
``GET  /runs/{id}/result``    the verified entry manifest (a SHA-256 per
                          file) + artifact list
``GET  /runs/{id}/result/{file}``  raw artifact bytes (records, stream
                          summaries, observer day files, manifest) —
                          exactly the bytes the cache verified, which is
                          what makes service results bit-identical to a
                          direct ``run_scenario``
``POST   /runs/{id}/pin``     pin the entry into the warm tier
``DELETE /runs/{id}/pin``     unpin it
``GET  /metrics``         the service registry snapshot (ops surface)
``GET  /traces``          exported trace spans
========================  =================================================

Both event streams end once the run is terminal and its file is drained.

Responses carry ``Connection: close`` (one request per connection): every
client in this repo — tests, the load generator, curl — speaks that
dialect, and it keeps the parser honest and small.  Blocking service
calls (cache probes hash files; result lookups stat entries) run in the
default thread executor so the event loop never stalls on disk.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

from repro.service.core import (
    ResultUnavailable,
    ScenarioService,
    ServiceError,
    UnknownRun,
)

#: Largest accepted request body (a config JSON is < 2 KB; this bound is
#: purely defensive).
MAX_BODY_BYTES = 1 << 20

#: How often an SSE stream polls its file for new records.
PROGRESS_POLL_S = 0.05

_SSE_HEAD = (b"HTTP/1.1 200 OK\r\n"
             b"Content-Type: text/event-stream\r\n"
             b"Cache-Control: no-cache\r\n"
             b"Connection: close\r\n\r\n")


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {200: "OK", 202: "Accepted", 204: "No Content",
            400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
            410: "Gone", 413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _as_http_error(error: Exception) -> _HttpError:
    """The response for a service exception: a missing run or artifact
    is 404, an evicted entry 410, a run not (successfully) done 404."""
    if isinstance(error, _HttpError):
        return error
    if isinstance(error, UnknownRun):
        return _HttpError(404, error.args[0])
    if isinstance(error, ResultUnavailable):
        return _HttpError(410 if "evicted" in str(error) else 404, str(error))
    return _HttpError(500, f"{type(error).__name__}: {error}")


def _response_bytes(status: int, body: bytes, content_type: str) -> bytes:
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


class ScenarioServer:
    """The asyncio server; embeddable in-process or run by the CLI.

    Two drive modes:

    * ``await serve_async()`` inside an existing event loop (the CLI's
      path, with signal handlers attached around it);
    * ``start()`` / ``stop()`` which run the loop on a daemon thread —
      what the tests and the load-generator benchmark use to boot a real
      TCP server next to their client threads.
    """

    def __init__(self, service: ScenarioService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stopping: asyncio.Event | None = None

    # -- asyncio-side ------------------------------------------------------

    async def start_async(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def serve_async(self) -> None:
        """Start and serve until :meth:`request_stop` (or cancellation)."""
        await self.start_async()
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    def request_stop(self) -> None:
        """Signal ``serve_async`` to return (threadsafe)."""
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)

    # -- thread-embedded mode ---------------------------------------------

    def start(self) -> "ScenarioServer":
        """Boot the server on a background thread; returns when bound."""
        def runner():
            asyncio.run(self.serve_async())

        self._thread = threading.Thread(
            target=runner, name="scenario-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("scenario server failed to bind")
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving, then close the service (draining by default)."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.service.close(drain=drain)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling --------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                await self._send_error(writer, error)
                return
            try:
                await self._route(method, path, body, writer)
            except Exception as error:  # noqa: BLE001 — keep serving
                await self._send_error(writer, _as_http_error(error))
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, target, _version = request_line.decode(
                "ascii").strip().split(" ", 2)
        except ValueError as error:
            raise _HttpError(400, "malformed request line") from error
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as err:
                    raise _HttpError(400, "bad Content-Length") from err
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method.upper(), target.split("?", 1)[0], body

    async def _send(self, writer, status: int, payload,
                    content_type: str = "application/json") -> None:
        if isinstance(payload, (dict, list)):
            payload = (json.dumps(payload, sort_keys=True) + "\n").encode()
        writer.write(_response_bytes(status, payload, content_type))
        await writer.drain()

    async def _send_error(self, writer, error: _HttpError) -> None:
        try:
            await self._send(writer, error.status, {"error": error.message})
        except (ConnectionError, OSError):
            pass

    async def _in_thread(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args)

    async def _route(self, method: str, path: str, body: bytes,
                     writer) -> None:
        parts = [p for p in path.split("/") if p]
        # ``/runs/{id}/<sub...>``: the run id and the parts after it.
        run_id, sub = ((parts[1], parts[2:])
                       if len(parts) > 1 and parts[0] == "runs"
                       else (None, None))

        if path == "/healthz" and method == "GET":
            if not self.service.healthy:
                raise _HttpError(503, "a pool worker died; restart the "
                                      "service")
            await self._send(writer, 200, {"ok": True})
        elif path == "/metrics" and method == "GET":
            snapshot = await self._in_thread(self.service.metrics_snapshot)
            await self._send(writer, 200, snapshot)
        elif path == "/traces" and method == "GET":
            await self._send(writer, 200, self.service.trace_spans())
        elif path == "/runs" and method == "POST":
            await self._submit(body, writer)
        elif path == "/runs" and method == "GET":
            await self._send(writer, 200, self.service.runs())
        elif sub == [] and method == "GET":
            await self._send(writer, 200, self.service.status(run_id))
        elif sub == ["progress"] and method == "GET":
            run = self.service.get(run_id)
            await self._stream_sse(run, run.journal_path, writer)
        elif sub == ["observations"] and method == "GET":
            await self._stream_sse(self.service.get(run_id),
                                   self.service.observations_path(run_id),
                                   writer)
        elif sub == ["result"] and method == "GET":
            await self._result_manifest(run_id, writer)
        elif sub and len(sub) == 2 and sub[0] == "result" and method == "GET":
            await self._result_file(run_id, sub[1], writer)
        elif sub == ["pin"] and method in ("POST", "DELETE"):
            (self.service.unpin if method == "DELETE"
             else self.service.pin)(run_id)
            await self._send(writer, 200, {"run_id": run_id,
                                           "pinned": method == "POST"})
        else:
            raise _HttpError(404 if method == "GET" else 405,
                             f"no route for {method} {path}")

    # -- handlers ----------------------------------------------------------

    async def _submit(self, body: bytes, writer) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"body is not JSON: {error}") from error
        mode = (payload.pop("mode", "batch") if isinstance(payload, dict)
                else "batch")
        try:
            run, outcome = await self._in_thread(
                self.service.submit, payload, mode)
        except (TypeError, ValueError) as error:
            raise _HttpError(400, f"bad config: {error}") from error
        except ServiceError as error:  # queue full, draining, pool broken
            raise _HttpError(503, str(error)) from error
        status = 202 if outcome == "created" else 200
        await self._send(writer, status, {
            **run.public(), "outcome": outcome,
            "links": {
                "status": f"/runs/{run.run_id}",
                "progress": f"/runs/{run.run_id}/progress",
                "result": f"/runs/{run.run_id}/result",
            },
        })

    async def _stream_sse(self, run, path, writer) -> None:
        """SSE: one ``data:`` event per JSON line of ``path``, until the
        run is terminal and the file is drained.

        Stopping at a record instead would truncate the stream
        nondeterministically: ``cache_store`` trails ``run_end`` in the
        journal.  Each payload is the record re-serialized with sorted
        keys, which for observer records is its day file's line.
        """
        from repro.obs import JournalTail

        writer.write(_SSE_HEAD)
        await writer.drain()
        tail = JournalTail(str(path))
        while True:
            done = run.done_event.is_set()
            records = await self._in_thread(tail.poll)
            for record in records:
                event = "data: " + json.dumps(record, sort_keys=True) + "\n\n"
                writer.write(event.encode())
            if records:
                await writer.drain()
            if done and not records:
                return
            await asyncio.sleep(PROGRESS_POLL_S)

    async def _result_manifest(self, run_id: str, writer) -> None:
        manifest = await self._in_thread(self.service.result_manifest, run_id)
        files = sorted(manifest.get("files", {}))
        await self._send(writer, 200, {
            "run_id": run_id,
            "manifest": manifest,
            "files": {
                name: f"/runs/{run_id}/result/{name}" for name in files
            },
        })

    async def _result_file(self, run_id: str, name: str, writer) -> None:
        if "/" in name or name.startswith("."):
            raise _HttpError(400, "bad artifact name")

        def read() -> bytes:
            path: Path = self.service.result_file(run_id, name)
            try:
                return path.read_bytes()
            except OSError as error:
                raise _HttpError(410, f"artifact unreadable: {error}") from error

        payload = await self._in_thread(read)
        await self._send(writer, 200, payload, "application/octet-stream")
