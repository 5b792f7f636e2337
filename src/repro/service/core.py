"""The scenario service core: dedupe, admission, warm tier, lifecycle.

:class:`ScenarioService` turns the content-addressed
:class:`~repro.exec.cache.ScenarioCache` into the backing store of a
long-lived multi-tenant run registry.  It is transport-agnostic and
thread-safe — the asyncio HTTP layer (:mod:`repro.service.http`) and the
concurrency tests drive the same object — and upholds one guarantee:
**a result served by the service is byte-identical to a direct
``run_scenario(config)`` for the same config**, because the service never
computes results itself; it only schedules ``run_scenario`` (which stores
into the cache) and serves the verified cache entry's bytes.

Request lifecycle
-----------------
``submit(config, mode)`` resolves, under one lock, to exactly one of:

* **deduped** — a run for this config hash and mode is already registered
  (queued, running, or done): the caller shares it.  Identical requests
  collapse onto one in-flight run, however many clients post them
  concurrently.
* **warm** — the cache holds a fully verified entry for this config and
  mode: a completed run record is registered without simulating anything.
* **created** — a cold request: the run is scheduled on a bounded process
  pool (the :func:`repro.exec.parallel.process_context` workers every
  in-repo fan-out uses).  When ``queue_limit`` runs are already pending,
  admission fails with :class:`AdmissionFull` instead of queueing
  unboundedly.

The mode is one of the store's :data:`~repro.exec.cache.MODES`:
``batch`` (the default), ``stream`` or ``observe``.  The run id is the
cache entry key (``<repro version>-<config hash>-<mode>``), so ids are
stable across service restarts and shared between tenants.

Workers journal to ``journals/<run_id>.jsonl`` (line-buffered), which the
progress stream tails; an observe run writes its observatory directory
beside it, ``journals/<run_id>/``, whose ``observations.jsonl`` the
observations stream tails.  Each worker ships its metrics snapshot back
and the service folds it into its own registry (the ``/metrics`` ops
surface), so ``scenario.cache.stores`` counts cache writes across every
worker.

Cache lifecycle: after each completed run (and on demand) the service
sweeps the cache against its byte budget, protecting pinned entries and
every registered run's entry — an in-flight or just-completed run can
never lose its artifacts to the sweep that its own store triggered.

Shutdown: ``close(drain=True)`` stops admitting, then waits for in-flight
runs to finish.  ``close(drain=False)`` abandons queued work; a run's
checkpoint (written every ``checkpoint_every`` days) is a mid-run entry
of its own key in the cache, so a later service resumes it instead of
recomputing from day zero.  A checkpoint is not warm: ``submit`` reports
the config cold and schedules the resume.

A pool worker that dies (killed, out of memory) breaks the pool: its run
fails with ``BrokenProcessPool``, and every later cold ``submit`` raises
:class:`PoolBroken` without registering a run.  The pool is never
rebuilt (see ``__init__``), so :attr:`ScenarioService.healthy` turns
false and the process should be restarted; a restarted service resumes
the run from its last checkpoint.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from repro.exec.cache import MODES, ScenarioCache
from repro.exec.parallel import process_context
from repro.obs import (
    Journal,
    MetricsRegistry,
    Tracer,
    config_hash,
    use_journal,
    use_registry,
)
from repro.sim.scenario import ScenarioConfig


class ServiceError(RuntimeError):
    """Base class for service-level failures."""


class AdmissionFull(ServiceError):
    """The bounded admission queue is at capacity; retry later."""


class ServiceClosed(ServiceError):
    """The service is draining and admits no new runs."""


class PoolBroken(ServiceError):
    """A pool worker died; the service must be restarted to run again."""


class UnknownRun(KeyError):
    """No run with that id is registered."""


class ResultUnavailable(ServiceError):
    """The run is not done, failed, or its cache entry was evicted."""


def coerce_config(payload) -> ScenarioConfig:
    """A :class:`ScenarioConfig` from itself or a plain field dict.

    Unknown fields raise ``TypeError`` — the HTTP layer maps that to a
    400 so a typoed knob never silently runs the default scenario.
    """
    if isinstance(payload, ScenarioConfig):
        return payload
    if is_dataclass(payload):
        payload = asdict(payload)
    if not isinstance(payload, dict):
        raise TypeError(f"config must be an object, got {type(payload).__name__}")
    return ScenarioConfig(**payload)


@dataclass
class RunState:
    """One registered run, shared by every client that posted its config."""

    run_id: str
    config: dict
    config_hash: str
    status: str  # "pending" | "done" | "failed"
    journal_path: str
    mode: str = "batch"
    warm: bool = False
    error: str | None = None
    packets: int | None = None
    done_event: threading.Event = field(default_factory=threading.Event)
    future: object = None

    def public(self, running: bool = False) -> dict:
        """The JSON-facing status view."""
        state = self.status
        if state == "pending" and running:
            state = "running"
        return {
            "run_id": self.run_id,
            "state": state,
            "warm": self.warm,
            "config_hash": self.config_hash,
            "error": self.error,
            "packets": self.packets,
        }


def _execute_run(config_fields: dict, cache_dir: str, journal_path: str,
                 checkpoint_every: int | None, mode: str,
                 observe_dir: str) -> dict:
    """Worker entry point: one journaled, cached ``run_scenario``.

    Module-level and picklable.  Installs a fresh registry and a
    line-buffered journal (the parent tails the file while this runs),
    then runs the scenario in ``mode`` through the shared cache so the
    result lands as a verified entry; an observe run writes its day files
    into ``observe_dir``.  A run always resumes its checkpoint:
    a worker re-dispatched after a crash fast-forwards from the last
    cadence checkpoint and replays the journal history, keeping the
    progress stream byte-compatible with an uninterrupted run.
    """
    from repro.sim.runner import run_scenario

    config = ScenarioConfig(**config_fields)
    registry = MetricsRegistry()
    journal = Journal(journal_path)
    try:
        with use_registry(registry), use_journal(journal):
            result = run_scenario(
                config, cache_dir=cache_dir,
                checkpoint_every=checkpoint_every,
                stream_analysis=mode == "stream",
                observe_dir=observe_dir if mode == "observe" else None,
            )
        packets = (sum(s.records_in for s in result.streaming.values())
                   if result.streaming is not None
                   else sum(map(len, result.telescopes().values())))
        return {"telemetry": registry.snapshot(), "packets": packets}
    finally:
        journal.close()


class ScenarioService:
    """Thread-safe multi-tenant run registry over one scenario cache."""

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        *,
        jobs: int = 1,
        queue_limit: int = 32,
        max_cache_bytes: int | None = None,
        journals_dir: str | os.PathLike | None = None,
        checkpoint_every: int | None = None,
    ):
        self.cache = ScenarioCache(cache_dir, max_bytes=max_cache_bytes)
        self.jobs = max(1, int(jobs))
        self.queue_limit = max(1, int(queue_limit))
        self.journals_dir = Path(
            journals_dir if journals_dir is not None
            else Path(cache_dir) / "journals"
        )
        #: Cadence of the runs' checkpoints into the cache (None: none).
        self.checkpoint_every = checkpoint_every
        #: The service's own ops registry/tracer — the ``/metrics`` and
        #: ``/traces`` surfaces.  Worker snapshots are merged in.
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self._lock = threading.Lock()
        self._runs: dict[str, RunState] = {}
        self._closing = False
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=process_context(),
        )
        # Start the workers now, before any server socket exists.  Under
        # fork the first submit starts every worker, and a worker forked
        # inside a request would inherit that request's open connection
        # and keep it open for the pool's lifetime: the client never
        # sees EOF.  The pool is never rebuilt, so this is the only fork.
        self._pool.submit(int).result()

    # -- admission ---------------------------------------------------------

    def submit(self, payload, mode: str = "batch") -> tuple[RunState, str]:
        """Register (or join) the run for one config in one run mode.

        Returns ``(run, outcome)`` with outcome one of ``"created"``
        (cold, scheduled now), ``"deduped"`` (joined an existing run), or
        ``"warm"`` (served straight from the verified cache).  An unknown
        mode raises ``ValueError``; a broken pool raises
        :class:`PoolBroken`, and no run is registered.
        """
        config = coerce_config(payload)
        if mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, "
                             f"got {mode!r}")
        run_id = self.cache.key(config, mode)
        self.registry.counter("service.requests").inc()
        with self.tracer.span("service.submit", run_id=run_id) as span:
            with self._lock:
                if self._closing:
                    raise ServiceClosed("service is shutting down")
                run = self._runs.get(run_id)
                if run is not None and run.status != "failed":
                    self.registry.counter("service.deduped").inc()
                    span.set(outcome="deduped")
                    return run, "deduped"
                retry = run is not None
                run = RunState(
                    run_id=run_id, config=asdict(config),
                    config_hash=config_hash(config), status="pending",
                    mode=mode,
                    journal_path=str(self.journals_dir / f"{run_id}.jsonl"),
                )
                if self.cache.probe(config, mode):
                    run.status, run.warm = "done", True
                    run.done_event.set()
                    self._runs[run_id] = run
                    self.registry.counter("service.warm_hits").inc()
                    span.set(outcome="warm")
                    return run, "warm"
                pending = sum(
                    1 for r in self._runs.values() if r.status == "pending"
                )
                if pending >= self.queue_limit:
                    self.registry.counter("service.rejected").inc()
                    span.set(outcome="rejected")
                    raise AdmissionFull(
                        f"{pending} runs pending (queue limit "
                        f"{self.queue_limit}); retry later"
                    )
                self.journals_dir.mkdir(parents=True, exist_ok=True)
                if retry:
                    # The failed attempt's journal sits at the same path;
                    # left there, it would read as a retry already running.
                    Path(run.journal_path).unlink(missing_ok=True)
                try:
                    run.future = self._pool.submit(
                        _execute_run, run.config, str(self.cache.root),
                        run.journal_path, self.checkpoint_every, mode,
                        str(self.journals_dir / run_id),
                    )
                except BrokenProcessPool as error:
                    span.set(outcome="broken")
                    raise PoolBroken(
                        "a pool worker died; restart the service") from error
                self._runs[run_id] = run
                self.registry.counter("service.cold_runs").inc()
                self.registry.gauge("service.pending").set(pending + 1)
                span.set(outcome="created")
        # Outside the lock: a future that is already done runs the
        # callback right here, and the callback takes the lock.
        run.future.add_done_callback(
            lambda future, run=run: self._on_done(run, future))
        return run, "created"

    @property
    def healthy(self) -> bool:
        """False once a pool worker died, busy or idle: the process must
        be restarted.  (The executor marks itself broken as soon as it
        sees the death, before it fails the pending futures.)"""
        return not self._pool._broken

    def _on_done(self, run: RunState, future) -> None:
        with self._lock:
            error = (CancelledError("the service closed before the run "
                                    "started") if future.cancelled()
                     else future.exception())
            if error is not None:
                run.status = "failed"
                run.error = f"{type(error).__name__}: {error}"
                self.registry.counter("service.failed").inc()
            else:
                outcome = future.result()
                run.status = "done"
                run.packets = outcome.get("packets")
                telemetry = outcome.get("telemetry")
                if telemetry:
                    self.registry.merge(telemetry)
                self.registry.counter("service.completed").inc()
            self.registry.gauge("service.pending").set(sum(
                1 for r in self._runs.values() if r.status == "pending"
            ))
            run.done_event.set()
        # Sweep outside the registry updates but with the same protection
        # set a concurrent submit would extend: every registered run.
        self.sweep_cache()

    # -- queries -----------------------------------------------------------

    def get(self, run_id: str) -> RunState:
        with self._lock:
            run = self._runs.get(run_id)
        if run is None:
            raise UnknownRun(f"unknown run {run_id}")
        return run

    def status(self, run_id: str) -> dict:
        run = self.get(run_id)
        running = False
        if run.status == "pending":
            try:
                running = os.path.getsize(run.journal_path) > 0
            except OSError:
                running = False
        return run.public(running=running)

    def wait(self, run_id: str, timeout: float | None = None) -> RunState:
        """Block until the run completes (or ``timeout`` elapses)."""
        run = self.get(run_id)
        run.done_event.wait(timeout)
        return run

    def runs(self) -> list[dict]:
        with self._lock:
            states = list(self._runs.values())
        return [run.public() for run in states]

    # -- results -----------------------------------------------------------

    def result_entry(self, run_id: str) -> Path:
        """The verified cache entry directory backing a completed run."""
        run = self.get(run_id)
        if run.status == "failed":
            raise ResultUnavailable(f"run failed: {run.error}")
        if run.status != "done":
            raise ResultUnavailable("run still in progress")
        entry = self.cache.root / run_id
        if not (entry / "manifest.json").is_file():
            raise ResultUnavailable("cache entry evicted; resubmit the config")
        return entry

    def result_manifest(self, run_id: str) -> dict:
        entry = self.result_entry(run_id)
        return json.loads((entry / "manifest.json").read_text())

    def result_file(self, run_id: str, name: str) -> Path:
        """One artifact file of a completed run, by manifest name."""
        manifest = self.result_manifest(run_id)
        if name != "manifest.json" and name not in manifest.get("files", {}):
            raise UnknownRun(f"{run_id} has no artifact {name!r}")
        return self.cache.root / run_id / name

    def observations_path(self, run_id: str) -> Path:
        """The live ``observations.jsonl`` of an observe run."""
        from repro.observatory.observer import OBSERVATIONS_NAME

        if self.get(run_id).mode != "observe":
            raise UnknownRun(f"{run_id} is not an observe run")
        return self.journals_dir / run_id / OBSERVATIONS_NAME

    # -- cache lifecycle ---------------------------------------------------

    def pin(self, run_id: str) -> None:
        """Pin a run's cache entry into the warm tier (evict-proof)."""
        self.get(run_id)  # 404 before touching the pin file
        self.cache.pin(run_id)

    def unpin(self, run_id: str) -> None:
        self.get(run_id)
        self.cache.unpin(run_id)

    def sweep_cache(self) -> list[str]:
        """Evict LRU entries over budget; never a registered run's entry."""
        with self._lock:
            protect = set(self._runs)
        return self.cache.evict(protect=protect)

    # -- ops surface -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        from repro.obs import sample_peak_rss

        self.registry.gauge("scenario.cache.bytes").set(
            self.cache.total_bytes())
        sample_peak_rss(self.registry)
        return self.registry.snapshot()

    def trace_spans(self) -> list[dict]:
        return self.tracer.export_spans()

    # -- shutdown ----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admitting and shut the worker pool down.

        ``drain=True`` completes every in-flight run first (their results
        land in the cache and every waiter wakes).  ``drain=False``
        cancels queued runs and abandons running ones — with
        ``checkpoint_every`` set their last checkpoints stay in the cache
        for a resumed service to pick up.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._pool.shutdown(wait=drain, cancel_futures=not drain)

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)
