"""Threaded day pipelining: emit day N+1 while day N's packets dispatch.

:class:`DispatchPipeline` splits :meth:`PaperScenario.run_day` into a
producer (the calling thread: engine advance, feed polls, emission) and a
dispatcher thread (range-mask routing, per-telescope fan-out via
``dispatch_parts``, capture).  The split is safe because the two halves
share no randomness and no mutable state:

* dispatch consumes **no RNG** — every draw happens at emission time;
* polls and emission read fabric/collector/honeyprefix state that
  dispatch never mutates; dispatch writes capturers, dispatch counters,
  and honeypot tallies that polls and emission never read;
* capture order equals submission order (a FIFO queue), which equals the
  serial per-agent order, so records are byte-identical;
* the journal is written only from the producer thread — dispatch emits
  no records — so journal bytes are byte-identical too.

The one ordering hazard is the engine: its events (deployments, hitlist
cycles, withdrawals) *do* mutate the structures dispatch reads.  The
pipeline therefore drains the dispatcher before advancing the engine into
any day with a real pending event; on event-less days (the common case)
the only event is the no-op boundary tick, and emission of the next day
overlaps dispatch of the previous one.

Pipelining is a serial-mode (``jobs=1``) optimization.  When the metrics
registry is enabled the dispatcher's timer updates race the producer's
only on distinct metric names, so totals stay exact; trace spans from the
dispatcher thread interleave, which is why ``--trace`` output is best
read from serial runs.
"""

from __future__ import annotations

import queue
import threading

from repro._util import DAY
from repro.obs import get_journal, get_registry, get_tracer

#: Sentinel telling the dispatcher thread to exit.
_STOP = object()


class DispatchPipeline:
    """Producer/consumer wrapper around one scenario's day loop."""

    def __init__(self, scenario, max_pending: int = 8):
        self.scenario = scenario
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._error: BaseException | None = None
        #: Set by the first failed dispatch and never cleared: every batch
        #: still queued behind it is dropped, so the error is raised on
        #: the producer side exactly once.
        self._failed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="dispatch-pipeline", daemon=True
        )
        self._thread.start()

    # -- dispatcher thread ---------------------------------------------

    def _dispatch_loop(self) -> None:
        registry = get_registry()
        while True:
            batch = self._queue.get()
            try:
                if batch is _STOP:
                    return
                if not self._failed:
                    with registry.timer("scenario.dispatch"):
                        self.scenario.dispatch_batch(batch)
            except BaseException as error:  # propagate via the producer
                self._failed = True
                self._error = error
            finally:
                self._queue.task_done()

    def _check_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    # -- producer side ---------------------------------------------------

    def run_day(self, day: int) -> int:
        """Pipelined equivalent of :meth:`PaperScenario.run_day`."""
        scenario = self.scenario
        registry = get_registry()
        day_end = (day + 1) * DAY
        next_event = scenario.engine.peek_time()
        if next_event is not None and next_event <= day_end:
            # A real event will mutate telescope/fabric state dispatch
            # reads; finish the previous day's dispatch first.
            self.drain()
        span = get_tracer().span("scenario.run_day", day=day)
        with span:
            day_start, day_end = scenario.begin_day(day)
            emitted = 0
            for agent in scenario.agents:
                agent.poll_feeds(scenario._last_poll, day_end)
                with registry.timer("scenario.emit"):
                    batch = agent.emit_day_batch(day_start, day_end)
                emitted += len(batch)
                if len(batch):
                    self._check_error()
                    self._queue.put(batch)
            scenario._last_poll = day_end
        span.set(emitted=emitted)
        # Emitted counts never depend on dispatch, and dispatch writes no
        # journal records, so the day record can (and must, to keep the
        # serial line order) be written before dispatch finishes.
        get_journal().emit("day", day=day, emitted=emitted)
        return emitted

    def drain(self) -> None:
        """Block until every submitted batch has been dispatched (the
        barrier before engine events, checkpoints, and freezing)."""
        self._queue.join()
        self._check_error()

    def close(self) -> None:
        """Drain, stop the dispatcher thread, and re-raise any error."""
        if self._thread.is_alive():
            self._queue.join()
            self._queue.put(_STOP)
            self._thread.join()
        self._check_error()

    def __enter__(self) -> "DispatchPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
