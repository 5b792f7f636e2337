"""Structured tracing: nested spans, Chrome trace export, self-time.

A :class:`Span` is a context manager timing one stage of work; spans nest
(the tracer keeps an open-span stack, so a span entered while another is
live becomes its child), carry arbitrary JSON-serializable attributes, and
record wall-clock start/end via ``perf_counter``.

The process-wide active tracer mirrors the metrics registry's design
(:mod:`repro.obs.registry`): it defaults to :data:`NULL_TRACER`, whose
``span()`` returns a shared no-op singleton, so instrumentation in hot
paths costs one no-op method call while tracing is off.  Unlike metrics,
instrumented code fetches the tracer at call time via :func:`get_tracer`,
so enabling tracing needs no re-construction of the instrumented objects.

Finished spans can be exported as Chrome trace-event JSON (loadable in
``chrome://tracing`` and Perfetto: complete events, microsecond
timestamps) and summarized as a per-stage *self-time* table — each stage's
wall clock minus the wall clock of its child spans, which is where "where
did the time go" questions get their answers.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class Span:
    """One traced stage: a re-entrant-safe, single-use context manager."""

    name: str
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    span_id: int = -1
    parent_id: int | None = None
    #: Wall clock spent inside *direct* child spans (filled as they close).
    child_time: float = 0.0
    #: Id of the process the span ran in (set when it opens).
    pid: int = 0
    _tracer: "Tracer | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not accounted for by direct child spans."""
        return self.duration - self.child_time

    def set(self, **attrs) -> "Span":
        """Attach attributes to a live span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.pid = os.getpid()
        self._tracer._open(self)
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = self._tracer._clock()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)


class _NullSpan:
    """No-op span: the null tracer's shared singleton."""

    __slots__ = ()
    name = "null"
    attrs: dict = {}

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; hands out fresh ones via :meth:`span`.

    Single-threaded, like the rest of the pipeline: the open-span stack is
    a plain list.  ``clock`` is injectable for deterministic tests.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self._clock = clock
        self._stack: list[Span] = []
        self._next_id = 0
        #: Finished spans, in completion order (children before parents).
        self.spans: list[Span] = []

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A fresh span, parented to the innermost live span on entry."""
        return Span(name=name, attrs=attrs, _tracer=self)

    def _open(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        # Tolerate mis-nested exits (a span closed out of order drops the
        # stack back to its own frame) so a stray exit can't poison every
        # later parent assignment.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self._stack:
            self._stack[-1].child_time += span.duration
        self.spans.append(span)

    # -- cross-process shipping -------------------------------------------

    def export_spans(self) -> list[dict]:
        """Finished spans as plain dicts (picklable, tracer-free).

        The worker-fan-out exchange format: a worker process traces with
        its own :class:`Tracer`, exports, and ships the list back for the
        parent to :meth:`adopt`.
        """
        return [
            {
                "name": span.name, "attrs": dict(span.attrs),
                "start": span.start, "end": span.end,
                "span_id": span.span_id, "parent_id": span.parent_id,
                "child_time": span.child_time, "pid": span.pid,
            }
            for span in self.spans
        ]

    def adopt(self, records: list[dict],
              parent: "Span | None" = None) -> None:
        """Graft exported worker spans into this tracer's span list.

        Span ids are re-based past this tracer's counter so they can never
        collide with local ids, parent links are rewritten accordingly,
        and the worker's *root* spans are re-parented under ``parent``
        (typically the executor's live ``executor`` span).  Each adopted
        root's duration is charged to ``parent`` as child time; with
        workers running concurrently that summed child time can exceed the
        parent's wall clock (its self time then reflects orchestration
        cost minus the overlap), which is the standard reading of a fan-in
        trace.

        ``perf_counter`` on the platforms we run (CLOCK_MONOTONIC) shares
        its origin across processes, so adopted timestamps line up with
        local ones in the Chrome trace.
        """
        if not records:
            return
        offset = self._next_id
        parent_id = parent.span_id if parent is not None else None
        for record in records:
            span = Span(
                name=record["name"], attrs=dict(record["attrs"]),
                start=record["start"], end=record["end"],
                span_id=record["span_id"] + offset,
                parent_id=(record["parent_id"] + offset
                           if record["parent_id"] is not None else parent_id),
                child_time=record["child_time"], pid=record["pid"],
            )
            if record["parent_id"] is None and parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)
            self._next_id = max(self._next_id, span.span_id + 1)

    # -- aggregation ------------------------------------------------------

    def total_time(self) -> float:
        """Wall clock covered by root spans (spans with no parent)."""
        return sum(s.duration for s in self.spans if s.parent_id is None)

    def by_name(self) -> dict[str, dict]:
        """Per-stage aggregate: count, total, and self wall-clock seconds."""
        stages: dict[str, dict] = {}
        for span in self.spans:
            stats = stages.get(span.name)
            if stats is None:
                stats = stages[span.name] = {
                    "count": 0, "total": 0.0, "self": 0.0,
                }
            stats["count"] += 1
            stats["total"] += span.duration
            stats["self"] += span.self_time
        return stages

    def render_self_time(self) -> str:
        """Self-time-per-stage table, heaviest stages first."""
        stages = self.by_name()
        if not stages:
            return "== trace: no spans recorded =="
        total_self = sum(s["self"] for s in stages.values()) or 1.0
        width = max(len(n) for n in stages)
        lines = ["== trace self-time by stage =="]
        for name, stats in sorted(stages.items(),
                                  key=lambda kv: -kv[1]["self"]):
            lines.append(
                f"  {name:<{width}}  self {stats['self']:>9.4f}s "
                f"({stats['self'] / total_self:>5.1%})  "
                f"total {stats['total']:>9.4f}s  n={stats['count']}"
            )
        return "\n".join(lines)

    # -- export -----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete "X" events).

        Loadable in ``chrome://tracing`` and Perfetto; timestamps are in
        microseconds since the tracer's first span, and each event's
        ``pid`` is the process its span ran in, so adopted worker spans
        show as their own process tracks.
        """
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": span.pid,
                "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": dict(span.attrs, span_id=span.span_id,
                             parent_id=span.parent_id),
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as stream:
            json.dump(self.chrome_trace(), stream)
            stream.write("\n")


class NullTracer(Tracer):
    """Disabled tracer: ``span()`` returns the shared no-op singleton."""

    enabled = False

    def __init__(self):
        super().__init__()

    def span(self, name: str, **attrs) -> Span:
        return NULL_SPAN  # type: ignore[return-value]

    def adopt(self, records: list[dict],
              parent: "Span | None" = None) -> None:
        pass


#: The shared disabled tracer; also the default active tracer.
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The active tracer (the null tracer unless tracing is enabled)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (None restores the null tracer); returns the
    previously active one so callers can restore it."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer` for tests and embedded callers."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)
