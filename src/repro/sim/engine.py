"""Discrete-event engine.

A classic heap scheduler: events carry a firing time and a callback.  The
scenario layer schedules deployment actions (BGP announcements, TLS
issuance, hitlist insertion, withdrawals) and the daily simulation loop as
events; running the engine advances the clock monotonically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.obs import MetricsRegistry, get_registry, stage


@dataclass(order=True)
class Event:
    """One scheduled event.  Ordering is (time, sequence)."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class Engine:
    """Heap-based discrete-event scheduler."""

    def __init__(self, start_time: float = 0.0,
                 metrics: MetricsRegistry | None = None):
        self.now = start_time
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self.processed = 0
        self._metrics = metrics if metrics is not None else get_registry()
        self._event_counter = self._metrics.counter("engine.events")

    def schedule(self, time: float, action: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule ``action`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        event = Event(time=time, seq=next(self._seq), action=action,
                      label=label)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, action: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative: {delay}")
        return self.schedule(self.now + delay, action, label)

    def peek_time(self) -> float | None:
        """The next event's time, or None when the queue is empty."""
        return self._queue[0].time if self._queue else None

    def step(self) -> Event | None:
        """Run the next event; returns it (or None when done)."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self.now = event.time
        if self._metrics.enabled:
            # Timing every callback costs two clock reads per event, so
            # only a metered run pays for it.
            start = perf_counter()
            event.action()
            elapsed = perf_counter() - start
            self._event_counter.inc()
            label = event.label or "(unlabeled)"
            self._metrics.counter(f"engine.events.{label}").inc()
            self._metrics.timing(f"engine.event.{label}").observe(elapsed)
        else:
            event.action()
        self.processed += 1
        return event

    def run_until(self, end_time: float) -> int:
        """Run all events with time <= end_time; returns the count run."""
        with stage("engine.run_until", until=end_time) as span:
            n = 0
            while self._queue and self._queue[0].time <= end_time:
                self.step()
                n += 1
            self.now = max(self.now, end_time)
        span.set(events=n)
        return n

    def run(self) -> int:
        """Run to queue exhaustion; returns the count run."""
        n = 0
        while self.step() is not None:
            n += 1
        return n
