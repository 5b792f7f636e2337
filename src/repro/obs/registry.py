"""The metrics registry: counters, gauges, stage timings.

Single-threaded fast path: metrics are plain Python objects mutated without
locks (the simulator is single-threaded; a multi-threaded deployment would
shard registries per worker and merge snapshots).  ``snapshot()`` returns a
plain dict of JSON-serializable values; ``to_json``/``write_json`` export it.

The module also owns the *active* registry.  It defaults to
:data:`NULL_REGISTRY`, whose metrics are shared no-op singletons, so
instrumentation in hot paths costs one no-op method call when metrics are
off.  Components bind their metric objects at construction time via
:func:`get_registry`, so enable metrics before building the scenario.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator


class Counter:
    """A monotonically increasing count (floats allowed for volumes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def dec(self, n: int | float = 1) -> None:
        self.value -= n


class Timing:
    """Accumulated wall-clock seconds of one named stage."""

    __slots__ = ("name", "count", "total", "min", "max", "active")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: Live stages of this name (maintained by
        #: :class:`~repro.obs.stage.Stage`): a nested stage of the same
        #: name must not add its elapsed time on top of the enclosing
        #: one's — the outer one already covers it.
        self.active = 0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, n: int | float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    value = 0

    def set(self, value: int | float) -> None:
        pass

    def inc(self, n: int | float = 1) -> None:
        pass

    def dec(self, n: int | float = 1) -> None:
        pass


class _NullTiming:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0

    def observe(self, seconds: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_TIMING = _NullTiming()


class MetricsRegistry:
    """Process-wide named metrics with get-or-create semantics."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timings: dict[str, Timing] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def timing(self, name: str) -> Timing:
        metric = self._timings.get(name)
        if metric is None:
            metric = self._timings[name] = Timing(name)
        return metric

    # -- merging ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or a :meth:`snapshot` dict) into this one.

        The worker-fan-out contract: each worker process records into its
        own registry and ships ``snapshot()`` back; the parent merges them.
        Merging is associative and, for disjoint or purely additive
        metrics, matches a single-process run of the combined workload:

        * **counters** — summed;
        * **timings** — counts and totals summed, min/max folded;
        * **gauges** — last write wins (the merged-in snapshot overrides),
          since a gauge is a point-in-time reading, not an accumulation.

        Returns ``self`` so merges chain.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, stats in snap.get("timings", {}).items():
            timing = self.timing(name)
            if stats.get("count"):
                timing.count += stats["count"]
                timing.total += stats["total"]
                timing.min = min(timing.min, stats["min"])
                timing.max = max(timing.max, stats["max"])
        return self

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict snapshot of every metric, sorted by name."""
        return {
            "counters": {n: self._counters[n].value
                         for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value
                       for n in sorted(self._gauges)},
            "timings": {n: self._timings[n].snapshot()
                        for n in sorted(self._timings)},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def write_json(self, path) -> None:
        with open(path, "w") as stream:
            stream.write(self.to_json())
            stream.write("\n")

    def render_table(self) -> str:
        """Sorted human-readable snapshot table."""
        snap = self.snapshot()
        width = max((len(n) for kind in ("counters", "gauges", "timings")
                     for n in snap[kind]), default=20)
        lines = ["== metrics snapshot =="]
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<{width}}  {value:>14,}")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:<{width}}  {value:>14,}")
        for name, stats in snap["timings"].items():
            lines.append(
                f"  {name:<{width}}  {stats['total']:>12.3f}s  "
                f"(n={stats['count']}, mean {stats['mean'] * 1e3:.2f} ms)"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._timings.clear()


class NullRegistry(MetricsRegistry):
    """Disabled registry: every accessor returns a shared no-op metric."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE  # type: ignore[return-value]

    def timing(self, name: str) -> Timing:
        return _NULL_TIMING  # type: ignore[return-value]

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        return self


#: The shared disabled registry; also the default active registry.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The active registry (the null registry unless metrics are enabled)."""
    return _active


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` (None restores the null registry); returns the
    previously active one so callers can restore it."""
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry` for tests and embedded callers."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)
