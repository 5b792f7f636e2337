"""One instrumentation primitive for pipeline stages.

``with stage(name, **attrs):`` times the block into the active registry's
:class:`~repro.obs.registry.Timing` ``name`` and opens a span ``name``
under the active tracer.  Both layers are fetched at call time; when
neither is enabled the call returns the shared :data:`NULL_SPAN`, so an
uninstrumented run pays one function call and two attribute reads.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.registry import Timing, get_registry
from repro.obs.trace import NULL_SPAN, Span, get_tracer


class Stage:
    """A live stage: a timing and a span, either of which may be off."""

    __slots__ = ("timing", "span", "_start", "_nested")

    def __init__(self, timing: Timing | None, span: Span | None):
        self.timing = timing
        self.span = span
        self._start = 0.0
        self._nested = False

    def set(self, **attrs) -> "Stage":
        """Attach attributes to the span (chainable; no-op untraced)."""
        if self.span is not None:
            self.span.set(**attrs)
        return self

    def __enter__(self) -> "Stage":
        timing = self.timing
        if timing is not None:
            # A stage entered while another of the same timing is live
            # records nothing: the outer one's elapsed already covers it.
            self._nested = timing.active > 0
            timing.active += 1
            self._start = perf_counter()
        if self.span is not None:
            self.span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)
        timing = self.timing
        if timing is not None:
            elapsed = perf_counter() - self._start
            timing.active -= 1
            if not self._nested:
                timing.observe(elapsed)


def stage(name: str, **attrs) -> Stage:
    """Time and trace one ``with`` block as the stage ``name``."""
    registry = get_registry()
    tracer = get_tracer()
    if not (registry.enabled or tracer.enabled):
        return NULL_SPAN  # type: ignore[return-value]
    return Stage(registry.timing(name) if registry.enabled else None,
                 tracer.span(name, **attrs) if tracer.enabled else None)
