"""Tests for :func:`repro.obs.stage`, the one stage-instrumentation
primitive: it feeds the active registry's timing and the active tracer's
span of the same name, each only when that layer is on."""

import ast
import pathlib

import pytest

from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    stage,
    use_registry,
    use_tracer,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Where a raw ``.span(`` call may appear: the obs layer itself, the
#: executor root (``adopt(parent=root)`` needs the ``Span``) and the
#: scenario service's own ops tracer.
SPAN_ALLOWED = ("obs/", "exec/pool.py", "service/core.py")


class TestStage:
    def test_both_layers_record_one_timing_and_one_span(self):
        with use_registry(MetricsRegistry()) as registry, \
                use_tracer(Tracer()) as tracer:
            with stage("work", size=3) as live:
                live.set(rows=7)
        assert registry.timing("work").count == 1
        assert set(registry.snapshot()["timings"]) == {"work"}
        [span] = tracer.spans
        assert span.name == "work"
        assert span.attrs == {"size": 3, "rows": 7}
        assert span.duration >= 0.0

    def test_registry_only_leaves_tracer_untouched(self):
        tracer = Tracer()
        with use_registry(MetricsRegistry()) as registry:
            with stage("work", size=3) as live:
                live.set(rows=7)
        assert registry.timing("work").count == 1
        assert tracer.spans == []
        assert live.span is None

    def test_tracer_only_leaves_registry_untouched(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with stage("work", size=3) as live:
                live.set(rows=7)
        assert [s.name for s in tracer.spans] == ["work"]
        assert tracer.spans[0].attrs == {"size": 3, "rows": 7}
        assert registry.snapshot()["timings"] == {}
        assert live.timing is None

    def test_neither_layer_returns_the_null_span(self):
        assert stage("work", size=3) is NULL_SPAN
        with stage("work") as live:
            assert live.set(rows=7) is NULL_SPAN

    def test_exception_marks_the_span_and_still_times(self):
        with use_registry(MetricsRegistry()) as registry, \
                use_tracer(Tracer()) as tracer:
            with pytest.raises(KeyError):
                with stage("bad"):
                    raise KeyError("boom")
        assert registry.timing("bad").count == 1
        assert tracer.spans[0].attrs["error"] == "KeyError"

    def test_nested_same_name_traces_both_times_once(self):
        """The same-name rule is the registry's: both spans are kept (the
        trace shows the nesting) while the timing counts the outer one."""
        with use_registry(MetricsRegistry()) as registry, \
                use_tracer(Tracer()) as tracer:
            with stage("stage"):
                with stage("stage"):
                    pass
        assert registry.timing("stage").count == 1
        inner, outer = tracer.spans
        assert inner.parent_id == outer.span_id


def _calls(path: pathlib.Path, attr: str) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


class TestOnePrimitive:
    """Stages go through ``stage``, not paired timer and span calls."""

    def test_no_timer_calls(self):
        offenders = [f"{path.relative_to(SRC)}:{line}"
                     for path in sorted(SRC.rglob("*.py"))
                     for line in _calls(path, "timer")]
        assert offenders == []

    def test_span_calls_only_where_a_span_is_needed(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line}"
            for path in sorted(SRC.rglob("*.py"))
            if not path.relative_to(SRC).as_posix().startswith(SPAN_ALLOWED)
            for line in _calls(path, "span")
        ]
        assert offenders == []

    def test_guard_sees_the_allowed_sites(self):
        """The guard is not vacuous: it finds the sites it exempts."""
        assert _calls(SRC / "exec" / "pool.py", "span")
        assert _calls(SRC / "service" / "core.py", "span")
