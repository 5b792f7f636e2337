"""Tests for worker-telemetry fan-in: registry merge and span adoption."""

import json
import os

from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    use_tracer,
)


def _worker_snapshot(label: float, observations):
    """Simulate one worker's registry after some work."""
    registry = MetricsRegistry()
    for value in observations:
        registry.counter("work.items").inc()
        registry.timing("work.stage").observe(value)
    registry.gauge("work.last_label").set(label)
    return registry.snapshot()


class TestRegistryMerge:
    def test_two_workers_match_single_process(self):
        """Merging two worker snapshots equals recording it all locally."""
        merged = MetricsRegistry()
        merged.merge(_worker_snapshot(1, [0.05, 0.5]))
        merged.merge(_worker_snapshot(2, [2.0]))

        single = MetricsRegistry()
        for value in (0.05, 0.5, 2.0):
            single.counter("work.items").inc()
            single.timing("work.stage").observe(value)
        single.gauge("work.last_label").set(2)

        assert merged.snapshot() == single.snapshot()

    def test_merge_is_associative(self):
        # Powers of two keep the float sums exact, so associativity holds
        # bitwise, not just approximately.
        snaps = [_worker_snapshot(i, [float(2 ** i)]) for i in range(3)]
        left = MetricsRegistry().merge(snaps[0]).merge(snaps[1])
        left.merge(snaps[2])
        right = MetricsRegistry().merge(snaps[1]).merge(snaps[2])
        combined = MetricsRegistry().merge(snaps[0]).merge(right)
        assert left.snapshot() == combined.snapshot()

    def test_merge_registry_object(self):
        worker = MetricsRegistry()
        worker.counter("n").inc(5)
        parent = MetricsRegistry()
        parent.counter("n").inc(2)
        assert parent.merge(worker).snapshot()["counters"]["n"] == 7

    def test_timing_min_max_fold(self):
        a = MetricsRegistry()
        a.timing("t").observe(1.0)
        b = MetricsRegistry()
        b.timing("t").observe(3.0)
        merged = MetricsRegistry().merge(a).merge(b)
        stats = merged.snapshot()["timings"]["t"]
        assert stats == {"count": 2, "total": 4.0, "mean": 2.0,
                         "min": 1.0, "max": 3.0}

    def test_empty_merge_is_noop(self):
        parent = MetricsRegistry()
        parent.counter("n").inc()
        before = parent.snapshot()
        parent.merge(MetricsRegistry())
        assert parent.snapshot() == before

    def test_null_registry_merge_is_inert(self):
        assert NULL_REGISTRY.merge(_worker_snapshot(0, [1.0])) is NULL_REGISTRY
        assert NULL_REGISTRY.snapshot()["counters"] == {}


class TestSpanAdoption:
    def _worker_spans(self):
        tracer = Tracer()
        with tracer.span("section", experiment="table4"):
            with tracer.span("inner"):
                pass
        return tracer.export_spans()

    def test_exported_spans_are_plain_dicts(self):
        spans = self._worker_spans()
        assert all(isinstance(s, dict) for s in spans)
        names = {s["name"] for s in spans}
        assert names == {"section", "inner"}
        assert {s["pid"] for s in spans} == {os.getpid()}

    def test_adopt_reparents_under_executor(self):
        parent = Tracer()
        with parent.span("executor") as root:
            parent.adopt(self._worker_spans(), parent=root)
        by_name = {s.name: s for s in parent.spans}
        section = by_name["section"]
        inner = by_name["inner"]
        assert section.parent_id == by_name["executor"].span_id
        assert inner.parent_id == section.span_id
        # The worker's root duration is charged to the executor span.
        assert by_name["executor"].child_time >= section.duration

    def test_adopted_ids_never_collide(self):
        parent = Tracer()
        with parent.span("executor") as root:
            parent.adopt(self._worker_spans(), parent=root)
            parent.adopt(self._worker_spans(), parent=root)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        # Spans opened after adoption keep allocating fresh ids.
        with parent.span("after"):
            pass
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_adopt_nothing(self):
        tracer = Tracer()
        tracer.adopt([])
        assert tracer.spans == []

    def test_null_tracer_adopt_is_inert(self):
        NULL_TRACER.adopt(self._worker_spans())
        assert NULL_TRACER.spans == []


class TestMultiProcessTrace:
    def test_worker_spans_carry_their_process_id(self, tmp_path):
        """A fanned-out report's trace shows each worker as its own
        process: adopted spans keep the worker's pid, not the parent's."""
        from repro.exec.pool import run_experiments

        with use_tracer(Tracer()) as tracer:
            run_experiments(ids=["table2", "table7"], jobs=2)
        [executor] = [s for s in tracer.spans if s.name == "executor"]
        adopted = [s for s in tracer.spans
                   if s.name.startswith("experiment.")]
        assert len(adopted) == 2
        assert executor.pid == os.getpid()
        assert all(0 < s.pid != executor.pid for s in adopted)

        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        events = json.loads(path.read_text())["traceEvents"]
        assert len({e["pid"] for e in events}) >= 2
