"""Property and unit tests for the metrics layer (`repro.obs`).

Snapshots must round-trip through JSON, and stage timings must nest
safely — including two live stages of the *same* name.
"""

import json
import time

import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    Timing,
    get_registry,
    set_registry,
    stage,
    use_registry,
)


class TestSnapshotJsonRoundTrip:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("pkts").inc()
        registry.counter("pkts").inc(41)
        registry.counter("bytes").inc(2.5)
        registry.gauge("depth").set(7)
        registry.gauge("depth").dec(3)
        registry.timing("stage").observe(0.25)
        return registry

    def test_counter_gauge_values(self):
        snap = self._populated().snapshot()
        assert snap["counters"] == {"bytes": 2.5, "pkts": 42}
        assert snap["gauges"] == {"depth": 4}

    def test_round_trip_identity(self):
        registry = self._populated()
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert json.loads(registry.to_json()) == snap

    def test_write_json(self, tmp_path):
        registry = self._populated()
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text()) == registry.snapshot()

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.counter(name).inc()
        assert list(registry.snapshot()["counters"]) == \
            ["alpha", "mid", "zeta"]

    def test_render_table_lists_every_metric(self):
        registry = self._populated()
        table = registry.render_table()
        for name in ("pkts", "bytes", "depth", "stage"):
            assert name in table

    def test_reset(self):
        registry = self._populated()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "timings": {},
        }


class TestTimers:
    """Stage timings recorded through :func:`repro.obs.stage`."""

    def test_timer_records_elapsed(self):
        with use_registry(MetricsRegistry()) as registry:
            with stage("work"):
                time.sleep(0.01)
        stats = registry.timing("work")
        assert stats.count == 1
        assert stats.total >= 0.01
        assert stats.min == stats.max == stats.total

    def test_nested_distinct_names(self):
        with use_registry(MetricsRegistry()) as registry:
            with stage("outer"):
                with stage("inner"):
                    time.sleep(0.005)
        assert registry.timing("outer").total >= registry.timing("inner").total
        assert registry.timing("inner").total >= 0.005

    def test_nested_same_name(self):
        """A same-name stage nested inside a live one records nothing: the
        outer stage's elapsed already covers it, so double-counting would
        overstate the stage's total."""
        with use_registry(MetricsRegistry()) as registry:
            with stage("stage"):
                time.sleep(0.005)
                with stage("stage"):
                    time.sleep(0.002)
        stats = registry.timing("stage")
        assert stats.count == 1
        assert stats.total >= 0.007
        assert stats.active == 0

    def test_nested_same_name_no_double_count(self):
        """Regression: the nested stage's time must not be added on top of
        the outer stage's — total stays below the sum of both elapsed."""
        with use_registry(MetricsRegistry()) as registry:
            with stage("stage"):
                with stage("stage"):
                    time.sleep(0.004)
        stats = registry.timing("stage")
        assert stats.count == 1
        # Double-counting would make total >= 2 * 0.004.
        assert stats.total < 0.008

    def test_sequential_same_name_still_counts(self):
        """Back-to-back (non-nested) same-name stages each record."""
        with use_registry(MetricsRegistry()) as registry:
            with stage("stage"):
                pass
            with stage("stage"):
                pass
        assert registry.timing("stage").count == 2

    def test_nested_different_names_both_record(self):
        with use_registry(MetricsRegistry()) as registry:
            with stage("outer"):
                with stage("inner"):
                    pass
        assert registry.timing("outer").count == 1
        assert registry.timing("inner").count == 1

    def test_stage_timer_observes_on_exception(self):
        with use_registry(MetricsRegistry()) as registry:
            with pytest.raises(RuntimeError):
                with stage("t"):
                    raise RuntimeError("boom")
        assert registry.timing("t").count == 1
        assert registry.timing("t").active == 0

    def test_timing_snapshot_mean(self):
        timing = Timing("t")
        timing.observe(1.0)
        timing.observe(3.0)
        assert timing.snapshot() == {
            "count": 2, "total": 4.0, "mean": 2.0, "min": 1.0, "max": 3.0,
        }


class TestActiveRegistry:
    def test_default_is_null(self):
        assert isinstance(get_registry(), MetricsRegistry)
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_null_metrics_are_inert_singletons(self):
        registry = NullRegistry()
        counter = registry.counter("a")
        assert counter is registry.counter("b")
        counter.inc(10)
        registry.gauge("g").set(5)
        registry.timing("t").observe(1.0)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "timings": {},
        }

    def test_use_registry_scopes_and_restores(self):
        registry = MetricsRegistry()
        before = get_registry()
        with use_registry(registry) as active:
            assert active is registry
            assert get_registry() is registry
        assert get_registry() is before

    def test_use_registry_restores_on_exception(self):
        before = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is before

    def test_set_registry_none_restores_null(self):
        previous = set_registry(MetricsRegistry())
        try:
            assert get_registry().enabled
            set_registry(None)
            assert get_registry() is NULL_REGISTRY
        finally:
            set_registry(previous)

    def test_counter_and_gauge_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.timing("t") is registry.timing("t")
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
