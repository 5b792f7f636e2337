"""Property and unit tests for the metrics layer (`repro.obs`).

The histogram's quantile estimator is checked against ``np.percentile`` on
randomized samples (the estimate must land within one bucket width of the
empirical percentile), snapshots must round-trip through JSON, and stage
timings must nest safely — including two live stages of the *same* name.
"""

import json
import math
import time
from bisect import bisect_left

import numpy as np
import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timing,
    get_registry,
    set_registry,
    stage,
    use_registry,
)


def _bucket_width(edges, value):
    """Width of the bucket that owns ``value`` (inf for the open ends)."""
    i = bisect_left(edges, value)
    if i == 0 or i == len(edges):
        return float("inf")
    return edges[i] - edges[i - 1]


class TestHistogramQuantiles:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_within_one_bucket_width(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0.0, 10.0, size=500)
        edges = np.linspace(0.0, 10.0, 21)  # width 0.5, covers the support
        hist = Histogram("h", edges)
        for v in samples:
            hist.observe(float(v))
        for q in (0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            true = float(np.percentile(samples, q * 100))
            assert abs(hist.quantile(q) - true) <= 0.5 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_lognormal_default_edges(self, seed):
        """With the default log-decade edges the bound is the width of the
        bucket owning the true percentile."""
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(mean=-4.0, sigma=1.5, size=400)
        hist = Histogram("h")
        for v in samples:
            hist.observe(float(v))
        for q in (0.1, 0.5, 0.9):
            true = float(np.percentile(samples, q * 100))
            width = _bucket_width(hist.edges, true)
            assert abs(hist.quantile(q) - true) <= width + 1e-9

    def test_extreme_quantiles_clamp_to_observed(self):
        hist = Histogram("h", (1.0, 2.0, 4.0))
        for v in (0.3, 1.5, 3.0, 9.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.3
        assert hist.quantile(1.0) == 9.0

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_single_observation(self):
        hist = Histogram("h", (1.0, 10.0))
        hist.observe(3.0)
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 3.0

    def test_quantile_out_of_range_rejected(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)


class TestHistogramBuckets:
    def test_counts_partition_observations(self):
        rng = np.random.default_rng(0)
        hist = Histogram("h", (1.0, 2.0, 3.0))
        samples = rng.uniform(0.0, 4.0, size=200)
        for v in samples:
            hist.observe(float(v))
        assert sum(hist.counts) == hist.count == 200
        # bucket i is (edges[i-1], edges[i]]; the last bucket is overflow.
        assert hist.counts[0] == int(np.sum(samples <= 1.0))
        assert hist.counts[-1] == int(np.sum(samples > 3.0))

    def test_numpy_array_edges_accepted(self):
        # regression: `edges or DEFAULT_EDGES` raised on numpy arrays.
        hist = Histogram("h", np.linspace(0.0, 1.0, 5))
        hist.observe(0.4)
        assert hist.count == 1

    def test_unsorted_or_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_registry_rejects_conflicting_edges(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        assert registry.histogram("h") is registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))


class TestSnapshotJsonRoundTrip:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("pkts").inc()
        registry.counter("pkts").inc(41)
        registry.counter("bytes").inc(2.5)
        registry.gauge("depth").set(7)
        registry.gauge("depth").dec(3)
        registry.timing("stage").observe(0.25)
        hist = registry.histogram("lat", (0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
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
        for name in ("pkts", "bytes", "depth", "stage", "lat"):
            assert name in table

    def test_reset(self):
        registry = self._populated()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "timings": {}, "histograms": {},
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
        registry.histogram("h").observe(1.0)
        registry.timing("t").observe(1.0)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "timings": {}, "histograms": {},
        }
        assert math.isnan(registry.histogram("h").quantile(0.5))

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
