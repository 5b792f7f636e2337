"""DriftReport: pinned changepoints on toy series, trends, round-trips.

The changepoint engine's acceptance tests use synthetic daily series
with *known* injected shifts: detection must name the exact day, the
effect must carry the injected sign and magnitude, and the whole
analysis must be deterministic (fixed bootstrap seed).
"""

import json

import numpy as np
import pytest

from repro.observatory.drift import DriftReport


def _step_series(n=30, at=20, base=10.0, shift=8.0, noise=0.5, seed=7):
    rng = np.random.default_rng(seed)
    y = base + rng.normal(0.0, noise, size=n)
    y[at:] += shift
    return y


class TestChangepoint:
    def test_noisy_step_detected_at_exact_day(self):
        y = _step_series()
        cp = DriftReport(range(30), {"step": y}).changepoint("step")
        assert cp is not None
        assert cp.day == 20 and cp.index == 20
        assert cp.significant
        # Effect size recovers the injected +8 shift (within the noise).
        assert cp.shift == pytest.approx(8.0, abs=0.5)
        assert cp.ci_low <= cp.shift <= cp.ci_high
        assert cp.z > 3.0

    def test_downward_step_has_negative_shift(self):
        y = np.where(np.arange(30) < 18, 9.0, 1.0).astype(float)
        cp = DriftReport(range(30), {"down": y}).changepoint("down")
        assert cp is not None
        assert cp.day == 18
        assert cp.shift == pytest.approx(-8.0, abs=1e-6)
        assert cp.significant

    def test_day_labels_follow_the_day_axis(self):
        """`day` is the simulated day, not the series position."""
        days = range(100, 130)
        cp = DriftReport(days, {"step": _step_series()}).changepoint("step")
        assert cp.index == 20 and cp.day == 120

    def test_flat_series_has_no_changepoint(self):
        report = DriftReport(range(10), {"flat": np.ones(10)})
        assert report.changepoint("flat") is None

    def test_short_series_has_no_changepoint(self):
        report = DriftReport(range(5), {"s": np.arange(5.0)})
        assert report.changepoint("s") is None

    def test_deterministic(self):
        y = _step_series()
        a = DriftReport(range(30), {"y": y}).changepoint("y")
        b = DriftReport(range(30), {"y": y}).changepoint("y")
        assert a == b


class TestTrend:
    def test_slope_exact_on_linear_series(self):
        y = 3.0 * np.arange(12) + 2.0
        drift = DriftReport(range(12), {"lin": y}).drift("lin")
        assert drift.trend_slope == pytest.approx(3.0)
        assert drift.mean == pytest.approx(float(y.mean()))

    def test_recent_mean_uses_trailing_window(self):
        y = np.concatenate([np.zeros(10), np.full(7, 5.0)])
        drift = DriftReport(range(17), {"y": y}, window=7,
                            z_threshold=np.inf).drift("y")
        assert drift.recent_mean == pytest.approx(5.0)


class TestConstruction:
    def _records(self, values):
        level_zero = {"128": 0, "64": 0, "48": 0}
        return [
            {
                "v": 1, "type": "observer", "day": day,
                "telescopes": {
                    name: {"records": int(v), "events_closed": level_zero,
                           "open_sessions": level_zero,
                           "new_sources": level_zero}
                    for name in ("NT-A", "NT-B", "NT-C")
                },
                "tactics": {"sources": 0, "combos": {}, "shares": {}},
                "honeyprefixes": {},
            }
            for day, v in enumerate(values)
        ]

    def test_from_observations_ignores_end_marker_and_sorts(self):
        records = self._records([1, 2, 3])
        shuffled = [records[2], records[0], records[1],
                    {"v": 1, "type": "observatory_end",
                     "days": 3, "records": 6}]
        report = DriftReport.from_observations(shuffled)
        assert report.days == [0, 1, 2]
        assert list(report.series["NT-A.records"]) == [1.0, 2.0, 3.0]
        assert "tactics.sources" in report.series

    def test_no_observer_records_rejected(self):
        with pytest.raises(ValueError, match="no observer records"):
            DriftReport.from_observations(
                [{"v": 1, "type": "observatory_end",
                  "days": 0, "records": 0}])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="has 2 values"):
            DriftReport(range(3), {"y": [1.0, 2.0]})


class TestRendering:
    def test_render_and_json_agree(self, serial_observatory):
        directory, _ = serial_observatory
        report = DriftReport.from_data_dir(directory)
        rendered = report.render()
        assert "Observatory drift report" in rendered
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["days"] == report.days
        for drift in report.summaries():
            assert drift.name in rendered
            entry = payload["series"][drift.name]
            assert entry["mean"] == pytest.approx(drift.mean)
