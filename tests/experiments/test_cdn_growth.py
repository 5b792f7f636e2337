"""Tests for the CDN longitudinal experiments (`repro.experiments.cdn_growth`).

Each driver gets a small shared vantage (24 weeks — enough for the 8+8
trend windows); the assertions check that the rendered rows are
internally consistent: shares descending and summing below one, growth
factors finite and positive, and week axes matching the series lengths.
"""

import math

import numpy as np
import pytest

from repro.experiments.cdn_growth import (
    _trend_ratio,
    fig1,
    fig2,
    fig13,
    table6,
)
from repro.sim.cdn import CdnVantage

N_WEEKS = 24


@pytest.fixture(scope="module")
def vantage():
    return CdnVantage(rng=0, n_weeks=N_WEEKS)


class TestTrendRatio:
    def test_constant_series_is_one(self):
        assert _trend_ratio(np.ones(16)) == 1.0

    def test_growing_series_above_one(self):
        assert _trend_ratio(np.arange(1.0, 25.0)) > 1.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            _trend_ratio(np.ones(15))

    def test_zero_early_window_is_inf(self):
        series = np.concatenate([np.zeros(8), np.ones(8)])
        assert _trend_ratio(series) == float("inf")


class TestFig1:
    def test_rows_consistent(self, vantage):
        result = fig1(vantage)
        assert np.array_equal(result.weeks, np.arange(N_WEEKS))
        for series in (result.sources_128, result.sources_64,
                       result.sources_48):
            assert len(series) == N_WEEKS
            assert np.all(series >= 0)
        # aggregation hierarchy: /64 sources are at least /48 sources.
        assert np.all(result.sources_64 >= result.sources_48)

    def test_growth_factors(self, vantage):
        result = fig1(vantage)
        for growth in (result.growth_128, result.growth_64,
                       result.growth_48):
            assert math.isfinite(growth) and growth > 0

    def test_render(self, vantage):
        out = fig1(vantage).render()
        assert out.startswith("Fig 1")
        assert "growth factors" in out


class TestFig2:
    def test_rows_consistent(self, vantage):
        result = fig2(vantage)
        assert len(result.total) == len(result.top_source) == N_WEEKS
        assert np.all(result.top_source <= result.total)
        assert np.all(result.total >= 0)

    def test_shares_are_fractions(self, vantage):
        result = fig2(vantage)
        assert 0.0 < result.early_top_share <= 1.0
        assert 0.0 < result.late_top_share <= 1.0
        # the paper's de-concentration: the top source loses share.
        assert result.late_top_share < result.early_top_share

    def test_growth_and_render(self, vantage):
        result = fig2(vantage)
        assert math.isfinite(result.growth) and result.growth > 1.0
        assert "Fig 2" in result.render()


class TestFig13:
    def test_rows_consistent(self, vantage):
        result = fig13(vantage)
        assert np.array_equal(result.weeks, np.arange(N_WEEKS))
        assert len(result.ases) == N_WEEKS
        # weekly AS counts never exceed the modeled population.
        assert np.all(result.ases <= len(vantage.specs))

    def test_growth_and_render(self, vantage):
        result = fig13(vantage)
        assert math.isfinite(result.growth) and result.growth > 0
        assert result.render().startswith("Fig 13")


class TestTable6:
    def test_rows_consistent(self, vantage):
        rows = table6(vantage, n=10).rows
        assert 0 < len(rows) <= 10
        packets = [row["packets"] for row in rows]
        shares = [row["share"] for row in rows]
        assert packets == sorted(packets, reverse=True)
        assert shares == sorted(shares, reverse=True)
        assert 0.0 < sum(shares) <= 1.0
        for row in rows:
            assert row["share"] == pytest.approx(
                row["packets"] * shares[0] / packets[0])
            assert row["n_64"] >= row["n_48"] >= 1
            assert row["n_128"] >= 1
            assert row["as_type"] and row["country"]

    def test_render(self, vantage):
        out = table6(vantage, n=5).render()
        assert out.startswith("Table 6")
        assert out.count("#") == 5

    def test_default_vantage_path(self):
        """Drivers share a default 104-week vantage when none is passed."""
        result = fig13(seed=1)
        assert len(result.ases) == 104
