"""Tests for result-class details and the ``experiment all`` CLI."""

import pytest

from repro.experiments import (
    fig1,
    fig2,
    table1,
    table3,
)


class TestResultClassDetails:
    def test_fig1_render_contains_weeks(self):
        rendered = fig1(seed=2).render()
        assert "week" in rendered and "growth factors" in rendered

    def test_fig2_shares_bounded(self):
        result = fig2(seed=2)
        assert 0.0 < result.early_top_share <= 1.0
        assert 0.0 < result.late_top_share <= 1.0

    def test_table1_row_lookup(self, small_result):
        result = table1(small_result)
        with pytest.raises(KeyError):
            result.row("NT-Z")

    def test_table3_rows_sorted(self, small_result):
        result = table3(small_result, n=10)
        packets = [r.packets for r in result.rows]
        assert packets == sorted(packets, reverse=True)
        assert all(r.share <= 1.0 for r in result.rows)


class TestCliAll:
    def test_experiment_all_standalone_only(self, capsys, monkeypatch,
                                            tmp_path):
        """CLI 'all' runs the full registry (uses a tiny scenario)."""
        from repro.__main__ import main

        path = tmp_path / "cli_report.txt"
        code = main([
            "experiment", "all", "--days", "30", "--scale", "5e-5",
            "--tail", "20", "--output", str(path),
        ])
        assert code == 0
        text = path.read_text()
        assert "## table4" in text and "## fig11" in text
        # The retraction happens after this 30-day horizon: noted, not fatal.
        assert "## s531" in text and "skipped" in text
