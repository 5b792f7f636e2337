"""Tests for the process-pool executor: determinism, partitioning, errors."""

import pickle

import pytest

from repro.exec.freeze import freeze_result
from repro.exec.parallel import parallel_map
from repro.exec.pool import (
    UnknownExperimentError,
    partition_ids,
    resolve_ids,
    run_experiments,
)
from repro.experiments import EXPERIMENTS

#: A fast mixed selection: two standalone drivers, two scenario consumers
#: (one of them jobs-aware).
MIXED_IDS = ["table2", "table1", "fig9", "fig10"]


class TestIdHandling:
    def test_resolve_all(self):
        assert resolve_ids(None) == list(EXPERIMENTS)
        assert resolve_ids("all") == list(EXPERIMENTS)
        assert resolve_ids(["all"]) == list(EXPERIMENTS)

    def test_resolve_keeps_order(self):
        assert resolve_ids(["fig9", "table1"]) == ["fig9", "table1"]

    def test_unknown_raises_cleanly(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            resolve_ids(["table1", "bogus"])
        message = str(excinfo.value)
        assert message.startswith("unknown experiment id(s): bogus")
        assert "\n" not in message  # one CLI-ready line, no repr wrapping

    def test_partition_preserves_order(self):
        standalone, scenario = partition_ids(MIXED_IDS)
        assert standalone == ["table2"]
        assert scenario == ["table1", "fig9", "fig10"]
        assert all(not EXPERIMENTS[i][1] for i in standalone)
        assert all(EXPERIMENTS[i][1] for i in scenario)


class TestDeterminism:
    def test_jobs2_matches_serial(self, small_result):
        expected = run_experiments(ids=MIXED_IDS, result=small_result, jobs=1)
        actual = run_experiments(ids=MIXED_IDS, result=small_result, jobs=2)
        assert actual == expected

    def test_single_section_inner_jobs(self, small_result):
        """One selected section hands the worker budget to the driver."""
        expected = run_experiments(ids=["fig10"], result=small_result, jobs=1)
        actual = run_experiments(ids=["fig10"], result=small_result, jobs=2)
        assert actual == expected

    def test_standalone_only_needs_no_scenario(self):
        report = run_experiments(ids=["table2", "table5"], jobs=2)
        assert "## table2" in report and "## table5" in report

    def test_output_path(self, small_result, tmp_path):
        path = tmp_path / "report.txt"
        report = run_experiments(ids=["table2"], output_path=path)
        assert path.read_text() == report


class TestJobsAwareDrivers:
    def test_driver_jobs_identical(self, small_result):
        from repro.experiments.effects import fig10, fig8, table4

        assert table4(small_result, jobs=2).render() == \
            table4(small_result, jobs=1).render()
        assert fig8(small_result, jobs=2).render() == \
            fig8(small_result, jobs=1).render()
        assert fig10(small_result, jobs=2).render() == \
            fig10(small_result, jobs=1).render()


class TestFreeze:
    def test_frozen_result_pickles(self, small_result):
        frozen = freeze_result(small_result)
        clone = pickle.loads(pickle.dumps(frozen))
        assert clone.scenario.frozen
        assert clone.honeyprefixes.keys() == small_result.honeyprefixes.keys()
        assert len(clone.nta) == len(small_result.nta)

    def test_frozen_sections_match_live(self, small_result):
        from repro.experiments.report import render_section

        frozen = freeze_result(small_result)
        for experiment_id in ("table1", "fig9", "table4"):
            assert render_section(experiment_id, frozen) == \
                render_section(experiment_id, small_result)


def _square(x):
    return x * x


def _fail(x):
    raise RuntimeError(f"task {x} failed")


class TestParallelMap:
    def test_inline_and_pooled_agree(self):
        tasks = [(i,) for i in range(6)]
        assert parallel_map(_square, tasks, jobs=1) == \
            parallel_map(_square, tasks, jobs=3) == [0, 1, 4, 9, 16, 25]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="task 1 failed"):
            parallel_map(_fail, [(1,), (2,)], jobs=2)
