"""Tests for repro._util, the wordlist, and the CLI."""

import inspect

import numpy as np
import pytest

from repro._util import (
    DAY,
    WEEK,
    check_nonnegative,
    check_positive,
    check_probability,
    day_of,
    make_rng,
    spawn_rngs,
    week_of,
    weighted_choice,
)
from repro.__main__ import DEFAULT_CACHE_DIR, _build_parser, main
from repro.core.wordlists import COMMON_SUBDOMAINS_HEAD, common_subdomains
from repro.sim import run_scenario

#: The runner's checkpoint cadence when none is asked for.
RUNNER_CADENCE = inspect.signature(run_scenario).parameters[
    "checkpoint_every"].default


class TestRng:
    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_make_rng_seed_deterministic(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_spawn_independent(self):
        rng = make_rng(0)
        a, b = spawn_rngs(rng, 2)
        assert a.integers(1 << 30) != b.integers(1 << 30)

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(make_rng(0), -1)


class TestTimeHelpers:
    def test_day_of(self):
        assert day_of(0.0) == 0
        assert day_of(DAY - 1) == 0
        assert day_of(DAY) == 1

    def test_week_of(self):
        assert week_of(WEEK + 1) == 1


class TestValidators:
    def test_check_nonnegative(self):
        assert check_nonnegative("x", 0) == 0
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_positive(self):
        assert check_positive("x", 1) == 1
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_probability(self):
        assert check_probability("x", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("x", 1.5)

    def test_weighted_choice(self):
        rng = make_rng(0)
        assert weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a"
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [0.0])


class TestWordlist:
    def test_default_count(self):
        names = common_subdomains()
        assert len(names) == 374
        assert len(set(names)) == 374

    def test_head_is_real_names(self):
        assert "www" in COMMON_SUBDOMAINS_HEAD
        assert "mail" in COMMON_SUBDOMAINS_HEAD
        names = common_subdomains(5)
        assert names == list(COMMON_SUBDOMAINS_HEAD[:5])

    def test_synthetic_fill(self):
        names = common_subdomains(400)
        assert len(names) == 400
        assert names[-1].startswith("svc")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            common_subdomains(-1)

    def test_all_valid_dns_labels(self):
        from repro.dns.records import validate_name

        for name in common_subdomains():
            validate_name(f"{name}.example.com")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig11" in out

    def test_standalone_experiment(self, capsys):
        assert main(["experiment", "table2", "table7"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Twinklenet" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "bogus"]) == 2

    def test_cdn_experiment(self, capsys):
        assert main(["experiment", "fig13"]) == 0
        assert "Fig 13" in capsys.readouterr().out

    def test_metrics_snapshot_printed(self, capsys):
        assert main(["experiment", "table2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics snapshot ==" in out
        assert "experiment.table2" in out

    def test_metrics_json_written(self, capsys, tmp_path):
        import json

        from repro.obs import NULL_REGISTRY, get_registry

        path = tmp_path / "metrics.json"
        assert main(["experiment", "table2", f"--metrics={path}"]) == 0
        snapshot = json.loads(path.read_text())
        assert "experiment.table2" in snapshot["timings"]
        # the CLI must restore the null registry after the run.
        assert get_registry() is NULL_REGISTRY

    def test_metrics_trace_journal_compose(self, capsys, tmp_path):
        """--metrics, --trace, and --journal all work in one invocation."""
        import json

        from repro.obs import (
            NULL_JOURNAL,
            NULL_REGISTRY,
            NULL_TRACER,
            get_journal,
            get_registry,
            get_tracer,
            load_manifest,
            read_journal,
        )

        trace_path = tmp_path / "trace.json"
        journal_path = tmp_path / "journal.jsonl"
        assert main([
            "run", "--days", "3", "--scale", "1e-5", "--tail", "2",
            "--metrics", f"--trace={trace_path}",
            f"--journal={journal_path}",
        ]) == 0
        out = capsys.readouterr().out
        # All three layers reported.
        assert "== metrics snapshot ==" in out
        assert "== trace self-time by stage ==" in out
        assert "scenario.run_day" in out
        # The trace file is Chrome-trace-viewer-loadable JSON.
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        names = {e["name"] for e in trace["traceEvents"]}
        assert "run_scenario" in names and "scenario.run_day" in names
        # The journal opens with a manifest and closes with run_end.
        records = read_journal(journal_path)
        assert records[0]["type"] == "run_manifest"
        assert records[-1]["type"] == "run_end"
        assert load_manifest(journal_path).config["duration_days"] == 3
        # The CLI must restore all three null layers after the run.
        assert get_registry() is NULL_REGISTRY
        assert get_tracer() is NULL_TRACER
        assert get_journal() is NULL_JOURNAL

    def test_trace_without_file_prints_table(self, capsys):
        assert main(["experiment", "table2", "--trace"]) == 0
        assert "== trace" in capsys.readouterr().out


class TestCliListJson:
    def test_list_json_structure(self, capsys):
        import json

        from repro.experiments import EXPERIMENTS
        from repro.experiments.report import JOBS_AWARE, STREAM_ELIGIBLE

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == list(EXPERIMENTS)
        for entry in payload:
            assert set(entry) == {"id", "standalone", "jobs", "stream",
                                  "description"}
            assert entry["jobs"] == (entry["id"] in JOBS_AWARE)
            assert entry["stream"] == (entry["id"] in STREAM_ELIGIBLE)
        assert any(entry["jobs"] for entry in payload)
        assert any(entry["stream"] for entry in payload)

    def test_list_help_documents_markers(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["list", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "'*'" in out and "'s'" in out


class TestCliModeConflicts:
    """The run modes and the run store compose: a streaming or observe
    run with ``--cache`` succeeds, and its warm rerun prints the same
    headline without simulating.  Flags that no longer exist are
    refused cleanly."""

    TINY = ["--days", "2", "--scale", "1e-6", "--tail", "2"]
    COMPOSED = [
        (["run", "--stream"], "Streaming scan summary"),
        (["observe", "--data", "{data}"], "drift"),
    ]

    @pytest.mark.parametrize("argv,headline", COMPOSED, ids=[
        "run --stream --cache", "observe --cache"])
    def test_mode_composes_with_cache(self, capsys, tmp_path, argv,
                                      headline):
        argv = [arg.format(data=tmp_path / "data") for arg in argv]
        command = [*argv, "--cache", str(tmp_path / "store"), *self.TINY]
        journals = []
        outputs = []
        for run in ("cold", "warm"):
            journal = tmp_path / f"{run}.jsonl"
            assert main([*command, "--journal", str(journal)]) == 0
            outputs.append(capsys.readouterr().out)
            journals.append(journal.read_text())
        assert headline.lower() in outputs[0].lower()
        assert outputs[1] == outputs[0]
        assert '"type": "cache_store"' in journals[0]
        assert '"type": "cache_hit"' in journals[1]
        assert '"type": "day"' not in journals[1]

    @pytest.mark.parametrize("flag", ["--resume", "--observe"])
    def test_resume_flag_rejected(self, capsys, flag):
        """Checkpointed runs resume by themselves, so there is no
        ``--resume`` flag to accept; an observe run starts as the
        ``observe`` subcommand, not as ``run --observe``."""
        with pytest.raises(SystemExit) as info:
            main(["run", flag])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize("flag", ["--no-cache", "--checkpoint"])
    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_removed_store_flags_rejected(self, capsys, command, flag):
        """Checkpoints live in the run store, so there is no separate
        checkpoint directory flag (``--checkpoint DIR`` now reads as an
        abbreviated ``--checkpoint-every`` and fails its type check), and
        no flag to defuse ``--cache``."""
        with pytest.raises(SystemExit) as info:
            _build_parser().parse_args([command, flag, ".checkpoints"])
        assert info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert "error:" in error and flag in error

    def test_checkpoint_every_defaults_the_store(self, capsys, tmp_path,
                                                 monkeypatch):
        """``--checkpoint-every`` without ``--cache`` writes into the
        default store directory, which then serves the rerun."""
        monkeypatch.chdir(tmp_path)
        command = ["run", "--stream", "--checkpoint-every", "1", *self.TINY]
        assert main(command) == 0
        cold = capsys.readouterr().out
        assert len(list((tmp_path / DEFAULT_CACHE_DIR).iterdir())) == 1
        assert main([*command, "--journal", "warm.jsonl"]) == 0
        assert capsys.readouterr().out == cold
        assert '"type": "cache_hit"' in (tmp_path / "warm.jsonl").read_text()


class TestCliCheckpointEvery:
    """``--checkpoint-every`` defaults to the runner's (no checkpoints)
    and refuses a cadence below one day at parse time on every
    subcommand."""

    COMMANDS = (["run"], ["experiment", "table1"], ["observe"], ["serve"])

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_default_is_the_runner_cadence(self, command):
        args = _build_parser().parse_args(command)
        assert args.checkpoint_every == RUNNER_CADENCE

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    @pytest.mark.parametrize("value", ["0", "-5", "ten"])
    def test_invalid_cadence_refused(self, capsys, command, value):
        with pytest.raises(SystemExit) as info:
            _build_parser().parse_args(
                [*command, f"--checkpoint-every={value}"])
        assert info.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_service_default_is_the_runner_cadence(self, tmp_path):
        from repro.service import ScenarioService

        service = ScenarioService(tmp_path / "cache")
        try:
            assert service.checkpoint_every == RUNNER_CADENCE
        finally:
            service.close()


class TestCliScenarioSize:
    """``--days`` and ``--scale`` must be positive: a non-positive run
    would render an all-zero report, so argparse refuses it (exit 2)."""

    COMMANDS = (["run"], ["experiment", "table1"], ["observe"])

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    @pytest.mark.parametrize("option,value", [
        ("--days", "0"), ("--days", "-3"), ("--days", "1.5"),
        ("--scale", "0"), ("--scale", "-1"), ("--scale", "nan"),
        ("--scale", "tiny"),
    ])
    def test_non_positive_refused(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as info:
            main([*command, f"{option}={value}"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert option in captured.err

    def test_positive_values_parse(self):
        args = _build_parser().parse_args(
            ["experiment", "table1", "--days", "1", "--scale", "1e-7"])
        assert args.days == 1 and args.scale == 1e-7


class TestCliJobs:
    """``--jobs`` fans out report sections (``experiment``) and cold runs
    (``serve``); ``run`` and ``observe`` have one day loop and reject it
    as an unknown option."""

    @pytest.mark.parametrize("command", ["run", "observe"])
    def test_day_loop_commands_reject_jobs(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--jobs", "2"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err.startswith("usage: ")
        assert "unrecognized arguments: --jobs 2" in captured.err

    @pytest.mark.parametrize("command", [["experiment", "table1"], ["serve"]],
                             ids=["experiment", "serve"])
    def test_fan_out_commands_keep_jobs(self, command):
        assert _build_parser().parse_args([*command, "--jobs", "2"]).jobs == 2


class TestCliObserve:
    def test_observe_end_to_end(self, capsys, tmp_path):
        import json

        data = tmp_path / "data"
        report_path = tmp_path / "drift.json"
        assert main(["observe", "--days", "3", "--scale", "1e-5",
                     "--tail", "2", "--data", str(data),
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Observatory drift report" in out
        assert sorted(p.name for p in data.glob("observer-*.json")) == [
            "observer-00000.json", "observer-00001.json",
            "observer-00002.json"]
        report = json.loads(report_path.read_text())
        assert report["days"] == [0, 1, 2]

        # --summary-only re-renders from the same day files, run-free.
        assert main(["observe", "--summary-only", "--data", str(data)]) == 0
        assert "Observatory drift report" in capsys.readouterr().out

    def test_summary_only_without_data_is_clean_error(self, capsys,
                                                      tmp_path):
        missing = tmp_path / "never-written"
        assert main(["observe", "--summary-only",
                     "--data", str(missing)]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: no observer day files in {missing}"
