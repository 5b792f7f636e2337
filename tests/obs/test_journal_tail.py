"""Journal tailing under crashes: torn lines, truncation, resumed runs.

The crash-tolerance satellite lives here: a run killed mid-day (via the
``abort_after_day`` hook) leaves a journal whose tail a progress stream
is holding open.  The stream must deliver every complete record, never
yield a torn final line, and — after the run resumes into the same
journal path — continue byte-compatibly: the resumed run replays its
full history, so the bytes before the tail's offset are identical and
the concatenated stream equals an uninterrupted run's journal.
"""

import json

import pytest

from repro.obs import (
    Journal,
    JournalError,
    JournalTail,
    read_journal,
    use_journal,
)
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario

DAYS = 12
CADENCE = 4
ABORT_AFTER = 5


def _config():
    return ScenarioConfig(seed=19, duration_days=DAYS, volume_scale=1e-4,
                          n_tail=20, phase1_day=2, phase2_day=4,
                          phase3_day=6, specific_start_day=7,
                          withdraw_after_days=5)


def _emit_days(path, start, count):
    journal = Journal(str(path)) if start == 0 else None
    if journal is None:  # append to an existing journal file
        with open(path, "a", buffering=1) as stream:
            for day in range(start, start + count):
                stream.write(json.dumps(
                    {"v": 1, "type": "day", "day": day, "emitted": day * 10},
                    sort_keys=True) + "\n")
        return
    for day in range(count):
        journal.emit("day", day=day, emitted=day * 10)
    journal.close()


class TestPoll:
    def test_yields_only_newline_terminated_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_days(path, 0, 3)
        with open(path, "a") as stream:
            stream.write('{"v": 1, "type": "day", "day": 3, "emi')  # torn

        tail = JournalTail(path)
        records = tail.poll()
        assert [r["day"] for r in records] == [0, 1, 2]
        # The torn final line stays buffered — polled again, still absent.
        assert tail.poll() == []

        # Once the writer finishes the line, the record appears exactly once.
        with open(path, "a") as stream:
            stream.write('tted": 30}\n')
        assert [r["day"] for r in tail.poll()] == [3]
        assert tail.records_read == 4

    def test_complete_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_days(path, 0, 2)
        with open(path, "a") as stream:
            stream.write("definitely not json\n")  # complete ⇒ corruption
        tail = JournalTail(path)
        with pytest.raises(JournalError):
            tail.poll()

    def test_schema_violation_on_complete_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        (path).write_text('{"v": 1, "type": "day"}\n')  # missing fields
        with pytest.raises(JournalError):
            JournalTail(path).poll()

    def test_missing_file_is_just_empty(self, tmp_path):
        tail = JournalTail(tmp_path / "never-written.jsonl")
        assert tail.poll() == []

    def test_truncation_restarts_from_the_top(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_days(path, 0, 5)
        tail = JournalTail(path)
        assert len(tail.poll()) == 5

        # The file shrinks (a resumed run rewriting from scratch): the tail
        # resets and streams the new content from offset zero.
        _emit_days(path, 0, 2)
        records = tail.poll()
        assert [r["day"] for r in records] == [0, 1]
        assert tail.records_read == 2

    def test_incremental_polls_never_duplicate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _emit_days(path, 0, 2)
        tail = JournalTail(path)
        assert len(tail.poll()) == 2
        assert tail.poll() == []
        _emit_days(path, 2, 3)
        assert [r["day"] for r in tail.poll()] == [2, 3, 4]


class TestCrashTolerance:
    """A killed checkpointed run, streamed while dead, resumed in place.

    Each run works in its own directory with the store at the relative
    path ``ckpt``, so the ``cache_store`` record names the same path in
    every journal."""

    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        """Uninterrupted checkpointed run: the golden journal bytes."""
        root = tmp_path_factory.mktemp("tail-base")
        journal_path = root / "journal.jsonl"
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)
            with use_journal(Journal(str(journal_path))) as journal:
                run_scenario(_config(), cache_dir="ckpt",
                             checkpoint_every=CADENCE)
                journal.close()
        return journal_path.read_bytes()

    def test_killed_run_streams_then_resumes_byte_compatibly(
            self, tmp_path, baseline, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        ckpt = "ckpt"
        monkeypatch.chdir(tmp_path)

        # Phase 1: the run dies after day 5 (last checkpoint: day 4).
        with use_journal(Journal(str(journal_path))) as journal:
            with pytest.raises(SimulationAborted):
                run_scenario(_config(), cache_dir=ckpt,
                             checkpoint_every=CADENCE,
                             abort_after_day=ABORT_AFTER)
            journal.close()
        # Simulate the realistic crash artifact: a torn final line.
        dead_bytes = journal_path.read_bytes()
        with open(journal_path, "ab") as stream:
            stream.write(b'{"v": 1, "type": "day", "day": 99, "emi')

        # A progress stream attached to the dead run delivers every
        # complete record — the torn line is never yielded.
        baseline_records = [json.loads(line)
                            for line in baseline.splitlines()]
        tail = JournalTail(journal_path)
        first = tail.poll()
        assert first == baseline_records[:len(first)]  # a strict prefix
        assert sum(r["type"] == "day" for r in first) == ABORT_AFTER + 1
        assert not any(r.get("day") == 99 for r in first)
        assert tail.poll() == []  # fully drained, torn line still held

        # Phase 2: resume into the *same* journal path.  The fresh journal
        # truncates and replays history, so the first `tail.offset` bytes
        # are rewritten byte-identically and the tail just continues.
        with use_journal(Journal(str(journal_path))) as journal:
            run_scenario(_config(), cache_dir=ckpt,
                         checkpoint_every=CADENCE)
            journal.close()
        rest = tail.poll()
        assert first + rest == baseline_records
        assert [r["type"] for r in rest[-2:]] == ["run_end", "cache_store"]

        # The recovered journal is byte-identical to the uninterrupted
        # run's — and its head matches what the dead run had written.
        recovered = journal_path.read_bytes()
        assert recovered == baseline
        assert recovered.startswith(dead_bytes)
        # read_journal agrees end-to-end (full-file validation path).
        assert read_journal(journal_path) == baseline_records
