"""Intra-scenario process sharding: one run, replicated worker worlds.

The experiment pool (:mod:`repro.exec.pool`) parallelizes *across*
scenario runs; this module parallelizes *inside* one.  ``jobs`` persistent
workers each build the identical :class:`~repro.sim.scenario.PaperScenario`
(construction is deterministic under the config seed) and run the day loop,
but each polls, emits, and dispatches only the agents whose index is
congruent to its shard number — every packet is simulated exactly once.

Why replication is sound: world evolution (engine events, hitlist cycles,
BGP collectors, honeyprefix triggers) depends only on the config seed,
never on emitted traffic or on which agents polled, so every replica walks
the same world; and every poll/emission draw comes from a per-agent RNG or
a key-derived decision stream, so a shard's draws are untouched by the
other shards' absence.  The merging parent runs its own replica —
engine-only, it never polls — to produce the honeyprefix/fabric surface
and the engine-phase journal records (deploys, retractions).

**Byte-identity contract**: the merged journal, capture records, and
dispatch counters are identical, byte for byte, to a serial run's.  The
subtle part is journal order.  A serial day writes: engine-event records
(deploy/retract/session_cancel, in event order, cancels in agent order
within an event), then each agent's poll records in agent order, then the
day record.  Workers therefore tag engine-phase records with the engine's
processed-event count — identical across replicas because every replica
processes the identical event sequence — and the parent sort-merges on
``(event ordinal, agent index, emission order)``, with its own
deploy/retract records keyed at agent index -1 (a serial ``_withdraw``
emits the retraction before any cancel).

Each worker runs its day as the serial loop does, through
:meth:`~repro.sim.scenario.PaperScenario.run_agents_day` with its own
agent indices: every owned agent polls and emits in ascending agent order,
then the worker dispatches their rows once.  Workers ship, per day: the
poll-phase journal records (each carries its ``agent``), one capture delta
per telescope (analysis chunks and their origin-bearing truth sidecars),
the emitted count, and the dispatch-counter deltas.  The parent restores
serial order by stably sorting the poll records on ``agent`` and each
telescope's rows on the truth ``origin`` column — exact, because the
serial day and each worker both hold rows in ascending agent order.
Chunks are dropped worker-side once shipped, bounding worker memory to
one window.
"""

from __future__ import annotations

import traceback

import numpy as np

from repro._util import DAY
from repro.exec.parallel import process_context
from repro.obs import (
    get_journal,
    set_journal,
    set_registry,
    set_tracer,
    use_journal,
)
from repro.net.batch import PacketBatch
from repro.obs.journal import RecordingJournal

#: Journal record types that originate from scanner agents — the only
#: kinds a shard worker contributes to the merged journal (everything
#: else, deploys and retractions included, comes from the parent replica).
_SESSION_TYPES = frozenset({"session_start", "session_cancel",
                            "session_drop"})


def shard_indices(n_agents: int, shard_index: int, shard_count: int):
    """The agent indices shard ``shard_index`` of ``shard_count`` owns."""
    return range(shard_index, n_agents, shard_count)


def _counter_tuple(counters) -> tuple:
    return (counters.nta, counters.ntb, counters.ntc,
            counters.live_dropped, counters.unrouted)


def _scenario_capturers(scenario) -> dict:
    return {
        "nta": scenario.telescope.capturer,
        "ntb": scenario.ntb_capturer,
        "ntc": scenario.ntc_capturer,
    }


# -- worker side -----------------------------------------------------------

def _worker_day(scenario, recorder, caps, day: int, shard_index: int,
                shard_count: int) -> dict:
    """Run one day for this shard; returns the merge payload."""
    counters_before = _counter_tuple(scenario.counters)
    # Engine phase: tag records with the processed-event ordinal so the
    # parent can interleave cancels from all shards in serial order.
    recorder.context_fn = lambda: scenario.engine.processed
    day_start, day_end = scenario.begin_day(day)
    engine_records = [
        (tag, fields.get("agent", -1), i, rtype, fields)
        for i, (tag, rtype, fields) in enumerate(recorder.records)
        if rtype in _SESSION_TYPES
    ]
    recorder.context_fn = None
    recorder.clear()
    emitted = scenario.run_agents_day(
        shard_indices(len(scenario.agents), shard_index, shard_count),
        day_start, day_end)
    scenario._last_poll = day_end
    records = [(rtype, fields) for _, rtype, fields in recorder.records]
    recorder.clear()
    captures = {}
    for key, cap in caps.items():
        captures[key] = cap.chunks()
        cap.reset_chunks()
    counter_delta = tuple(
        after - before for before, after
        in zip(counters_before, _counter_tuple(scenario.counters))
    )
    return {"engine": engine_records, "records": records,
            "emitted": emitted, "captures": captures,
            "counters": counter_delta}


def _worker_main(conn, config, shard_index: int, shard_count: int,
                 start_day: int) -> None:
    """Persistent shard worker: build, fast-forward, then serve windows."""
    try:
        # Isolate observability: the fork inherited the parent's registry/
        # tracer/journal objects — a worker must never write to them.
        set_registry(None)
        set_tracer(None)
        recorder = RecordingJournal()
        set_journal(recorder)
        from repro.sim.scenario import PaperScenario

        scenario = PaperScenario(config)
        if start_day:
            with use_journal(None):
                for day in range(start_day):
                    scenario.replay_day(day, shard_index=shard_index,
                                        shard_count=shard_count)
        recorder.clear()
        caps = _scenario_capturers(scenario)
        conn.send(("ready", shard_index))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, window_start, window_end = message
            days = [
                _worker_day(scenario, recorder, caps, day, shard_index,
                            shard_count)
                for day in range(window_start, window_end)
            ]
            conn.send(("window", days))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# -- parent side -----------------------------------------------------------

class ShardWorkerError(RuntimeError):
    """A shard worker died; carries its traceback text."""


class ShardPool:
    """``jobs`` persistent shard workers over pipes.

    Spawned eagerly so worker world construction overlaps the parent's
    own replica build; the first :meth:`send_window` waits for readiness.
    """

    def __init__(self, config, jobs: int, start_day: int = 0):
        if jobs < 2:
            raise ValueError(f"a shard pool needs jobs >= 2, got {jobs}")
        # Flush buffered journal bytes before forking: a child inheriting
        # a non-empty stdio buffer would duplicate it at exit.
        get_journal().flush()
        ctx = process_context()
        self.jobs = jobs
        self._conns = []
        self._procs = []
        self._ready = False
        for shard in range(jobs):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, config, shard, jobs, start_day),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _recv(self, conn):
        try:
            message = conn.recv()
        except EOFError as error:
            raise ShardWorkerError(
                "shard worker exited without reporting a result"
            ) from error
        if message[0] == "error":
            raise ShardWorkerError(f"shard worker failed:\n{message[1]}")
        return message

    def send_window(self, window_start: int, window_end: int) -> None:
        if not self._ready:
            for conn in self._conns:
                self._recv(conn)  # ("ready", shard)
            self._ready = True
        for conn in self._conns:
            conn.send(("run", window_start, window_end))

    def recv_window(self) -> list:
        """Per-worker day payload lists, in shard order."""
        return [self._recv(conn)[1] for conn in self._conns]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


def _merge_capture(deltas) -> PacketBatch | None:
    """One telescope-day's shipped ``(analysis, truth)`` chunk deltas as
    one truth batch in serial row order (None when no rows arrived).

    The serial day and each worker capture rows in ascending agent order,
    so a stable sort on ``origin`` over the shards' concatenated rows
    rebuilds the serial order exactly.  Every shipped row must carry its
    origin: a chunk without one, or analysis and truth row counts that
    differ, raise ``ValueError``.
    """
    analysis_rows = 0
    truth = []
    for chunks, truth_chunks in deltas:
        analysis_rows += sum(len(chunk) for chunk in chunks)
        for chunk in truth_chunks:
            if chunk.origin is None:
                raise ValueError("a shipped capture chunk lacks origin")
            truth.append(chunk)
    truth_rows = sum(len(chunk) for chunk in truth)
    if analysis_rows != truth_rows:
        raise ValueError(
            f"shipped capture rows differ: {analysis_rows} analysis, "
            f"{truth_rows} truth"
        )
    if not truth_rows:
        return None
    merged = PacketBatch.concat(truth)
    return merged.select(np.argsort(merged.origin, kind="stable"))


def merge_day(scenario, journal, day: int, parent_records,
              worker_payloads) -> int:
    """Merge one day's shard outputs into the parent; returns emitted.

    Reconstructs the serial journal order (engine phase sort-merged on
    ``(event ordinal, agent, emission order)``, then poll records stably
    sorted on agent, then the day record), appends each telescope's rows
    as one chunk in serial order (:func:`_merge_capture`), and accumulates
    counter deltas.
    """
    engine_phase = [
        (tag, fields.get("agent", -1), i, rtype, fields)
        for i, (tag, rtype, fields) in enumerate(parent_records)
        if rtype not in _SESSION_TYPES
    ]
    for payload in worker_payloads:
        engine_phase.extend(payload["engine"])
    engine_phase.sort(key=lambda record: (record[0], record[1], record[2]))
    for _tag, _agent, _i, rtype, fields in engine_phase:
        journal.emit(rtype, **fields)

    poll_records = sorted(
        (record for payload in worker_payloads
         for record in payload["records"]),
        key=lambda record: record[1]["agent"],
    )
    for rtype, fields in poll_records:
        journal.emit(rtype, **fields)
    emitted_total = sum(payload["emitted"] for payload in worker_payloads)
    journal.emit("day", day=day, emitted=emitted_total)

    for key, cap in _scenario_capturers(scenario).items():
        merged = _merge_capture(
            [payload["captures"][key] for payload in worker_payloads])
        if merged is not None:
            cap.extend_chunks([merged.drop_origin()], [merged])

    counters = scenario.counters
    for payload in worker_payloads:
        delta = payload["counters"]
        counters.nta += delta[0]
        counters.ntb += delta[1]
        counters.ntc += delta[2]
        counters.live_dropped += delta[3]
        counters.unrouted += delta[4]
    return emitted_total


def run_sharded_days(scenario, pool: ShardPool, *, start_day: int,
                     duration: int, window_days: int):
    """Drive the day loop across the pool; yields ``(day, emitted)``.

    Days run in windows aligned to multiples of ``window_days`` (the
    checkpoint cadence), so every cadence day is a window end and a
    checkpoint never lands while the parent's engine is ahead of the
    merged captures.  For each window the parent first posts the work,
    then advances its own engine through the same days (buffering its
    deploy/retract records with event ordinals) while the workers emit
    and dispatch — the overlap that makes sharding pay — and finally
    merges.  Each day is yielded right after its merge: at that point the
    parent capturers hold exactly that day's rows and the journal ends
    with that day's record.
    """
    journal = get_journal()
    window_days = max(1, int(window_days))
    window_start = start_day
    while window_start < duration:
        window_end = min((window_start // window_days + 1) * window_days,
                         duration)
        pool.send_window(window_start, window_end)
        parent_days = []
        for day in range(window_start, window_end):
            buffer = RecordingJournal(
                context_fn=lambda: scenario.engine.processed
            )
            with use_journal(buffer):
                scenario.begin_day(day)
            scenario._last_poll = (day + 1) * DAY
            parent_days.append(buffer.records)
        worker_days = pool.recv_window()
        for offset, day in enumerate(range(window_start, window_end)):
            emitted = merge_day(
                scenario, journal, day, parent_days[offset],
                [per_worker[offset] for per_worker in worker_days],
            )
            yield day, emitted
        window_start = window_end
