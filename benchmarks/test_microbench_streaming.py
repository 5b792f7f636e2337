"""Streaming bench: wall clock against batch, and peak-memory growth.

Every measurement runs in its own *subprocess*, so no run inherits
another's allocations, caches or imports.

Wall clock: one 30-day ``volume_scale=1e-2`` scenario in each mode —

* batch — ``run_scenario`` keeping every record, then ``detect_scans``
  at /128, /64 and /48 per telescope;
* stream — ``run_scenario(stream_analysis=True)``, which sessionizes
  each day's captures online and drops them.

Scan counts from the two children must agree — a bench on divergent
analyses would be meaningless.

Memory growth: a streaming run drains each day's captures, so doubling
the horizon at a flat daily volume must not double its peak.  One
nearly flat-volume config (every honeyprefix, the T-Pots included,
deployed on day 0 and triggered on day 1; no withdrawal, no later
hitlist cycle; the busiest day differs by 6% between the horizons) runs
at H and at 2H days, and the 2H tracemalloc peak (interpreter baseline
excluded) must stay within :data:`GROWTH_BOUND` of the H peak.  Two
gates hold it: one in streaming mode and one in observe mode (the same
config with ``observe_dir``, which adds the observer and its
seen-source keys).  What still grows is state that outlives a day — the
open scan sessions and the target table they hold ids into, the
observer's seen sources and the closed scan events — see
``run_scenario``.  A run that keeps its drained days fails the gate
(:func:`test_growth_gate_catches_retained_days`).  Wall clock is
never measured under tracemalloc, which taxes every allocation.

Manual timing (no ``benchmark`` fixture) so the artifact is produced
even under ``--benchmark-disable``.
"""

import json
import os
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def _merge_results(updates: dict) -> dict:
    """Read-modify-write ``BENCH_streaming.json`` (same convention as the
    exec bench: merging keys keeps run order irrelevant)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_streaming.json"
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.update(updates)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(updates, indent=2)}\n[merged into {path}]")
    return payload


#: The wall-clock config: 30 days at 1e-2 is ~100x the volume of the
#: tier-1 fixtures.
BENCH_CONFIG = dict(
    seed=23, duration_days=30, volume_scale=1e-2, n_tail=40,
    phase1_day=5, phase2_day=8, phase3_day=11, specific_start_day=14,
    tls_offset_days=7, tpot_hitlist_offset_days=10, tpot_tls_offset_days=16,
    udp_hitlist_offset_days=4, withdraw_after_days=20,
)

_DRIVER = """\
import io, json, sys, time

from repro.analysis.scandetect import detect_scans
from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, run_scenario

mode = sys.argv[1]
config = ScenarioConfig(**json.loads(sys.argv[2]))
t0 = time.perf_counter()
counts = {}
with use_journal(Journal(io.StringIO())):
    result = run_scenario(config, stream_analysis=(mode == "stream"))
    if mode == "stream":
        for name, summary in result.streaming.items():
            counts[name] = {str(level): len(events)
                            for level, events in summary.events.items()}
    else:
        for name, records in result.telescopes().items():
            counts[name] = {
                str(level): len(detect_scans(records, source_length=level))
                for level in (128, 64, 48)}
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "scan_counts": counts}))
"""


def _run_child(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, json.dumps(BENCH_CONFIG)],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_streaming_wall_clock():
    batch = _run_child("batch")
    stream = _run_child("stream")

    assert stream["scan_counts"] == batch["scan_counts"]

    wall_ratio = stream["wall_s"] / batch["wall_s"]
    _merge_results({
        "days": BENCH_CONFIG["duration_days"],
        "volume_scale": BENCH_CONFIG["volume_scale"],
        "batch_wall_s": round(batch["wall_s"], 3),
        "stream_wall_s": round(stream["wall_s"], 3),
        "wall_ratio_stream_vs_batch": round(wall_ratio, 3),
    })

    assert wall_ratio <= 1.15, (
        f"streaming wall clock {wall_ratio:.3f}x batch (budget 1.15x)")


#: A nearly flat daily volume: every trigger fires by day 1.
GROWTH_CONFIG = dict(
    seed=23, volume_scale=5e-3, n_tail=40,
    phase1_day=0, phase2_day=0, phase3_day=0, specific_start_day=0,
    tls_offset_days=1, tpot_hitlist_offset_days=1, tpot_tls_offset_days=1,
    udp_hitlist_offset_days=1, withdraw_after_days=100_000,
    hitlist_first_cycle_day=1, hitlist_cycle_days=100_000,
)
GROWTH_DAYS = 8
#: Peak(2H) / peak(H) on GROWTH_CONFIG reads 1.437 in streaming mode
#: (37.5 MB -> 53.9 MB) and 1.458 in observe mode (39.6 MB -> 57.8 MB);
#: tracemalloc peaks repeat within 0.01% for a fixed config.  The growth
#: is the state the ``run_scenario`` docstring lists, most of it the open
#: scan sessions' target ids and the table they index.  A run that keeps
#: its drained days fails the bound, and the 15 -> 30-day run this gate
#: replaced grew 3.1x.
GROWTH_BOUND = 1.85

_GROWTH_DRIVER = """\
import io, json, sys, tempfile, tracemalloc

from repro.analysis import streaming
from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, run_scenario

config = ScenarioConfig(**json.loads(sys.argv[1]))
observe = sys.argv[2] == "observe"
if sys.argv[2] == "keep":
    class KeepingAnalyzer(streaming.StreamAnalyzer):
        # Holds on to every drained day: the retention the gate must catch.
        def feed(self, records, now=None):
            self.__dict__.setdefault("kept", []).append(records)
            return super().feed(records, now=now)

    streaming.StreamAnalyzer = KeepingAnalyzer
sink = io.StringIO()
with tempfile.TemporaryDirectory() as observe_dir:
    tracemalloc.start()
    with use_journal(Journal(sink)):
        run_scenario(config, stream_analysis=True,
                     observe_dir=observe_dir if observe else None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
days = [json.loads(line) for line in sink.getvalue().splitlines()]
print(json.dumps({
    "tracemalloc_peak_bytes": peak,
    "busiest_day_rows": max(sum(r["records_in"] for r in days
                                if r["type"] == "stream_detection"
                                and r["day"] == day)
                            for day in range(config.duration_days)),
}))
"""


def _run_growth_child(days: int, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    config = dict(GROWTH_CONFIG, duration_days=days)
    proc = subprocess.run(
        [sys.executable, "-c", _GROWTH_DRIVER, json.dumps(config), mode],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _growth(mode: str = "drain") -> tuple[float, dict, dict]:
    """Peak growth from H to 2H days: ``mode`` is ``drain`` (streaming),
    ``observe`` (streaming plus the observer) or ``keep`` (streaming that
    retains every drained day)."""
    short = _run_growth_child(GROWTH_DAYS, mode)
    long = _run_growth_child(2 * GROWTH_DAYS, mode)
    # Flat volume: the busiest day at 2H is within 10% of the one at H
    # (156,453 and 166,295 rows), so the growth is state that outlives a
    # day, not a heavier day.
    assert long["busiest_day_rows"] <= 1.1 * short["busiest_day_rows"]
    growth = (long["tracemalloc_peak_bytes"]
              / short["tracemalloc_peak_bytes"])
    return growth, short, long


def test_streaming_peak_memory_growth():
    growth, short, long = _growth()
    _merge_results({
        "growth_days": [GROWTH_DAYS, 2 * GROWTH_DAYS],
        "growth_peak_alloc_bytes": [short["tracemalloc_peak_bytes"],
                                    long["tracemalloc_peak_bytes"]],
        "growth_busiest_day_rows": [short["busiest_day_rows"],
                                    long["busiest_day_rows"]],
        "peak_alloc_growth": round(growth, 3),
    })

    assert growth <= GROWTH_BOUND, (
        f"streaming peak grew {growth:.2f}x from {GROWTH_DAYS} to "
        f"{2 * GROWTH_DAYS} days at a flat daily volume "
        f"(bound {GROWTH_BOUND}x)")


def test_observe_peak_memory_growth():
    growth, short, long = _growth("observe")
    _merge_results({
        "observe_growth_peak_alloc_bytes": [short["tracemalloc_peak_bytes"],
                                            long["tracemalloc_peak_bytes"]],
        "observe_peak_alloc_growth": round(growth, 3),
    })

    assert growth <= GROWTH_BOUND, (
        f"observe-mode peak grew {growth:.2f}x from {GROWTH_DAYS} to "
        f"{2 * GROWTH_DAYS} days at a flat daily volume "
        f"(bound {GROWTH_BOUND}x)")


def test_growth_gate_catches_retained_days():
    """The gate has teeth: a streaming run whose analyzers keep every
    drained day fails it."""
    growth, _, _ = _growth("keep")
    assert growth > GROWTH_BOUND, growth
