"""Observatory bench: observer-emission overhead on a streaming run.

One 30-day ``volume_scale=1e-2`` scenario (the streaming bench's
workload), each mode in its own subprocess:

* stream — plain ``run_scenario(stream_analysis=True)``;
* observe — the same run with ``observe_dir`` set, so every day boundary
  additionally classifies tactics, counts new sources, and writes the
  validated observer JSON.

The contract under test is that observing is a rider, not a second
pipeline: the per-day work is vectorized (one pass classifies the tactics
of NT-A's whole day over every honeyprefix, reading the day index the
detectors already built; new-source counting looks the day's distinct
sources up in a ``KeySet`` of those seen), so the observer must stay
within a few percent of the plain streaming wall clock.  The budget below is deliberately looser
than the target headline (≤3% on an idle machine) to keep CI honest on
shared 1-CPU runners; the measured ratio lands in the artifact either
way.  Scan counts from both children must agree — the observer must not
perturb the analysis it rides on.

Manual timing (no ``benchmark`` fixture) so the artifact is produced
even under ``--benchmark-disable``.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: CI runners are 1-2 shared vCPUs with noisy neighbours; the 3% target
#: is the quiet-machine headline, this is the assertion budget.
WALL_BUDGET = 1.10

from benchmarks.test_microbench_streaming import BENCH_CONFIG  # noqa: E402


def _merge_results(updates: dict) -> dict:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_observatory.json"
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


_DRIVER = """\
import io, json, sys, time

from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, run_scenario

mode, data_dir = sys.argv[1], sys.argv[2]
config = ScenarioConfig(**json.loads(sys.argv[3]))
t0 = time.perf_counter()
with use_journal(Journal(io.StringIO())):
    result = run_scenario(
        config, stream_analysis=True,
        observe_dir=(data_dir if mode == "observe" else None))
wall = time.perf_counter() - t0
counts = {name: {str(level): len(events)
                 for level, events in summary.events.items()}
          for name, summary in result.streaming.items()}
print(json.dumps({
    "wall_s": wall,
    "scan_counts": counts,
    "observatory": result.observatory,
}))
"""


def _run_child(mode: str, data_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, data_dir,
         json.dumps(BENCH_CONFIG)],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_observer_overhead_wall_clock():
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        plain = _run_child("stream", data_dir)
        observe = _run_child("observe", data_dir)

        # Observation must not perturb the streaming analysis itself.
        assert observe["scan_counts"] == plain["scan_counts"]
        assert observe["observatory"]["days"] == \
            BENCH_CONFIG["duration_days"]

        wall_ratio = observe["wall_s"] / plain["wall_s"]
        _merge_results({
            "days": BENCH_CONFIG["duration_days"],
            "volume_scale": BENCH_CONFIG["volume_scale"],
            "stream_wall_s": round(plain["wall_s"], 3),
            "observe_wall_s": round(observe["wall_s"], 3),
            "wall_ratio_observe_vs_stream": round(wall_ratio, 3),
            "wall_budget": WALL_BUDGET,
            "observer_days": observe["observatory"]["days"],
            "observer_records": observe["observatory"]["records"],
        })

        assert wall_ratio <= WALL_BUDGET, (
            f"observer overhead {wall_ratio:.3f}x plain streaming "
            f"(budget {WALL_BUDGET}x)")
