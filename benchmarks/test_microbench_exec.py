"""Executor bench: serial vs parallel vs warm-cache end-to-end wall clock.

``test_exec_wall_clock`` times ``run_experiments`` over the full
experiment set — serial, ``jobs=2`` across report sections, and a
warm-cache rerun — and writes them to ``results/BENCH_exec.json``.
Determinism is always asserted; the only wall-clock assertion is that a
warm-cache rerun beats simulating.

Manual timing (no ``benchmark`` fixture) so the artifact is produced even
under ``--benchmark-disable``.
"""

import json
import pathlib
import tempfile
import time

from repro.exec.pool import run_experiments
from repro.sim import ScenarioConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Small enough to keep the bench minutes-free, long enough that every
#: honeyprefix trigger lands inside the horizon.
BENCH_CONFIG = ScenarioConfig(
    seed=23, duration_days=40, volume_scale=1e-4, n_tail=40,
    phase1_day=5, phase2_day=8, phase3_day=11, specific_start_day=14,
    tls_offset_days=7, tpot_hitlist_offset_days=10, tpot_tls_offset_days=16,
    udp_hitlist_offset_days=4, withdraw_after_days=30,
)


def _timed(**kwargs):
    t0 = time.perf_counter()
    report = run_experiments(config=BENCH_CONFIG, **kwargs)
    return report, time.perf_counter() - t0


def test_exec_wall_clock():
    with tempfile.TemporaryDirectory() as cache_dir:
        serial_report, serial_s = _timed(jobs=1)
        jobs2_report, jobs2_s = _timed(jobs=2)
        cold_report, cold_s = _timed(jobs=1, cache_dir=cache_dir)
        warm_report, warm_s = _timed(jobs=1, cache_dir=cache_dir)

    assert jobs2_report == serial_report
    assert cold_report == serial_report
    assert warm_report == serial_report

    payload = {
        "days": BENCH_CONFIG.duration_days,
        "volume_scale": BENCH_CONFIG.volume_scale,
        "experiments": "all",
        "serial_s": round(serial_s, 3),
        "jobs2_s": round(jobs2_s, 3),
        "cold_cache_s": round(cold_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "warm_speedup_vs_serial": round(serial_s / warm_s, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_exec.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {path}]")

    # Skipping the simulation must pay for the load + checksum pass.
    assert warm_s < serial_s

