"""Observability overhead microbench: the null layers must be ~free.

The tracing/journal instrumentation is compiled into the hot paths, so a
"without instrumentation" baseline no longer exists to diff against.
Instead the bench bounds the overhead analytically: measure the per-call
cost of a null stage (``repro.obs.stage`` with nothing installed) and a
null journal emit, count how many of each a real run performs (by running
once with the layers *enabled*), and bound the null-path tax as
``calls x per-call cost`` against the untraced wall clock.
The bound, plus the enabled-tracer slowdown for context, is written to
``results/BENCH_obs.json`` so the overhead trajectory has data PR-over-PR.

Manual timing (no ``benchmark`` fixture) so the numbers are produced even
under ``--benchmark-disable`` — same idiom as the pipeline microbench.
"""

import io
import json
import pathlib
import time

from repro.obs import (
    NULL_JOURNAL,
    Journal,
    Tracer,
    stage,
    use_journal,
    use_tracer,
)
from repro.sim import ScenarioConfig, run_scenario

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Acceptance bar: the null-layer tax on an untraced run stays under ~3%.
MAX_NULL_OVERHEAD_PCT = 3.0

NULL_CALL_ITERS = 200_000
BENCH_DAYS = 20
BENCH_SCALE = 1e-3


def _config():
    return ScenarioConfig(
        seed=29, duration_days=BENCH_DAYS, volume_scale=BENCH_SCALE,
        n_tail=40, phase1_day=4, phase2_day=7, phase3_day=10,
        specific_start_day=12,
    )


def _null_span_seconds():
    """Per-call cost of a stage with no registry or tracer installed."""
    t0 = time.perf_counter()
    for _ in range(NULL_CALL_ITERS):
        with stage("bench", size=1):
            pass
    return (time.perf_counter() - t0) / NULL_CALL_ITERS


def _null_emit_seconds():
    """Per-call cost of a null journal emit (no validation, no I/O)."""
    t0 = time.perf_counter()
    for _ in range(NULL_CALL_ITERS):
        NULL_JOURNAL.emit("day", day=0, emitted=0)
    return (time.perf_counter() - t0) / NULL_CALL_ITERS


def _measure_runs():
    """Wall-clock an untraced run, then an identical fully-traced run."""
    t0 = time.perf_counter()
    run_scenario(_config())
    null_s = time.perf_counter() - t0

    tracer = Tracer()
    journal = Journal(io.StringIO())
    t0 = time.perf_counter()
    with use_tracer(tracer), use_journal(journal):
        run_scenario(_config())
    traced_s = time.perf_counter() - t0
    return null_s, traced_s, len(tracer.spans), journal.records_written


def test_null_layer_overhead_bounded():
    span_s = _null_span_seconds()
    emit_s = _null_emit_seconds()
    null_s, traced_s, n_spans, n_records = _measure_runs()
    tax_s = n_spans * span_s + n_records * emit_s
    overhead_pct = 100.0 * tax_s / null_s
    data = {
        "null_span_ns": round(span_s * 1e9, 1),
        "null_emit_ns": round(emit_s * 1e9, 1),
        "run": {
            "days": BENCH_DAYS,
            "volume_scale": BENCH_SCALE,
            "spans": n_spans,
            "journal_records": n_records,
            "untraced_s": round(null_s, 4),
            "traced_s": round(traced_s, 4),
            "traced_slowdown": round(traced_s / null_s, 3),
        },
        "null_overhead_pct": round(overhead_pct, 4),
        "max_null_overhead_pct": MAX_NULL_OVERHEAD_PCT,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_obs.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\n{json.dumps(data, indent=2)}\n[written to {path}]")

    # The whole point of the null-object layers: when nothing is installed,
    # the instrumentation must cost a rounding error.
    assert overhead_pct <= MAX_NULL_OVERHEAD_PCT
    # Sanity on the inputs to the bound: a real run produces real spans.
    assert n_spans > BENCH_DAYS  # at least one span per simulated day
    assert n_records >= BENCH_DAYS + 2  # manifest + days + run_end
