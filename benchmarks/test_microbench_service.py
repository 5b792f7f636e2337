"""Scenario-service bench: request latency under concurrent HTTP load.

A real :class:`ScenarioServer` is booted in-process and hammered by a
thread-pool load generator (``CLIENTS`` concurrent clients, well past the
acceptance floor of 8).  Two phases share ``results/BENCH_service.json``:

* **cold** — every distinct config is posted simultaneously by several
  clients, so the bench exercises admission, dedupe, and the process-pool
  workers at once; the recorded figure is end-to-end time to *results*
  (POST through completed run);
* **warm** — the same configs re-posted by a fresh service over the same
  cache directory: every request must be answered straight from the
  verified cache, and the p50/p99 request latencies quantify the serving
  overhead without any simulation in the path.

The cache hit ratio comes from the service's own ``/metrics`` surface —
the artifact records what an operator would see, not a bench-side tally.

Manual timing (no ``benchmark`` fixture) so the artifact is produced even
under ``--benchmark-disable``.
"""

import json
import os
import pathlib
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service import ScenarioServer, ScenarioService
from repro.service.client import ServiceClient
from repro.sim import ScenarioConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Concurrent load-generator clients (acceptance floor: >= 8).
CLIENTS = 12

#: Requests per client in the warm phase — enough samples that the p99
#: is a real tail quantile, not the sample maximum.
WARM_REQUESTS_PER_CLIENT = 25

#: Distinct tiny configs: several seconds cold, milliseconds warm.
CONFIGS = [
    ScenarioConfig(seed=seed, duration_days=3, volume_scale=1e-5, n_tail=2)
    for seed in (31, 32, 33, 34)
]


def _merge_results(updates: dict) -> dict:
    """Read-modify-write ``BENCH_service.json`` (same contract as the
    exec bench: phases merge their keys, run order does not matter)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_service.json"
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


def _quantile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _fan_out(worker, n):
    """Run ``worker(i)`` for i in range(n) on n concurrent threads."""
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(worker, range(n)))


def test_service_load():
    with tempfile.TemporaryDirectory() as root:
        cache_dir = os.path.join(root, "cache")

        # -- cold phase: concurrent POSTs, dedupe live, workers busy -----
        server = ScenarioServer(
            ScenarioService(cache_dir, jobs=2, queue_limit=64),
            port=0).start()
        try:
            client = ServiceClient("127.0.0.1", server.port)

            def cold(i):
                config = CONFIGS[i % len(CONFIGS)]
                t0 = time.perf_counter()
                view = client.submit(config)
                submit_s = time.perf_counter() - t0
                client.wait(view["run_id"], timeout=300)
                return submit_s, time.perf_counter() - t0

            cold_samples = _fan_out(cold, CLIENTS)
            cold_total_s = [total for _, total in cold_samples]
            counters = client.metrics()["counters"]
            assert counters["service.cold_runs"] == len(CONFIGS)
            assert counters["service.requests"] == CLIENTS
        finally:
            server.stop()

        # -- warm phase: fresh service, same cache, zero simulations -----
        server = ScenarioServer(
            ScenarioService(cache_dir, jobs=2, queue_limit=64),
            port=0).start()
        try:
            client = ServiceClient("127.0.0.1", server.port)

            def warm(i):
                latencies = []
                for j in range(WARM_REQUESTS_PER_CLIENT):
                    config = CONFIGS[(i + j) % len(CONFIGS)]
                    t0 = time.perf_counter()
                    view = client.submit(config)
                    latencies.append(time.perf_counter() - t0)
                    assert view["state"] == "done"
                return latencies

            t0 = time.perf_counter()
            warm_latencies = [
                s for sub in _fan_out(warm, CLIENTS) for s in sub]
            warm_wall_s = time.perf_counter() - t0

            counters = client.metrics()["counters"]
            requests = counters["service.requests"]
            served_without_run = (counters.get("service.warm_hits", 0)
                                  + counters.get("service.deduped", 0))
            hit_ratio = served_without_run / requests
            # Every warm request is answered from the verified cache.
            assert requests == CLIENTS * WARM_REQUESTS_PER_CLIENT
            assert "service.cold_runs" not in counters
            assert hit_ratio == 1.0
        finally:
            server.stop()

    _merge_results({
        "service_clients": CLIENTS,
        "service_distinct_configs": len(CONFIGS),
        "service_cold_requests": CLIENTS,
        "service_cold_p50_s": round(_quantile(cold_total_s, 0.50), 3),
        "service_cold_p99_s": round(_quantile(cold_total_s, 0.99), 3),
        "service_warm_requests": len(warm_latencies),
        "service_warm_p50_ms": round(
            _quantile(warm_latencies, 0.50) * 1e3, 2),
        "service_warm_p99_ms": round(
            _quantile(warm_latencies, 0.99) * 1e3, 2),
        "service_warm_throughput_rps": round(
            len(warm_latencies) / warm_wall_s, 1),
        "service_warm_cache_hit_ratio": round(hit_ratio, 3),
        "service_bench_cpus": os.cpu_count(),
    })
