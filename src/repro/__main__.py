"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``list`` — show the available experiments,
* ``run`` — run the full scenario and print the headline tables,
* ``experiment <id> [...]`` — regenerate specific tables/figures,
* ``observe`` — run a streaming observatory: one schema-versioned
  observer JSON per simulated day (scan-event rates per telescope,
  new-scanner discovery, tactic mix, honeyprefix reaction latency),
  then print the rolling drift/changepoint report over the day files,
* ``serve`` — run the multi-tenant scenario service: an asyncio HTTP API
  where clients POST a ``ScenarioConfig`` JSON (and optionally a run
  ``"mode"``) to ``/runs``, identical requests dedupe onto one in-flight
  run, warm ones are served from the run store, progress (and an observe
  run's day records) streams as Server-Sent Events, and
  ``/metrics``/``/traces`` are the ops surface (see
  ``docs/ARCHITECTURE.md``, "Scenario service").

Options shared by ``run``/``experiment``: ``--days``, ``--scale``,
``--seed``, ``--tail``, and the observability trio (composable in one
invocation):

* ``--metrics[=FILE]`` — print a telemetry snapshot after the run; with
  ``FILE``, also write it as JSON;
* ``--trace[=FILE]`` — trace the pipeline and print a self-time-per-stage
  table; with ``FILE``, also write Chrome/Perfetto trace-event JSON;
* ``--journal[=FILE]`` — append the run-provenance journal (manifest,
  per-day progress, session/honeyprefix lifecycle, detection summaries)
  to ``FILE`` (default ``journal.jsonl``);
* ``--cache[=DIR]`` — run through the on-disk run store in ``DIR``
  (default ``.cache``), one entry per config and run mode (batch,
  ``--stream`` or observe): a finished entry is served without
  simulating, a checkpoint is resumed, and a finished run is stored;
* ``--checkpoint-every N`` — also write a checkpoint into the store every
  N days (into ``.cache`` when ``--cache`` is absent), so a rerun of a
  killed run picks up from its last checkpoint instead of day zero.

``experiment`` takes ``--jobs N`` to render report sections in ``N``
worker processes (the report bytes do not depend on N).

Only ``list``, ``experiment`` and a batch ``run`` (its five headline
tables) import :mod:`repro.experiments`, and with it scipy; each does so
inside the function that renders.  ``serve``, ``observe`` and
``run --stream`` never load the report layer, so the service binds its
socket (and forks its pool workers) with only the simulation, cache and
observability modules imported.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs import (
    Journal,
    MetricsRegistry,
    Tracer,
    set_journal,
    set_registry,
    set_tracer,
    stage,
)
from repro.sim import ScenarioConfig, run_scenario

#: --journal without a path appends here.
DEFAULT_JOURNAL_PATH = "journal.jsonl"

#: --cache without a directory (or --checkpoint-every without --cache)
#: uses this.
DEFAULT_CACHE_DIR = ".cache"

#: The observe subcommand writes observer day files here.
DEFAULT_OBSERVE_DIR = "data"


def _positive_int(text: str) -> int:
    """argparse type for ``--days``/``--checkpoint-every``: an integer of
    at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for ``--scale``: a number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Unveiling IPv6 Scanning Dynamics'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="list available experiments",
        description="List the experiment ids 'experiment' accepts.  "
                    "Scenario-driven rows carry a marker column: "
                    "'*' means the experiment fans out internally with "
                    "--jobs N; 's' means its detection inputs can be "
                    "computed by a streaming run (run --stream).")
    list_p.add_argument("--json", action="store_true",
                        help="emit the experiment table as JSON (id, "
                             "standalone, jobs- and stream-eligibility) "
                             "instead of text")

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--days", type=_positive_int, default=100,
                       help="simulated days (default 100)")
        p.add_argument("--scale", type=_positive_float, default=2e-4,
                       help="volume scale vs. the paper (default 2e-4)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tail", type=int, default=140,
                       help="number of long-tail scanner ASes")
        p.add_argument("--metrics", nargs="?", const=True, default=None,
                       metavar="FILE",
                       help="collect pipeline telemetry and print a sorted "
                            "snapshot; with FILE, also write it as JSON")
        p.add_argument("--trace", nargs="?", const=True, default=None,
                       metavar="FILE",
                       help="trace the pipeline and print a self-time-per-"
                            "stage table; with FILE, also write Chrome/"
                            "Perfetto trace-event JSON")
        p.add_argument("--journal", nargs="?", const=DEFAULT_JOURNAL_PATH,
                       default=None, metavar="FILE",
                       help="write the run-provenance journal (JSONL) to "
                            f"FILE (default {DEFAULT_JOURNAL_PATH})")
        p.add_argument("--cache", nargs="?", const=DEFAULT_CACHE_DIR,
                       default=None, metavar="DIR",
                       help="serve, resume and store the run via the "
                            f"on-disk run store in DIR (default "
                            f"{DEFAULT_CACHE_DIR})")
        p.add_argument("--checkpoint-every", type=_positive_int,
                       default=None, metavar="DAYS",
                       help="write a resumable checkpoint into the run "
                            "store every DAYS days (into "
                            f"{DEFAULT_CACHE_DIR} without --cache)")

    run_p = sub.add_parser("run", help="run the scenario, print headlines")
    run_p.add_argument("--stream", action="store_true",
                       help="run scan detection incrementally during the "
                            "day loop and release each day's packets, so "
                            "no packet outlives its day; prints "
                            "a streaming scan summary instead of the "
                            "record-driven tables")
    add_scenario_args(run_p)

    exp_p = sub.add_parser("experiment",
                           help="regenerate specific tables/figures")
    exp_p.add_argument("ids", nargs="+", metavar="ID",
                       help="experiment ids (see 'list'), or 'all'")
    exp_p.add_argument("--output", default=None,
                       help="also write the combined report to this file")
    exp_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="render report sections in N worker processes "
                            "(output is identical for every N)")
    add_scenario_args(exp_p)

    obs_p = sub.add_parser(
        "observe",
        help="run the scenario in observatory mode, print a drift report")
    obs_p.add_argument("--data", default=DEFAULT_OBSERVE_DIR, metavar="DIR",
                       help="observatory directory: one observer JSON per "
                            "simulated day, plus observations.jsonl and "
                            f"index.jsonl (default {DEFAULT_OBSERVE_DIR})")
    obs_p.add_argument("--summary-only", action="store_true",
                       help="skip the simulation; summarize the day files "
                            "already in --data")
    obs_p.add_argument("--json", default=None, metavar="FILE",
                       help="also write the drift report as JSON to FILE")
    add_scenario_args(obs_p)

    serve_p = sub.add_parser(
        "serve", help="serve scenario runs over HTTP (multi-tenant API)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port (default 8642; 0 picks a free one)")
    serve_p.add_argument("--cache", default=DEFAULT_CACHE_DIR, metavar="DIR",
                         help="scenario cache directory backing the service "
                              f"(default {DEFAULT_CACHE_DIR})")
    serve_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes executing cold runs")
    serve_p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                         help="max pending runs before POSTs get 503 "
                              "(default 32)")
    serve_p.add_argument("--cache-budget", type=int, default=None,
                         metavar="BYTES",
                         help="evict least-recently-used unpinned entries "
                              "beyond this many bytes (default: no budget)")
    serve_p.add_argument("--journals", default=None, metavar="DIR",
                         help="run-journal directory (default "
                              "<cache>/journals)")
    serve_p.add_argument("--checkpoint-every", type=_positive_int,
                         default=None, metavar="DAYS",
                         help="checkpoint in-flight runs into the cache "
                              "every DAYS days so a killed service resumes "
                              "instead of recomputing")
    return parser


def _config(args) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed, duration_days=args.days,
        volume_scale=args.scale, n_tail=args.tail,
    )


def _cache_dir(args):
    """The run store directory: ``--cache``, or the default one when only
    ``--checkpoint-every`` asks for a store."""
    if args.cache is None and args.checkpoint_every is not None:
        return DEFAULT_CACHE_DIR
    return args.cache


def _scenario(args, **modes) -> object:
    print(f"running scenario: {args.days} days, scale {args.scale}, "
          f"seed {args.seed} ...", file=sys.stderr)
    return run_scenario(
        _config(args), cache_dir=_cache_dir(args),
        checkpoint_every=args.checkpoint_every, **modes)


def _render_stream_summary(result) -> str:
    """The ``run --stream`` headline: per-telescope scan-event counts at
    every aggregation level, computed without retaining the packets."""
    lines = ["Streaming scan summary (events element-identical to batch "
             "detect_scans)"]
    lines.append(f"  {'telescope':10s} {'packets':>9s} "
                 f"{'scans/128':>9s} {'scans/64':>8s} {'scans/48':>8s}")
    for name, summary in result.streaming.items():
        counts = {level: len(events)
                  for level, events in summary.events.items()}
        lines.append(
            f"  {name:10s} {summary.records_in:9d} "
            f"{counts.get(128, 0):9d} {counts.get(64, 0):8d} "
            f"{counts.get(48, 0):8d}"
        )
    return "\n".join(lines)


def _observe(args) -> int:
    """The ``observe`` subcommand: a streaming observatory run (unless
    ``--summary-only``) followed by the drift report over its day files."""
    import json

    from repro.observatory.drift import DriftReport
    from repro.observatory.index import list_day_files

    if not args.summary_only:
        result = _scenario(args, observe_dir=args.data)
        summary = result.observatory
        print(f"observatory: {summary['days']} day files, "
              f"{summary['records']} telescope records in {args.data}",
              file=sys.stderr)
    if not list_day_files(args.data):
        print(f"error: no observer day files in {args.data}",
              file=sys.stderr)
        return 2
    report = DriftReport.from_data_dir(args.data)
    print(report.render())
    if args.json:
        with open(args.json, "w") as stream:
            json.dump(report.to_json(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"drift report written to {args.json}", file=sys.stderr)
    return 0


def _run(args) -> int:
    """The ``run`` subcommand: the scenario, then its headline tables (or
    the streaming summary when the run drained its captures daily)."""
    result = _scenario(args, stream_analysis=args.stream)
    if result.streaming is not None:
        print()
        print(_render_stream_summary(result))
        return 0
    from repro.experiments import EXPERIMENTS

    for key in ("table1", "table3", "fig5", "fig9", "table4"):
        fn, _ = EXPERIMENTS[key]
        print()
        with stage(f"experiment.{key}"):
            rendered = fn(result).render()
        print(rendered)
    return 0


def _experiment(args, ids: list[str]) -> int:
    """The ``experiment`` subcommand over already-resolved ``ids``."""
    from repro.exec.pool import partition_ids, run_experiments

    result = _scenario(args) if partition_ids(ids)[1] else None
    print(run_experiments(
        ids=ids, jobs=args.jobs, output_path=args.output, result=result,
    ))
    return 0


def _emit_metrics(registry: MetricsRegistry, metrics_arg) -> None:
    """Print the snapshot table; write JSON when a path was given."""
    print()
    print(registry.render_table())
    if isinstance(metrics_arg, str):
        registry.write_json(metrics_arg)
        print(f"metrics written to {metrics_arg}", file=sys.stderr)


def _emit_trace(tracer: Tracer, trace_arg) -> None:
    """Print the self-time table; write Chrome trace when a path was given."""
    print()
    print(tracer.render_self_time())
    if isinstance(trace_arg, str):
        tracer.write_chrome_trace(trace_arg)
        print(f"trace written to {trace_arg}", file=sys.stderr)


def _serve(args) -> int:
    """Run the scenario service until SIGINT/SIGTERM, then drain."""
    import asyncio
    import signal

    from repro.service import ScenarioServer, ScenarioService

    service = ScenarioService(
        args.cache, jobs=args.jobs, queue_limit=args.queue_limit,
        max_cache_bytes=args.cache_budget, journals_dir=args.journals,
        checkpoint_every=args.checkpoint_every,
    )
    server = ScenarioServer(service, host=args.host, port=args.port)

    async def amain() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_stop)
        task = asyncio.ensure_future(server.serve_async())
        # Announce only once the socket is bound (port 0 resolves here).
        while not server._started.is_set():
            await asyncio.sleep(0.01)
        print(f"scenario service on http://{args.host}:{server.port} "
              f"(cache {args.cache}, {args.jobs} worker(s), "
              f"queue limit {args.queue_limit})", file=sys.stderr, flush=True)
        await task

    try:
        asyncio.run(amain())
    finally:
        print("draining in-flight runs ...", file=sys.stderr, flush=True)
        service.close(drain=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.experiments import EXPERIMENTS
        from repro.experiments.report import JOBS_AWARE, STREAM_ELIGIBLE

        if args.json:
            import json

            payload = [
                {
                    "id": key,
                    "standalone": not needs_result,
                    "jobs": key in JOBS_AWARE,
                    "stream": key in STREAM_ELIGIBLE,
                    "description": (fn.__doc__ or "")
                    .strip().splitlines()[0],
                }
                for key, (fn, needs_result) in EXPERIMENTS.items()
            ]
            print(json.dumps(payload, indent=2))
            return 0

        def describe(key: str) -> str:
            fn, _ = EXPERIMENTS[key]
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            marker = "*" if key in JOBS_AWARE else (
                "s" if key in STREAM_ELIGIBLE else " ")
            return f"  {key:8s} {marker} {doc}"

        print("standalone (no scenario run needed):")
        for key, (_, needs_result) in EXPERIMENTS.items():
            if not needs_result:
                print(describe(key))
        print("scenario-driven (share one telescope run; "
              "* = fans out internally with --jobs; "
              "s = detection inputs computable by run --stream):")
        for key, (_, needs_result) in EXPERIMENTS.items():
            if needs_result:
                print(describe(key))
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "experiment":
        # Resolved before any layer is installed: an unknown id exits 2
        # without a metrics snapshot or trace table.
        from repro.exec.pool import UnknownExperimentError, resolve_ids

        try:
            ids = resolve_ids(args.ids)
        except UnknownExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    # Install the observability layers before the scenario is built:
    # components bind their counters at construction time (tracer and
    # journal are fetched at call time, but installing everything up front
    # keeps one composable lifecycle).
    registry = MetricsRegistry() if args.metrics else None
    tracer = Tracer() if args.trace else None
    journal = Journal(args.journal) if args.journal else None
    prev_registry = set_registry(registry) if registry else None
    prev_tracer = set_tracer(tracer) if tracer else None
    prev_journal = set_journal(journal) if journal else None
    try:
        if args.command == "observe":
            code = _observe(args)
        elif args.command == "run":
            code = _run(args)
        else:
            code = _experiment(args, ids)
        if registry:
            _emit_metrics(registry, args.metrics)
        if tracer:
            _emit_trace(tracer, args.trace)
        return code
    finally:
        if registry:
            set_registry(prev_registry)
        if tracer:
            set_tracer(prev_tracer)
        if journal:
            set_journal(prev_journal)
            journal.close()
            print(f"journal written to {args.journal}", file=sys.stderr)


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # ``repro list --json | head`` and friends: the consumer closed
        # the pipe, which is an answer, not an error worth a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
