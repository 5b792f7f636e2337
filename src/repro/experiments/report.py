"""The consolidated report's building blocks: header and sections.

The report (``python -m repro experiment all``, assembled by
:func:`repro.exec.pool.run_experiments`) is the whole paper's evaluation
in one text artifact: :func:`render_header` followed by one
per-experiment *section* (:func:`render_section`) per selected id.  Each
section is independent of the others, so the executor can render them in
worker processes and concatenate them in id order — producing the exact
bytes the serial path produces.
"""

from __future__ import annotations

import io

from repro.experiments import EXPERIMENTS
from repro.obs import get_registry, stage
from repro.sim.runner import ScenarioResult

#: Experiment drivers that accept a ``jobs=`` keyword and parallelize
#: their independent treatment/control estimations internally.
JOBS_AWARE = frozenset({"table4", "fig7", "fig8", "fig10"})

#: Experiment ids whose detection inputs the streaming engine computes
#: incrementally: their drivers run :func:`~repro.analysis.scandetect
#: .detect_scans` at the paper's parameters, the exact event stream a
#: ``repro run --stream`` run produces without retaining the records.
STREAM_ELIGIBLE = frozenset({"footnote1", "groundtruth"})


def render_header(result: ScenarioResult | None) -> str:
    """The report preamble (scenario line included when one was run)."""
    buffer = io.StringIO()
    buffer.write("# Full reproduction report\n")
    if result is not None:
        config = result.config
        buffer.write(
            f"# scenario: {config.duration_days} days, "
            f"volume_scale={config.volume_scale}, seed={config.seed}\n"
        )
    return buffer.getvalue()


def render_section(
    experiment_id: str,
    result: ScenarioResult | None = None,
    jobs: int = 1,
) -> str:
    """One experiment's report chunk: ``\\n## <id>\\n`` + rendered rows.

    Runs the driver under the active registry/tracer (worker processes
    install their own and ship snapshots back).  An experiment that is
    unrunnable in the configured horizon (e.g. the retraction happens
    after the window ends) renders as a ``(skipped: ...)`` note instead of
    poisoning the rest of the report.
    """
    driver, needs_result = EXPERIMENTS[experiment_id]
    registry = get_registry()
    buffer = io.StringIO()
    buffer.write(f"\n## {experiment_id}\n")
    if needs_result:
        registry.gauge(f"experiment.{experiment_id}.records_in").set(
            len(result.nta) + len(result.ntb) + len(result.ntc)
        )
    kwargs = {"jobs": jobs} if experiment_id in JOBS_AWARE and jobs > 1 else {}
    try:
        with stage(f"experiment.{experiment_id}"):
            output = (driver(result, **kwargs) if needs_result
                      else driver(**kwargs))
    except ValueError as error:
        buffer.write(f"(skipped: {error})\n")
        return buffer.getvalue()
    buffer.write(output.render())
    buffer.write("\n")
    return buffer.getvalue()

