"""Longitudinal observatory mode (ROADMAP item 2).

Turns a streaming scenario run into the paper's actual instrument — a
long-running telescope observatory: one schema-versioned, bit-reproducible
``observer`` JSON record per simulated day (:mod:`~repro.observatory.
observer`), an append-only long-horizon index (:mod:`~repro.observatory.
index`), and drift/changepoint summaries over the resulting daily series
(:mod:`~repro.observatory.drift`, reusing the BSTM causal-impact engine).

Entry points: ``run_scenario(..., observe_dir=...)`` (which streams by
itself), CLI ``python -m repro observe``, and an ``observe`` run of the
scenario service, whose day records stream from
``GET /runs/<id>/observations`` and whose day files are served as its
store entry's files.
"""

from repro.observatory.observer import (
    Observatory,
    ObservatoryError,
    ObservatoryState,
    day_file_path,
    day_tactics,
    load_observer_day,
    observer_line,
    validate_observer,
)

__all__ = [
    "Observatory",
    "ObservatoryError",
    "ObservatoryState",
    "day_file_path",
    "day_tactics",
    "load_observer_day",
    "observer_line",
    "validate_observer",
]
