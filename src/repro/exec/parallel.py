"""Deterministic process-pool mapping for embarrassingly parallel stages.

:func:`parallel_map` is the one fan-out primitive the executor and the
jobs-aware experiment drivers share.  Its contract:

* results come back **in task order**, never completion order, so callers
  that assemble reports or tables from the mapped results produce
  byte-identical output for every ``jobs`` value;
* ``jobs <= 1`` (or a single task) runs inline in the calling process —
  the serial path and the parallel path execute the *same* function on the
  *same* arguments, so there is no separate code path to drift;
* tasks must be picklable module-level callables with picklable arguments
  (the usual ``ProcessPoolExecutor`` rules); worker exceptions propagate
  to the caller unchanged.

Determinism note: any randomness a task needs must arrive *in its
arguments* (a seed derived from the experiment configuration), never from
worker identity or scheduling order — that rule is what makes the output
independent of ``jobs``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def process_context():
    """The multiprocessing context worker fan-out uses.

    Prefers ``fork`` (workers receive their inputs as pickled task
    arguments either way, but fork skips re-importing the package and
    starts in milliseconds); falls back to the platform default where fork
    is unavailable.  Centralized so every in-repo fan-out picks the same
    start method.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def parallel_map(
    fn: Callable[..., T],
    argument_tuples: Sequence[tuple],
    jobs: int = 1,
) -> list[T]:
    """Apply ``fn(*args)`` to every tuple; results in task order."""
    tasks = list(argument_tuples)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]
