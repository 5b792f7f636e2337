"""Parallel execution and result caching for the reproduction suite.

Coordinated pieces, in the shape of a training/inference stack's
data-parallel + artifact-cache tier:

* :mod:`repro.exec.pool` — :func:`run_experiments`, the process-pool
  experiment scheduler (``python -m repro experiment all --jobs N``);
* :mod:`repro.exec.cache` — :class:`ScenarioCache`, the one on-disk run
  store (``--cache DIR``): one checksummed entry per config and run mode,
  a finished result or, with ``--checkpoint-every N``, a checkpoint that
  the next run of that config and mode resumes from;
* :mod:`repro.exec.parallel` — :func:`parallel_map`, the deterministic
  fan-out primitive shared with the jobs-aware experiment drivers
  (``table4``/``fig7``/``fig8``/``fig10``);
* :mod:`repro.exec.freeze` — :func:`freeze_result`, the picklable slice
  of a run that workers receive and the store keeps.

All of them uphold one determinism contract: output bytes depend only on the
configuration (seeds included), never on ``jobs``, worker identity, or
cache state.  See the "Parallel execution & scenario cache" section of
``docs/ARCHITECTURE.md``.
"""

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntryInfo,
    PINS_FILE,
    ScenarioCache,
)
from repro.exec.freeze import (
    FrozenFabric,
    FrozenScenario,
    freeze_result,
    freeze_scenario,
)
from repro.exec.parallel import parallel_map, process_context

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryInfo",
    "PINS_FILE",
    "FrozenFabric",
    "FrozenScenario",
    "ScenarioCache",
    "freeze_result",
    "freeze_scenario",
    "parallel_map",
    "process_context",
]
