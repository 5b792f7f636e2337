"""Parallel execution and result caching for the reproduction suite.

Coordinated pieces, in the shape of a training/inference stack's
data-parallel + artifact-cache tier:

* :mod:`repro.exec.pool` — :func:`run_experiments`, the process-pool
  experiment scheduler (``python -m repro experiment all --jobs N``);
* :mod:`repro.exec.cache` — :class:`ScenarioCache`, the content-addressed
  on-disk store of frozen scenario results (``--cache DIR``);
* :mod:`repro.exec.parallel` — :func:`parallel_map`, the deterministic
  fan-out primitive shared with the jobs-aware experiment drivers
  (``table4``/``fig7``/``fig8``/``fig10``);
* the checkpoint layer in :mod:`repro.exec.freeze` —
  :func:`save_checkpoint`/:func:`load_checkpoint`, resumable engine-state
  snapshots at day boundaries, one file per run mode (``--checkpoint``).

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
    ScenarioCheckpoint,
    capture_checkpoint,
    checkpoint_path,
    freeze_result,
    freeze_scenario,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.exec.parallel import parallel_map, process_context
from repro.exec.pool import (
    UnknownExperimentError,
    partition_ids,
    resolve_ids,
    run_experiments,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryInfo",
    "PINS_FILE",
    "FrozenFabric",
    "FrozenScenario",
    "ScenarioCache",
    "ScenarioCheckpoint",
    "UnknownExperimentError",
    "capture_checkpoint",
    "checkpoint_path",
    "freeze_result",
    "freeze_scenario",
    "load_checkpoint",
    "parallel_map",
    "partition_ids",
    "process_context",
    "resolve_ids",
    "restore_checkpoint",
    "run_experiments",
    "save_checkpoint",
]
