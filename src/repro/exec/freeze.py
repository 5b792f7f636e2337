"""Frozen scenario state: the picklable slice workers and caches need.

A live :class:`~repro.sim.scenario.PaperScenario` owns the event engine,
scheduled closures, and every scanner agent — none of which survive a
pickle, and none of which the experiment drivers touch.  What the drivers
*do* read from ``result.scenario`` is a small, fully picklable surface:

* ``config`` — the :class:`~repro.sim.scenario.ScenarioConfig`,
* ``honeyprefixes`` — deployed :class:`~repro.core.honeyprefix.Honeyprefix`
  instances (feature timelines included, for Fig 11 attribution),
* ``live_prefixes`` / ``nta_covering`` — the control-subnet exclusions and
  the Hilbert/scope experiments' covering /32,
* ``fabric.prefix2as`` / ``fabric.asdb`` / ``fabric.geodb`` — the metadata
  datasets behind :class:`~repro.analysis.asinfo.MetadataJoiner`,
* ``counters`` — the dispatch accounting.

:func:`freeze_scenario` captures exactly that surface into a
:class:`FrozenScenario`, and :func:`freeze_result` swaps it into a
:class:`~repro.sim.runner.ScenarioResult` whose columnar records are numpy
arrays (picklable by construction).  A frozen result renders every
registered experiment byte-identically to the live one — the determinism
contract the parallel executor and the scenario cache both build on.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class FrozenFabric:
    """The metadata datasets :class:`MetadataJoiner` consumes."""

    prefix2as: object
    asdb: object
    geodb: object


@dataclass
class FrozenScenario:
    """Engine-free stand-in for ``ScenarioResult.scenario``."""

    config: object
    honeyprefixes: dict = field(default_factory=dict)
    live_prefixes: list = field(default_factory=list)
    nta_covering: object = None
    counters: object = None
    fabric: FrozenFabric | None = None

    #: Marks instances so callers can tell a frozen scenario from a live
    #: one (e.g. to refuse re-running it).
    frozen = True

    def run(self, progress: bool = False) -> None:
        raise RuntimeError(
            "a frozen scenario carries results only and cannot be re-run; "
            "rebuild a PaperScenario from its config instead"
        )


def freeze_scenario(scenario) -> FrozenScenario:
    """Capture the experiment-facing surface of a (run) scenario."""
    if getattr(scenario, "frozen", False):
        return scenario
    fabric = scenario.fabric
    return FrozenScenario(
        config=scenario.config,
        honeyprefixes=dict(scenario.honeyprefixes),
        live_prefixes=list(scenario.live_prefixes),
        nta_covering=scenario.nta_covering,
        counters=scenario.counters,
        fabric=FrozenFabric(
            prefix2as=fabric.prefix2as,
            asdb=fabric.asdb,
            geodb=fabric.geodb,
        ),
    )


def freeze_result(result):
    """A picklable :class:`ScenarioResult` with a frozen scenario inside."""
    from repro.sim.runner import ScenarioResult

    if getattr(result.scenario, "frozen", False):
        return result
    return ScenarioResult(
        scenario=freeze_scenario(result.scenario),
        nta=result.nta, ntb=result.ntb, ntc=result.ntc,
        telemetry=result.telemetry, truth=dict(result.truth),
        streaming=result.streaming, observatory=result.observatory,
    )


# -- engine-state checkpoints ----------------------------------------------
#
# A checkpoint is the *plan-only fast-forward* contract: it stores what a
# resumed process cannot cheaply recompute (the captured chunks, dispatch
# counters, and the journal records emitted so far) and deliberately omits
# what it can (engine queue, RNG states, scanner sessions).  Resume
# rebuilds the scenario from its config and replays the covered days'
# draws without sampling packets — see ``PaperScenario.replay_day`` — so
# the live state after restore is bit-for-bit what an uninterrupted run
# would hold at the same day boundary.

#: Bump when the checkpoint layout changes; mismatched files are ignored
#: (the run starts from day zero rather than crashing).
#: 2: added ``streaming`` (open analyzer state for ``stream_analysis``).
#: 3: added ``observatory`` (observer cursor for ``observe_dir`` runs).
#: 4: scan trackers keep their open sessions as columns.
#: 5: one origin-bearing chunk list per telescope name, no truth sidecar.
CHECKPOINT_PROTOCOL = 5


@dataclass
class ScenarioCheckpoint:
    """Resumable state of a partially run scenario, at a day boundary."""

    protocol: int
    repro_version: str
    config_hash: str
    #: First day the resumed run still has to simulate.
    next_day: int
    #: ``(nta, ntb, ntc, live_dropped, unrouted)`` dispatch totals.
    counters: tuple
    #: telescope name -> captured chunks (``origin`` included), in
    #: arrival order.
    captures: dict
    #: Every journal record emitted since the run started, as
    #: ``(record_type, fields)`` pairs — replayed verbatim on resume so
    #: the resumed journal is byte-identical to an uninterrupted one.
    journal_records: list
    #: ``stream_analysis`` runs only: telescope name ->
    #: :class:`~repro.analysis.streaming.StreamAnalyzer` mid-run (open
    #: sessions and closed events).  None for batch runs.
    streaming: dict | None = None
    #: ``observe_dir`` runs only: the
    #: :class:`~repro.observatory.observer.ObservatoryState` cursor
    #: (seen-source sets, cumulative event counts, honeyprefix first
    #: contacts) at the boundary.
    observatory: object | None = None


def checkpoint_mode(checkpoint: ScenarioCheckpoint) -> str:
    """The run mode (``"batch"``, ``"stream"`` or ``"observe"``) a
    checkpoint's fields say it was written by.

    Each mode has its own checkpoint file: a batch checkpoint carries
    chunks a streaming run never analyzes, a streaming one carries
    analyzer state a batch run would drop, and only an observe one
    carries the observatory cursor.
    """
    if checkpoint.observatory is not None:
        return "observe"
    return "batch" if checkpoint.streaming is None else "stream"


def checkpoint_path(directory, config, mode: str) -> Path:
    """Where ``config``'s checkpoint in run ``mode`` lives: one file per
    config hash and mode, so concurrent runs of different configs never
    clobber each other and one mode never loads another's state."""
    from repro.obs import config_hash

    return Path(directory) / f"{config_hash(config)}-{mode}.ckpt"


def capture_checkpoint(scenario, next_day: int, journal_records,
                       streaming: dict | None = None,
                       observatory: object | None = None,
                       ) -> ScenarioCheckpoint:
    """Snapshot a live scenario's resumable state at a day boundary."""
    from repro import __version__
    from repro.obs import config_hash

    c = scenario.counters
    return ScenarioCheckpoint(
        protocol=CHECKPOINT_PROTOCOL,
        repro_version=__version__,
        config_hash=config_hash(scenario.config),
        next_day=int(next_day),
        counters=(c.nta, c.ntb, c.ntc, c.live_dropped, c.unrouted),
        captures={name: cap.chunks()
                  for name, cap in scenario.capturers.items()},
        journal_records=list(journal_records),
        streaming=streaming,
        observatory=observatory,
    )


def save_checkpoint(directory, checkpoint: ScenarioCheckpoint,
                    config) -> Path:
    """Atomically persist a checkpoint under its own mode's file
    (write-then-rename, so a process killed mid-write can never corrupt
    the previous good checkpoint)."""
    path = checkpoint_path(directory, config, checkpoint_mode(checkpoint))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".ckpt.tmp")
    with open(tmp, "wb") as stream:
        pickle.dump(checkpoint, stream, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_checkpoint(directory, config,
                    mode: str) -> ScenarioCheckpoint | None:
    """Load ``config``'s checkpoint in run ``mode``, or None when no
    usable one exists.

    Missing, torn, stale-version, or wrong-protocol files all return
    None, and so does a file whose fields belong to another mode (a
    renamed file) — the run then simply starts from day zero, which is
    always correct, just slower.
    """
    from repro import __version__
    from repro.obs import config_hash

    path = checkpoint_path(directory, config, mode)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as stream:
            checkpoint = pickle.load(stream)
    except Exception:
        return None
    if (not isinstance(checkpoint, ScenarioCheckpoint)
            or checkpoint.protocol != CHECKPOINT_PROTOCOL
            or checkpoint.repro_version != __version__
            or checkpoint.config_hash != config_hash(config)
            or checkpoint_mode(checkpoint) != mode):
        return None
    return checkpoint


def restore_checkpoint(scenario, checkpoint: ScenarioCheckpoint) -> None:
    """Load a checkpoint's captures and counters into a rebuilt scenario.

    Complements the replay fast-forward: replay re-derives the live
    engine/RNG/session state, this restores the accumulated outputs.
    """
    for name, cap in scenario.capturers.items():
        cap.extend_chunks(checkpoint.captures[name])
    c = scenario.counters
    (c.nta, c.ntb, c.ntc, c.live_dropped, c.unrouted) = checkpoint.counters
