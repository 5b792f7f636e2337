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
contract the parallel executor and the run store both build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
