"""Simulation layer: the event engine, the Internet fabric wiring all
substrates together, the paper's deployment scenario, and the CDN vantage
point used for the longitudinal motivation figures.
"""

from repro.sim.engine import Engine, Event
from repro.sim.fabric import InternetFabric
from repro.sim.scenario import PaperScenario, ScenarioConfig
from repro.sim.runner import ScenarioResult, SimulationAborted, run_scenario

__all__ = [
    "Engine",
    "Event",
    "InternetFabric",
    "PaperScenario",
    "ScenarioConfig",
    "ScenarioResult",
    "SimulationAborted",
    "run_scenario",
]
