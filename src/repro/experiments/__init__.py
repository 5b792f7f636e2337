"""Experiment drivers: one callable per table/figure in the paper.

Each function takes either a :class:`~repro.sim.runner.ScenarioResult`
(NT-A-centric experiments) or shares one default vantage per process (the
§1/App. C longitudinal figures), and returns a structured result object
with a ``render()`` method that prints the same rows/series the paper
reports.

``EXPERIMENTS`` maps experiment ids ("fig1", "table4", ...) to their
drivers, so harnesses can iterate the full reproduction.
"""

from repro.experiments.cdn_growth import fig1, fig2, fig13, table6
from repro.experiments.telescopes import table1, s51_overlap
from repro.experiments.sources import table3, fig5, fig6
from repro.experiments.effects import table4, fig7, fig8, fig10
from repro.experiments.scope import fig9
from repro.experiments.tactics import fig11
from repro.experiments.hilbert_map import fig14
from repro.experiments.configs import table2, table5, table7
from repro.experiments.groundtruth import groundtruth
from repro.experiments.retraction import s531_retraction
from repro.experiments.timeout_sensitivity import footnote1_timeout_sensitivity

#: experiment id -> (driver, needs_scenario_result)
EXPERIMENTS = {
    "fig1": (fig1, False),
    "fig2": (fig2, False),
    "fig13": (fig13, False),
    "table6": (table6, False),
    "table1": (table1, True),
    "s51": (s51_overlap, True),
    "table3": (table3, True),
    "fig5": (fig5, True),
    "fig6": (fig6, True),
    "table4": (table4, True),
    "fig7": (fig7, True),
    "fig8": (fig8, True),
    "fig9": (fig9, True),
    "fig10": (fig10, True),
    "fig11": (fig11, True),
    "fig14": (fig14, True),
    "table2": (table2, False),
    "table5": (table5, False),
    "table7": (table7, False),
    "s531": (s531_retraction, True),
    "footnote1": (footnote1_timeout_sensitivity, True),
    "groundtruth": (groundtruth, True),
}

__all__ = [
    "EXPERIMENTS",
    "fig1", "fig2", "fig13", "table6",
    "table1", "s51_overlap",
    "table3", "fig5", "fig6",
    "table4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig14",
    "table2", "table5", "table7",
    "s531_retraction",
    "footnote1_timeout_sensitivity",
    "groundtruth",
]
