"""repro — reproduction of "Unveiling IPv6 Scanning Dynamics" (CoNEXT 2025).

The package itself exports only ``__version__``, so importing a
``repro`` module loads no simulation code it does not import itself; the
subpackages are the API.  A package ``__init__`` re-exports only what
its importers run, so that no process compiles code it never calls; most
subpackages re-export nothing and are imported module by module:

* :mod:`repro.core` — proactive/passive telescopes (the paper's system),
* :mod:`repro.net`, :mod:`repro.routing`, :mod:`repro.dns`,
  :mod:`repro.tlsca`, :mod:`repro.hitlist`, :mod:`repro.datasets` — the
  substrates the telescope plugs into,
* :mod:`repro.scanners` — the synthetic scanner ecosystem,
* :mod:`repro.analysis` — the measurement pipeline (flows, scan detection,
  BSTM causal impact, scope/tactic/geo analyses),
* :mod:`repro.sim` — the event engine, fabric, paper scenario, CDN model
  (``run_scenario`` and ``ScenarioConfig`` are imported from it),
* :mod:`repro.experiments` — one driver per paper table/figure (the
  registry is ``repro.experiments.EXPERIMENTS``; importing it imports
  scipy, which the simulation path never needs).  Of the CLI
  subcommands only ``list``, ``experiment`` and a batch ``run`` load
  it; ``serve``, ``observe`` and ``run --stream`` start without it.
"""

__version__ = "1.2.0"

__all__ = ["__version__"]
