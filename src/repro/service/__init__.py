"""The scenario service: a multi-tenant async API over the scenario cache.

The simulator as a queryable measurement platform: clients POST a
:class:`~repro.sim.scenario.ScenarioConfig` and a run mode (``batch``,
``stream`` or ``observe``), identical requests dedupe onto one in-flight
run keyed by the run store's entry key, warm ones are served straight
from the content-addressed :class:`~repro.exec.cache.ScenarioCache`, cold
runs are scheduled on a bounded process pool, progress (and an observe
run's day records) streams from the run's own files, and ``/metrics`` +
``/traces`` expose the :mod:`repro.obs` registries as the ops surface.
A run is the service's only resource.

* :mod:`repro.service.core` — :class:`ScenarioService`, the transport-
  agnostic, thread-safe run registry (dedupe, admission, warm tier,
  cache lifecycle, graceful shutdown);
* :mod:`repro.service.http` — :class:`ScenarioServer`, the stdlib
  asyncio HTTP/1.1 front end (``python -m repro serve``);
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  stdlib client (tests, load generator).

Headline guarantee: a result fetched through the service is byte-
identical to a direct ``run_scenario(config)`` in the same mode —
the service only ever serves verified cache entries produced by
``run_scenario`` itself.
"""

from repro.service.core import (
    AdmissionFull,
    PoolBroken,
    ResultUnavailable,
    RunState,
    ScenarioService,
    ServiceClosed,
    ServiceError,
    UnknownRun,
    coerce_config,
)
from repro.service.http import ScenarioServer

__all__ = [
    "AdmissionFull",
    "PoolBroken",
    "ResultUnavailable",
    "RunState",
    "ScenarioServer",
    "ScenarioService",
    "ServiceClosed",
    "ServiceError",
    "UnknownRun",
    "coerce_config",
]
