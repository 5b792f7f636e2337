"""Per-packet oracles for :class:`repro.sim.runner.ScenarioResult`.

Only the equivalence tests call these, so they live beside them rather
than in the package.
"""

import numpy as np

from repro.analysis.records import PacketRecords


def control_records_reference(result):
    """Per-packet oracle of :meth:`ScenarioResult.control_records`: the
    busiest non-honeyprefix, non-live /48 of NT-A, ties to the first seen."""
    honey = {hp.prefix.network for hp in result.honeyprefixes.values()}
    live = {p.network for p in result.scenario.live_prefixes}
    nets = np.zeros(len(result.nta), dtype=object)
    counts = {}
    for i, dst in enumerate(result.nta.dst_addresses()):
        net = (dst >> 80) << 80
        nets[i] = net
        if net not in honey and net not in live:
            counts[net] = counts.get(net, 0) + 1
    if not counts:
        return PacketRecords.empty()
    best = max(counts, key=counts.get)
    mask = np.fromiter((n == best for n in nets), dtype=bool,
                       count=len(nets))
    return result.nta.select(mask)
