"""Per-target reference builders for the strategies' shared columns.

Before the shared feed views, every strategy built its target list one
:class:`ProbeTarget` at a time and converted it with
:func:`targets_to_columns`.  Those list builders live on here as oracles:
the equivalence tests check that the columnar code reproduces their rows,
in their order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hitlist.categories import HitlistCategory
from repro.net.packet import ICMPV6, TCP, UDP


@dataclass(frozen=True, slots=True)
class ProbeTarget:
    """One concrete probe: destination, protocol, destination port."""

    address: int
    proto: int
    dport: int = 0


def targets_to_columns(targets: list[ProbeTarget]):
    """A per-target list as (dst_hi, dst_lo, proto, dport) columns."""
    n = len(targets)
    dst_hi = np.fromiter(((t.address >> 64) & 0xFFFFFFFFFFFFFFFF
                          for t in targets), dtype=np.uint64, count=n)
    dst_lo = np.fromiter((t.address & 0xFFFFFFFFFFFFFFFF for t in targets),
                         dtype=np.uint64, count=n)
    proto = np.fromiter((t.proto for t in targets), dtype=np.uint8, count=n)
    dport = np.fromiter((t.dport for t in targets), dtype=np.uint16, count=n)
    return dst_hi, dst_lo, proto, dport


def columns_to_targets(columns) -> list[ProbeTarget]:
    """Inverse of :func:`targets_to_columns`."""
    dst_hi, dst_lo, proto, dport = columns
    return [ProbeTarget((int(h) << 64) | int(l), int(p), int(d))
            for h, l, p, d in zip(dst_hi, dst_lo, proto, dport)]


#: The probe ``HitlistConsumer`` sends to an entry of each category.
CATEGORY_PROBES = {
    HitlistCategory.ICMP: (ICMPV6, 0),
    HitlistCategory.TCP80: (TCP, 80),
    HitlistCategory.TCP443: (TCP, 443),
    HitlistCategory.UDP53: (UDP, 53),
}


def hitlist_targets(consumer, at: float) -> list[ProbeTarget]:
    """``HitlistConsumer``'s weighted list, built entry by entry from
    ``snapshot_at``."""
    snapshot = consumer.hitlist.snapshot_at(at)
    targets: list[ProbeTarget] = []
    for category, (proto, port) in CATEGORY_PROBES.items():
        if consumer.categories and category not in consumer.categories:
            continue
        for addr in snapshot.addresses.get(category, ()):
            weight = (consumer.icmp_weight
                      if category is HitlistCategory.ICMP else 1)
            if consumer.interaction_oracle is not None:
                weight *= consumer.ENGAGEMENT_WEIGHTS[
                    consumer.interaction_oracle(addr, at)
                ]
            targets.extend([ProbeTarget(addr, proto, port)] * weight)
    return targets


def ct_targets(addresses, ping_ratio: int) -> list[ProbeTarget]:
    """``CtLogWatcher``'s list for one name's AAAA answer."""
    targets = []
    for addr in addresses:
        targets.append(ProbeTarget(addr, TCP, 443))
        targets.append(ProbeTarget(addr, TCP, 80))
        targets.extend([ProbeTarget(addr, ICMPV6)] * ping_ratio)
    return targets


def zone_targets(addresses, ping_ratio: int,
                 probe_web: bool) -> list[ProbeTarget]:
    """``ZoneFileWatcher``'s list for one domain's AAAA answer."""
    targets = []
    for addr in addresses:
        targets.extend([ProbeTarget(addr, ICMPV6)] * ping_ratio)
        if probe_web:
            for port in (80, 443):
                targets.append(ProbeTarget(addr, TCP, port))
    return targets
