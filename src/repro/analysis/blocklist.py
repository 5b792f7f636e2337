"""Blocklist-granularity recommendation (the §6 operational implication).

Traditional blocklists pin individual /128s; IPv6 scanners rotate sources
across allocations as wide as a /30, so per-address entries are useless
against them while /32 entries cause collateral damage against clouds.
This module turns a capture into per-AS blocklist entries at the *narrowest
prefix length that actually contains the observed sources*, with an
explicit collateral-risk signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.asinfo import MetadataJoiner
from repro.analysis.records import PacketRecords
from repro.net.addr import IPv6Prefix


@dataclass(frozen=True)
class BlocklistEntry:
    """One recommended block: the covering prefixes plus risk metadata."""

    asn: int
    as_name: str
    prefixes: tuple[IPv6Prefix, ...]
    packets: int
    sources_128: int
    #: How much address space the entry covers beyond observed sources
    #: (log2 of covered /128s per observed source); high values mean the
    #: scanner's rotation forces a wide block — expect collateral damage.
    overreach_bits: float

    @property
    def granularity(self) -> int:
        """Prefix length of the recommended entries."""
        return self.prefixes[0].length if self.prefixes else 128


def _covering_prefixes(sources: list[int], max_entries: int) -> tuple[
    IPv6Prefix, ...
]:
    """Shortest prefix set (all one length) covering ``sources`` with at
    most ``max_entries`` entries.

    Walks lengths from /128 upward (coarser) until the distinct covering
    networks fit the budget — the same trade-off an operator makes when a
    feed caps their entry count.
    """
    for length in (128, 112, 96, 80, 64, 56, 48, 40, 32, 30, 29):
        shift = 128 - length
        networks = {(s >> shift) << shift for s in sources}
        if len(networks) <= max_entries:
            return tuple(
                IPv6Prefix(network, length) for network in sorted(networks)
            )
    return (IPv6Prefix(0, 0),)


def recommend_blocklist(
    records: PacketRecords,
    joiner: MetadataJoiner,
    max_entries_per_as: int = 16,
    min_packets: int = 10,
) -> list[BlocklistEntry]:
    """Build per-AS blocklist recommendations from captured traffic.

    ASes contributing fewer than ``min_packets`` are skipped (blocklisting
    one-probe sources is how feeds fill with noise).  Entries are sorted by
    packet volume, heaviest first.
    """
    if len(records) == 0:
        return []
    ids, hi, lo, group_asns = joiner.grouped_sources(records)
    group_packets = np.bincount(ids, minlength=len(group_asns))
    # Groups by ASN; the stable sort keeps each AS's sources ascending.
    order = np.argsort(group_asns, kind="stable")
    asns, starts = np.unique(group_asns[order], return_index=True)
    bounds = np.append(starts, len(order)).tolist()
    entries: list[BlocklistEntry] = []
    for k, asn in enumerate(asns.tolist()):
        if asn <= 0:
            continue
        groups = order[bounds[k]:bounds[k + 1]]
        packets = int(group_packets[groups].sum())
        if packets < min_packets:
            continue
        as_sources = [(h << 64) | l for h, l in zip(hi[groups].tolist(),
                                                    lo[groups].tolist())]
        prefixes = _covering_prefixes(as_sources, max_entries_per_as)
        covered = sum(p.num_addresses for p in prefixes)
        overreach = float(np.log2(max(covered / len(as_sources), 1.0)))
        entries.append(BlocklistEntry(
            asn=asn,
            as_name=joiner.asdb.name(asn),
            prefixes=prefixes,
            packets=packets,
            sources_128=len(as_sources),
            overreach_bits=overreach,
        ))
    entries.sort(key=lambda e: -e.packets)
    return entries


def render_blocklist(entries: list[BlocklistEntry],
                     max_rows: int = 10) -> str:
    """Human-readable summary of the recommendations."""
    lines = ["blocklist recommendations (narrowest covering prefixes)"]
    for entry in entries[:max_rows]:
        risk = ("low" if entry.overreach_bits < 16
                else "medium" if entry.overreach_bits < 48 else "HIGH")
        lines.append(
            f"  {entry.as_name:22s} {len(entry.prefixes):3d} x /"
            f"{entry.granularity:<3d} covering {entry.sources_128:6d} "
            f"sources ({entry.packets:7d} pkts, collateral risk {risk})"
        )
    return "\n".join(lines)
