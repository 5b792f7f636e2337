"""Metadata joins: source IP -> ASN, AS type, country; source breakdowns.

Implements the paper's §4.4/§5.2 processing: map each source to its origin
AS (RouteViews prefix2as), classify the AS (ASdb, with the paper's manual
overrides applied upstream), geolocate (IPinfo), and produce the Table 3/8
top-ASN rows, the Fig. 5 per-category protocol/source/destination
breakdown, and the Fig. 6 per-country source counts.

Lookups run once per distinct source address, never per row: the rows are
grouped by source first and the ASNs indexed back onto them, and the
per-ASN and per-category counts are numpy groupings over those row ASNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords, distinct_per_group
from repro.datasets.asdb import AsCategory, AsDatabase
from repro.datasets.geodb import GeoDatabase
from repro.datasets.prefix2as import Prefix2As
from repro.net.addr import prefix_groups_u64
from repro.net.packet import ICMPV6, TCP, UDP


@dataclass(frozen=True, slots=True)
class AsnRow:
    """One Table 3/8 row."""

    asn: int
    name: str
    packets: int
    share: float
    unique_128: int
    unique_64: int
    unique_48: int


@dataclass
class CategoryStats:
    """Fig. 5 statistics for one AS category."""

    category: AsCategory
    packets: int = 0
    packets_icmp: int = 0
    packets_tcp: int = 0
    packets_udp: int = 0
    unique_sources_128: int = 0
    unique_destinations_128: int = 0

    @property
    def dominant_protocol(self) -> str:
        best = max(
            (self.packets_icmp, "icmpv6"),
            (self.packets_tcp, "tcp"),
            (self.packets_udp, "udp"),
        )
        return best[1]


@dataclass
class SourceBreakdown:
    """The full §5.2 source characterization."""

    total_packets: int
    total_sources_128: int
    total_asns: int
    top_asns: list[AsnRow]
    by_category: dict[AsCategory, CategoryStats]
    by_country: dict[str, int]
    protocol_shares: dict[str, float]


class MetadataJoiner:
    """Joins packet records against the metadata datasets."""

    def __init__(self, prefix2as: Prefix2As, asdb: AsDatabase,
                 geodb: GeoDatabase | None = None):
        self.prefix2as = prefix2as
        self.asdb = asdb
        self.geodb = geodb
        # Keyed by (address, at): a route installed after ``at`` maps to
        # nothing at ``at`` but to its origin for an undated lookup.
        self._asn_cache: dict[tuple[int, float | None], int] = {}
        self._country_cache: dict[tuple[int, float | None], str | None] = {}

    def asn_of(self, address: int, at: float | None = None) -> int:
        """Origin ASN for a source address (0 when unmapped)."""
        key = (address, at)
        cached = self._asn_cache.get(key)
        if cached is None:
            cached = self.prefix2as.lookup(address, at=at) or 0
            self._asn_cache[key] = cached
        return cached

    def country_of(self, address: int, at: float | None = None) -> str | None:
        if self.geodb is None:
            return None
        key = (address, at)
        if key not in self._country_cache:
            self._country_cache[key] = self.geodb.lookup(address, at=at)
        return self._country_cache[key]

    def row_asns(self, records: PacketRecords) -> np.ndarray:
        """Per-row source ASN array (one lookup per distinct source)."""
        ids, asns = self._source_asns(records)
        return asns[ids]

    def grouped_sources(self, records: PacketRecords) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, hi, lo, asns)``: each row's /128 source group, and each
        group's address halves (in ascending address order) and ASN."""
        ids, hi, lo = prefix_groups_u64(records.src_hi, records.src_lo, 128)
        asns = np.fromiter(
            (self.asn_of((h << 64) | l)
             for h, l in zip(hi.tolist(), lo.tolist())),
            dtype=np.int64, count=len(hi))
        return ids, hi, lo, asns

    def _source_asns(self, records: PacketRecords
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, asns)``: each row's /128 source group and each group's
        ASN."""
        ids, _, _, asns = self.grouped_sources(records)
        return ids, asns

    # -- Table 3 / Table 8 -------------------------------------------------

    def top_asns(self, records: PacketRecords, n: int = 20) -> list[AsnRow]:
        """The top-``n`` source ASNs by packet count."""
        return self._top_asns(records, *self._source_asns(records), n)

    def _top_asns(self, records: PacketRecords, ids: np.ndarray,
                  source_asns: np.ndarray, n: int) -> list[AsnRow]:
        if len(records) == 0:
            return []
        unique_asns, inverse, counts = np.unique(
            source_asns[ids], return_inverse=True, return_counts=True)
        order = np.argsort(counts)[::-1][:n]
        per_asn = {
            length: distinct_per_group(
                inverse, len(unique_asns),
                ids if length == 128 else records.source_groups(length))
            for length in (128, 64, 48)
        }
        return [
            AsnRow(
                asn=int(unique_asns[idx]),
                name=self.asdb.name(int(unique_asns[idx])),
                packets=int(counts[idx]),
                share=float(counts[idx]) / len(records),
                unique_128=int(per_asn[128][idx]),
                unique_64=int(per_asn[64][idx]),
                unique_48=int(per_asn[48][idx]),
            )
            for idx in order
        ]

    # -- Fig. 5 ---------------------------------------------------------------

    def category_breakdown(
        self, records: PacketRecords
    ) -> dict[AsCategory, CategoryStats]:
        """Per-AS-category protocol/source/destination statistics."""
        return self._category_breakdown(records, *self._source_asns(records))

    def _category_breakdown(
        self, records: PacketRecords, ids: np.ndarray,
        source_asns: np.ndarray,
    ) -> dict[AsCategory, CategoryStats]:
        # Categories in order of their lowest ASN, as Fig 5's packet
        # ranking breaks ties by dict order.
        unique_asns, inverse = np.unique(source_asns, return_inverse=True)
        slot_of: dict[AsCategory, int] = {}
        asn_slot = [slot_of.setdefault(self.asdb.classify(asn), len(slot_of))
                    for asn in unique_asns.tolist()]
        row_slot = np.asarray(asn_slot, dtype=np.int64)[inverse][ids]
        k = len(slot_of)
        packets = np.bincount(row_slot, minlength=k)
        by_proto = {
            proto: np.bincount(row_slot[records.proto == np.uint8(proto)],
                               minlength=k)
            for proto in (ICMPV6, TCP, UDP)
        }
        sources = distinct_per_group(row_slot, k, ids)
        destinations = distinct_per_group(
            row_slot, k,
            prefix_groups_u64(records.dst_hi, records.dst_lo, 128)[0])
        return {
            category: CategoryStats(
                category=category,
                packets=int(packets[i]),
                packets_icmp=int(by_proto[ICMPV6][i]),
                packets_tcp=int(by_proto[TCP][i]),
                packets_udp=int(by_proto[UDP][i]),
                unique_sources_128=int(sources[i]),
                unique_destinations_128=int(destinations[i]),
            )
            for category, i in slot_of.items()
        }

    # -- Fig. 6 ---------------------------------------------------------------

    def country_breakdown(self, records: PacketRecords) -> dict[str, int]:
        """Unique /128 sources per country."""
        countries: dict[str, set[int]] = {}
        for src in records.source_set(128):
            country = self.country_of(src)
            if country is not None:
                countries.setdefault(country, set()).add(src)
        return {c: len(s) for c, s in countries.items()}

    # -- combined -------------------------------------------------------------

    def breakdown(self, records: PacketRecords, top_n: int = 20) -> SourceBreakdown:
        """The full §5.2 characterization in one pass."""
        total = len(records)
        protocol_shares = {}
        if total:
            protocol_shares = {
                "icmpv6": float(np.sum(records.proto == np.uint8(ICMPV6))) / total,
                "tcp": float(np.sum(records.proto == np.uint8(TCP))) / total,
                "udp": float(np.sum(records.proto == np.uint8(UDP))) / total,
            }
        ids, source_asns = self._source_asns(records)
        return SourceBreakdown(
            total_packets=total,
            total_sources_128=len(source_asns),
            total_asns=len(np.unique(source_asns[source_asns > 0])),
            top_asns=self._top_asns(records, ids, source_asns, top_n),
            by_category=self._category_breakdown(records, ids, source_asns),
            by_country=self.country_breakdown(records),
            protocol_shares=protocol_shares,
        )
