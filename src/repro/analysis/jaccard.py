"""Telescope source-overlap analysis (§5.1).

Jaccard similarity of scan-source sets between telescopes, at the paper's
three aggregation levels (/32, /64, /128), plus the traffic-share analysis:
what fraction of each telescope's traffic the *overlapping* sources account
for (small at /128, dominant at /64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords
from repro.net.addr import (
    find_keys,
    group_keys,
    mask_u64,
    pack_key_u64,
    split_u64,
)

#: The aggregation levels used in §5.1.
DEFAULT_LEVELS = (32, 64, 128)


def jaccard_similarity(a: set, b: set) -> float:
    """Plain Jaccard similarity of two sets (0 when both are empty)."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True, slots=True)
class OverlapReport:
    """Pairwise overlap between two telescopes at one aggregation level."""

    name_a: str
    name_b: str
    prefix_length: int
    jaccard: float
    #: Fraction of telescope A's packets sent by sources seen at both.
    shared_traffic_share_a: float
    #: Fraction of telescope B's packets sent by sources seen at both.
    shared_traffic_share_b: float
    #: Fraction of A's unique /128 destinations probed by shared sources.
    shared_dest_share_a: float


def _shared_src_mask(records: PacketRecords, shared: set[int],
                     prefix_length: int) -> np.ndarray:
    """Boolean row mask: source (truncated to ``prefix_length``) in ``shared``.

    Uses the packed single-column uint64 key + ``np.isin`` when the
    aggregation length fits in the hi half (<= 64), and the two-column
    128-bit membership helper otherwise — no per-packet Python lookups.
    """
    shared_hi, shared_lo = split_u64(shared)
    packed = pack_key_u64(records.src_hi, records.src_lo, prefix_length)
    if packed is not None:
        # Truncated shared values live entirely in the hi half.
        return np.isin(packed, shared_hi)
    mhi, mlo = mask_u64(records.src_hi, records.src_lo, prefix_length)
    return find_keys((shared_hi, shared_lo), (mhi, mlo)) >= 0


def _traffic_share(records: PacketRecords, shared: set[int],
                   prefix_length: int) -> float:
    if len(records) == 0 or not shared:
        return 0.0
    member = _shared_src_mask(records, shared, prefix_length)
    return int(member.sum()) / len(records)


def _dest_share(records: PacketRecords, shared: set[int],
                prefix_length: int) -> float:
    if len(records) == 0 or not shared:
        return 0.0
    member = _shared_src_mask(records, shared, prefix_length)
    n_all = len(group_keys((records.dst_hi, records.dst_lo))[1])
    n_shared = len(group_keys((records.dst_hi[member],
                               records.dst_lo[member]))[1])
    return n_shared / n_all if n_all else 0.0


def overlap_report(
    name_a: str,
    records_a: PacketRecords,
    name_b: str,
    records_b: PacketRecords,
    prefix_length: int = 64,
) -> OverlapReport:
    """Compute the §5.1 overlap metrics for one telescope pair."""
    from repro.obs import stage

    with stage("analysis.overlap_report", pair=f"{name_a}/{name_b}",
               prefix_length=prefix_length):
        sources_a = records_a.source_set(prefix_length)
        sources_b = records_b.source_set(prefix_length)
        shared = sources_a & sources_b
        return OverlapReport(
            name_a=name_a,
            name_b=name_b,
            prefix_length=prefix_length,
            jaccard=jaccard_similarity(sources_a, sources_b),
            shared_traffic_share_a=_traffic_share(records_a, shared,
                                                  prefix_length),
            shared_traffic_share_b=_traffic_share(records_b, shared,
                                                  prefix_length),
            shared_dest_share_a=_dest_share(records_a, shared, prefix_length),
        )


def jaccard_matrix(
    telescopes: dict[str, PacketRecords],
    levels: tuple[int, ...] = DEFAULT_LEVELS,
) -> dict[tuple[str, str, int], float]:
    """All pairwise Jaccard similarities at every aggregation level."""
    names = sorted(telescopes)
    out: dict[tuple[str, str, int], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for level in levels:
                out[(a, b, level)] = jaccard_similarity(
                    telescopes[a].source_set(level),
                    telescopes[b].source_set(level),
                )
    return out
