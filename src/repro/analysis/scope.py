"""Scanner-scope analysis (§5.3.2, Figure 9).

How many /48 prefixes does each scanner probe?  The paper found scanners
confine themselves to announced honeyprefixes: 95% probed <= 2 /48s, 99.92%
fewer than 11, and non-honeyprefix traffic was only 1.6% of the total, half
of it aimed at the first 16 /48s of the covering /32.

All of it is columnar: the traffic shares are ``np.isin`` over the packed
destination /48 key, and each scanner's /48 count comes from one grouping
of ``(source, destination /48)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords, distinct_per_group
from repro.net.addr import IPv6Prefix, pack_key_u64, prefix_groups_u64


@dataclass(frozen=True)
class ScopeReport:
    """Figure 9's statistics."""

    #: sorted array: number of /48s probed, one entry per scanner source.
    prefixes_per_scanner: np.ndarray
    #: fraction of packets destined to any honeyprefix.
    honeyprefix_traffic_share: float
    #: fraction of non-honeyprefix packets aimed at the first 16 /48s.
    low_prefix_share_of_other: float
    #: number of scanner sources exceeding ``wide_threshold`` /48s.
    wide_scanners: int

    def fraction_at_most(self, k: int) -> float:
        """Fraction of scanners probing at most ``k`` /48 prefixes."""
        if len(self.prefixes_per_scanner) == 0:
            return 0.0
        return float(np.mean(self.prefixes_per_scanner <= k))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) suitable for plotting Figure 9."""
        x = np.sort(self.prefixes_per_scanner)
        f = np.arange(1, len(x) + 1) / len(x)
        return x, f


def scanner_scope(
    records: PacketRecords,
    covering_prefix: IPv6Prefix,
    honeyprefixes: list[IPv6Prefix],
    source_length: int = 128,
    wide_threshold: int = 27,
) -> ScopeReport:
    """Compute the Figure 9 scope statistics.

    ``wide_threshold`` defaults to the paper's 27 deployed honeyprefixes;
    sources probing more /48s than that are "wide scanners" roaming outside
    the experiment's scope.
    """
    if len(records) == 0:
        return ScopeReport(
            prefixes_per_scanner=np.zeros(0, dtype=np.int64),
            honeyprefix_traffic_share=0.0,
            low_prefix_share_of_other=0.0,
            wide_scanners=0,
        )
    # Every /48 here lies in the hi half, so a /48 is its packed hi key.
    honey_keys = [(hp.supernet(48) if hp.length > 48 else hp).network >> 64
                  for hp in honeyprefixes]
    first16 = [covering_prefix.subnet_at(i, 48).network >> 64
               for i in range(16)]
    dst48 = pack_key_u64(records.dst_hi, records.dst_lo, 48)
    honey = np.isin(dst48, np.array(honey_keys, dtype=np.uint64))
    honey_packets = int(honey.sum())
    other_packets = len(records) - honey_packets
    other_low = int(np.count_nonzero(
        np.isin(dst48[~honey], np.array(first16, dtype=np.uint64))))

    # Distinct /48s per scanner: one grouping of (source, /48) pairs.
    source, scanners, _ = prefix_groups_u64(records.src_hi, records.src_lo,
                                            source_length)
    _, dst_ids = np.unique(dst48, return_inverse=True)
    counts = np.sort(distinct_per_group(source, len(scanners), dst_ids))
    total = honey_packets + other_packets
    return ScopeReport(
        prefixes_per_scanner=counts,
        honeyprefix_traffic_share=honey_packets / total if total else 0.0,
        low_prefix_share_of_other=(
            other_low / other_packets if other_packets else 0.0
        ),
        wide_scanners=int(np.sum(counts > wide_threshold)),
    )
