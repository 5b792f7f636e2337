"""Columnar packet records: the analysis pipeline's working format.

Addresses are stored as two uint64 columns (hi/lo halves of the 128-bit
value) so that numpy can mask, compare, and group them without per-packet
Python objects.  All filtering operations return new views/copies; records
are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro._util import DAY
from repro.net.addr import (
    IPv6Prefix,
    group_keys,
    mask_u64,
    pack_key_u64,
    prefix_groups_u64,
    unique_pairs_u64,
)
from repro.net.packet import Packet

_U64 = 0xFFFFFFFFFFFFFFFF


def _prefix_halves(prefix: IPv6Prefix) -> tuple[np.uint64, np.uint64]:
    return (
        np.uint64((prefix.network >> 64) & _U64),
        np.uint64(prefix.network & _U64),
    )


def distinct_per_group(group: np.ndarray, n_groups: int,
                       ids: np.ndarray) -> np.ndarray:
    """Number of distinct ``ids`` among the rows of each of ``n_groups``
    row groups; ``group`` and ``ids`` hold one non-negative int per row."""
    span = int(ids.max()) + 1 if len(ids) else 1
    pairs = np.unique(group * span + ids)
    return np.bincount(pairs // span, minlength=n_groups)


@dataclass(frozen=True)
class PacketRecords:
    """Immutable columnar packet capture."""

    ts: np.ndarray        # float64
    src_hi: np.ndarray    # uint64
    src_lo: np.ndarray    # uint64
    dst_hi: np.ndarray    # uint64
    dst_lo: np.ndarray    # uint64
    proto: np.ndarray     # uint8
    sport: np.ndarray     # uint16
    dport: np.ndarray     # uint16

    def __post_init__(self) -> None:
        n = len(self.ts)
        for name in ("src_hi", "src_lo", "dst_hi", "dst_lo",
                     "proto", "sport", "dport"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_columns(cls, ts, src_hi, src_lo, dst_hi, dst_lo,
                     proto, sport, dport) -> "PacketRecords":
        return cls(
            ts=np.asarray(ts, dtype=np.float64),
            src_hi=np.asarray(src_hi, dtype=np.uint64),
            src_lo=np.asarray(src_lo, dtype=np.uint64),
            dst_hi=np.asarray(dst_hi, dtype=np.uint64),
            dst_lo=np.asarray(dst_lo, dtype=np.uint64),
            proto=np.asarray(proto, dtype=np.uint8),
            sport=np.asarray(sport, dtype=np.uint16),
            dport=np.asarray(dport, dtype=np.uint16),
        )

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "PacketRecords":
        cols: tuple[list, ...] = ([], [], [], [], [], [], [], [])
        for p in packets:
            cols[0].append(p.timestamp)
            cols[1].append((p.src >> 64) & _U64)
            cols[2].append(p.src & _U64)
            cols[3].append((p.dst >> 64) & _U64)
            cols[4].append(p.dst & _U64)
            cols[5].append(p.proto)
            cols[6].append(p.sport)
            cols[7].append(p.dport)
        return cls.from_columns(*cols)

    @classmethod
    def empty(cls) -> "PacketRecords":
        return cls.from_columns([], [], [], [], [], [], [], [])

    @classmethod
    def concat(cls, parts: list["PacketRecords"]) -> "PacketRecords":
        if not parts:
            return cls.empty()
        return cls(
            ts=np.concatenate([p.ts for p in parts]),
            src_hi=np.concatenate([p.src_hi for p in parts]),
            src_lo=np.concatenate([p.src_lo for p in parts]),
            dst_hi=np.concatenate([p.dst_hi for p in parts]),
            dst_lo=np.concatenate([p.dst_lo for p in parts]),
            proto=np.concatenate([p.proto for p in parts]),
            sport=np.concatenate([p.sport for p in parts]),
            dport=np.concatenate([p.dport for p in parts]),
        )

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    def select(self, mask: np.ndarray) -> "PacketRecords":
        """New records containing the rows where ``mask`` is True."""
        return PacketRecords(
            ts=self.ts[mask],
            src_hi=self.src_hi[mask], src_lo=self.src_lo[mask],
            dst_hi=self.dst_hi[mask], dst_lo=self.dst_lo[mask],
            proto=self.proto[mask], sport=self.sport[mask],
            dport=self.dport[mask],
        )

    # -- masks -----------------------------------------------------------

    def mask_time(self, start: float, end: float) -> np.ndarray:
        """Rows with ``start <= ts < end``."""
        return (self.ts >= start) & (self.ts < end)

    def mask_proto(self, proto: int) -> np.ndarray:
        return self.proto == np.uint8(proto)

    def mask_dst_in(self, prefix: IPv6Prefix) -> np.ndarray:
        hi, lo = mask_u64(self.dst_hi, self.dst_lo, prefix.length)
        want_hi, want_lo = _prefix_halves(prefix)
        return (hi == want_hi) & (lo == want_lo)

    def mask_src_in(self, prefix: IPv6Prefix) -> np.ndarray:
        hi, lo = mask_u64(self.src_hi, self.src_lo, prefix.length)
        want_hi, want_lo = _prefix_halves(prefix)
        return (hi == want_hi) & (lo == want_lo)

    # -- address reconstruction -------------------------------------------

    def dst_addresses(self) -> Iterator[int]:
        for hi, lo in zip(self.dst_hi, self.dst_lo):
            yield (int(hi) << 64) | int(lo)

    # -- aggregation -------------------------------------------------------
    #
    # All aggregation goes through _agg_key: a packed single-column uint64
    # key when the aggregation length fits in the hi half (<= 64 — the
    # paper's /32, /48, /64 levels), so np.unique runs its fast 1-D sort,
    # and masked (hi, lo) columns handled by the lexsort-based helpers in
    # repro.net.addr otherwise.  Either way numpy never falls back to the
    # slow void-view sort it performs on 2-D input.

    def _agg_key(self, hi: np.ndarray, lo: np.ndarray, prefix_len: int
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Truncated grouping key: ``(packed, None)`` or ``(mhi, mlo)``."""
        packed = pack_key_u64(hi, lo, prefix_len)
        if packed is not None:
            return packed, None
        return mask_u64(hi, lo, prefix_len)

    def unique_sources(self, prefix_len: int = 128) -> int:
        """Count distinct source /``prefix_len`` subnets."""
        if len(self) == 0:
            return 0
        key, lo = self._agg_key(self.src_hi, self.src_lo, prefix_len)
        if lo is None:
            return len(np.unique(key))
        return len(group_keys((key, lo))[1])

    def unique_destinations(self, prefix_len: int = 128) -> int:
        """Count distinct destination /``prefix_len`` subnets."""
        if len(self) == 0:
            return 0
        key, lo = self._agg_key(self.dst_hi, self.dst_lo, prefix_len)
        if lo is None:
            return len(np.unique(key))
        return len(group_keys((key, lo))[1])

    def source_set(self, prefix_len: int = 128) -> set[int]:
        """The set of source subnets (as truncated 128-bit ints)."""
        if len(self) == 0:
            return set()
        key, lo = self._agg_key(self.src_hi, self.src_lo, prefix_len)
        if lo is None:
            return {int(k) << 64 for k in np.unique(key)}
        uhi, ulo = unique_pairs_u64(key, lo)
        return {(int(h) << 64) | int(l) for h, l in zip(uhi, ulo)}

    def destination_set(self, prefix_len: int = 128) -> set[int]:
        if len(self) == 0:
            return set()
        key, lo = self._agg_key(self.dst_hi, self.dst_lo, prefix_len)
        if lo is None:
            return {int(k) << 64 for k in np.unique(key)}
        uhi, ulo = unique_pairs_u64(key, lo)
        return {(int(h) << 64) | int(l) for h, l in zip(uhi, ulo)}

    def source_groups(self, prefix_len: int = 128) -> np.ndarray:
        """Integer group id per row, grouping rows by source subnet.

        Ids are assigned in ascending order of the truncated source value.
        """
        return prefix_groups_u64(self.src_hi, self.src_lo, prefix_len)[0]

    # -- time series ---------------------------------------------------------

    def daily_packet_counts(self, start: float, end: float) -> np.ndarray:
        """Packets per simulation day over ``[start, end)``."""
        n_days = int(np.ceil((end - start) / DAY))
        if n_days <= 0:
            return np.zeros(0)
        mask = self.mask_time(start, end)
        days = ((self.ts[mask] - start) // DAY).astype(np.int64)
        return np.bincount(days, minlength=n_days).astype(np.float64)

    def daily_unique(self, start: float, end: float,
                     values: np.ndarray) -> np.ndarray:
        """Per-day count of distinct ``values`` (one value per row)."""
        n_days = int(np.ceil((end - start) / DAY))
        if n_days <= 0:
            return np.zeros(0)
        mask = self.mask_time(start, end)
        days = ((self.ts[mask] - start) // DAY).astype(np.int64)
        vals = np.asarray(values)[mask]
        out = np.zeros(n_days)
        if len(vals) == 0:
            return out
        combos = np.unique(np.stack([days, vals.astype(np.int64)], axis=1),
                           axis=0)
        uniq_days, counts = np.unique(combos[:, 0], return_counts=True)
        out[uniq_days] = counts
        return out

    # -- persistence -----------------------------------------------------

    def save_npz(self, path) -> None:
        """Persist the columns as a compressed ``.npz`` archive."""
        np.savez_compressed(
            path,
            ts=self.ts, src_hi=self.src_hi, src_lo=self.src_lo,
            dst_hi=self.dst_hi, dst_lo=self.dst_lo,
            proto=self.proto, sport=self.sport, dport=self.dport,
        )

    @classmethod
    def load_npz(cls, path) -> "PacketRecords":
        """Load records saved by :meth:`save_npz` (dtypes re-coerced, so a
        hand-built archive with wider integer columns still loads)."""
        with np.load(path) as archive:
            return cls.from_columns(
                ts=archive["ts"],
                src_hi=archive["src_hi"], src_lo=archive["src_lo"],
                dst_hi=archive["dst_hi"], dst_lo=archive["dst_lo"],
                proto=archive["proto"], sport=archive["sport"],
                dport=archive["dport"],
            )

    #: Back-compat aliases for the pre-cache spelling.
    save = save_npz
    load = load_npz
