"""Columnar packet records: the analysis pipeline's working format.

:class:`PacketRecords` is a :class:`~repro.net.batch.PacketBatch` with no
``origin`` column — what a telescope observes — plus the analysis
queries.  Addresses are stored as two uint64 columns (hi/lo halves of the
128-bit value) so that numpy can mask, compare, and group them without
per-packet Python objects.  Records are immutable once built, and every
filtering operation returns new records.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._util import DAY
from repro.net.addr import (
    group_keys,
    mask_u64,
    pack_key_u64,
    prefix_groups_u64,
    unique_pairs_u64,
)
from repro.net.batch import CAPTURE_COLUMNS, PacketBatch


def distinct_per_group(group: np.ndarray, n_groups: int,
                       ids: np.ndarray) -> np.ndarray:
    """Number of distinct ``ids`` among the rows of each of ``n_groups``
    row groups; ``group`` and ``ids`` hold one non-negative int per row."""
    span = int(ids.max()) + 1 if len(ids) else 1
    pairs = np.unique(group * span + ids)
    return np.bincount(pairs // span, minlength=n_groups)


class PacketRecords(PacketBatch):
    """Immutable columnar packet capture: a :class:`PacketBatch` whose
    ``origin`` is None, so the emitting agent never reaches analysis."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.origin is not None:
            raise ValueError("packet records carry no origin column")

    # -- masks -----------------------------------------------------------

    def mask_time(self, start: float, end: float) -> np.ndarray:
        """Rows with ``start <= ts < end``."""
        return (self.ts >= start) & (self.ts < end)

    def mask_proto(self, proto: int) -> np.ndarray:
        return self.proto == np.uint8(proto)

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
        np.savez_compressed(path, **{col: getattr(self, col)
                                     for col in CAPTURE_COLUMNS})

    @classmethod
    def load_npz(cls, path) -> "PacketRecords":
        """Load records saved by :meth:`save_npz` (dtypes re-coerced, so a
        hand-built archive with wider integer columns still loads)."""
        with np.load(path) as archive:
            return cls.from_columns(**{col: archive[col]
                                       for col in CAPTURE_COLUMNS})
