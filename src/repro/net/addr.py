"""Int-backed IPv6 addresses and prefixes.

The standard-library :mod:`ipaddress` module is convenient but too slow for
the hot paths in this library (hundreds of thousands of per-packet
aggregations).  We keep addresses as plain 128-bit ints wrapped in a frozen
``IPv6Address`` and expose vectorized helpers for the aggregation
granularities the paper uses (/32, /48, /64, /128).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

MAX_ADDRESS = (1 << 128) - 1

_HEX_GROUP = re.compile(r"^[0-9a-fA-F]{1,4}$")


def _mask(prefix_len: int) -> int:
    """Return the network mask for ``prefix_len`` as a 128-bit int."""
    if not 0 <= prefix_len <= 128:
        raise ValueError(f"prefix length must be in [0, 128], got {prefix_len}")
    if prefix_len == 0:
        return 0
    return MAX_ADDRESS ^ ((1 << (128 - prefix_len)) - 1)


@lru_cache(maxsize=None)
def _cached_mask(prefix_len: int) -> int:
    return _mask(prefix_len)


def parse_address(text: str) -> int:
    """Parse an IPv6 address string into its 128-bit integer value.

    Supports the ``::`` zero-compression form and full eight-group form.
    Raises :class:`ValueError` on malformed input.
    """
    text = text.strip()
    if text.count("::") > 1:
        raise ValueError(f"invalid IPv6 address (multiple '::'): {text!r}")
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise ValueError(f"invalid IPv6 address (bad '::'): {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise ValueError(f"invalid IPv6 address (need 8 groups): {text!r}")
    value = 0
    for group in groups:
        if not _HEX_GROUP.match(group):
            raise ValueError(f"invalid IPv6 group {group!r} in {text!r}")
        value = (value << 16) | int(group, 16)
    return value


def format_address(value: int) -> str:
    """Format a 128-bit int as a canonical (RFC 5952-style) IPv6 string."""
    if not 0 <= value <= MAX_ADDRESS:
        raise ValueError(f"address out of range: {value!r}")
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    # Find the longest run of zero groups (length >= 2) for '::' compression.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, g in enumerate(groups):
        if g == 0:
            if run_start < 0:
                run_start, run_len = i, 1
            else:
                run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


@dataclass(frozen=True, slots=True, order=True)
class IPv6Address:
    """A single IPv6 address backed by a 128-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_ADDRESS:
            raise ValueError(f"address out of range: {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "IPv6Address":
        return cls(parse_address(text))

    def __str__(self) -> str:
        return format_address(self.value)

    def truncate(self, prefix_len: int) -> int:
        """Return the int value of this address truncated to ``prefix_len``."""
        return self.value & _cached_mask(prefix_len)

    def prefix(self, prefix_len: int) -> "IPv6Prefix":
        """Return the covering prefix of the given length."""
        return IPv6Prefix(self.truncate(prefix_len), prefix_len)


@dataclass(frozen=True, slots=True, order=True)
class IPv6Prefix:
    """An IPv6 network prefix: a truncated 128-bit network int + length."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 128:
            raise ValueError(f"prefix length out of range: {self.length!r}")
        if not 0 <= self.network <= MAX_ADDRESS:
            raise ValueError(f"network out of range: {self.network!r}")
        if self.network & ~_cached_mask(self.length):
            raise ValueError(
                f"host bits set in {format_address(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv6Prefix":
        addr_text, slash, len_text = text.partition("/")
        if not slash:
            raise ValueError(f"prefix must contain '/': {text!r}")
        return cls(parse_address(addr_text), int(len_text))

    def __str__(self) -> str:
        return f"{format_address(self.network)}/{self.length}"

    def __contains__(self, item) -> bool:
        value = item.value if isinstance(item, IPv6Address) else int(item)
        return value & _cached_mask(self.length) == self.network

    def contains_prefix(self, other: "IPv6Prefix") -> bool:
        """True when ``other`` is equal to or nested inside this prefix."""
        if other.length < self.length:
            return False
        return other.network & _cached_mask(self.length) == self.network

    @property
    def first(self) -> IPv6Address:
        """The first (all-zero-host) address of the prefix."""
        return IPv6Address(self.network)

    @property
    def last(self) -> IPv6Address:
        """The last (all-one-host) address of the prefix."""
        return IPv6Address(self.network | (MAX_ADDRESS ^ _cached_mask(self.length)))

    @property
    def num_addresses(self) -> int:
        return 1 << (128 - self.length)

    def address_at(self, offset: int) -> IPv6Address:
        """Return the address at ``offset`` from the start of the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise ValueError(f"offset {offset} outside {self}")
        return IPv6Address(self.network | offset)

    def random_address(self, rng: np.random.Generator) -> IPv6Address:
        """Draw a uniformly random address from this prefix."""
        host_bits = 128 - self.length
        offset = 0
        # numpy generators yield at most 64 random bits at a time.
        for shift in range(0, host_bits, 64):
            chunk_bits = min(64, host_bits - shift)
            chunk = int(rng.integers(0, 1 << chunk_bits, dtype=np.uint64))
            offset |= chunk << shift
        return IPv6Address(self.network | offset)

    def subnets(self, new_length: int) -> Iterator["IPv6Prefix"]:
        """Iterate the subnets of this prefix at ``new_length``.

        Refuses to enumerate more than 2**20 subnets to protect callers from
        accidentally materializing astronomically large iterators.
        """
        if new_length < self.length:
            raise ValueError(
                f"new length /{new_length} shorter than prefix /{self.length}"
            )
        count = 1 << (new_length - self.length)
        if count > 1 << 20:
            raise ValueError(
                f"refusing to enumerate {count} subnets of {self}; "
                "use subnet_at() for point lookups"
            )
        step = 1 << (128 - new_length)
        for i in range(count):
            yield IPv6Prefix(self.network + i * step, new_length)

    def subnet_at(self, index: int, new_length: int) -> "IPv6Prefix":
        """Return the ``index``-th subnet of this prefix at ``new_length``."""
        if new_length < self.length:
            raise ValueError(
                f"new length /{new_length} shorter than prefix /{self.length}"
            )
        count = 1 << (new_length - self.length)
        if not 0 <= index < count:
            raise ValueError(f"subnet index {index} out of range for {self}")
        step = 1 << (128 - new_length)
        return IPv6Prefix(self.network + index * step, new_length)

    def supernet(self, new_length: int) -> "IPv6Prefix":
        """Return the covering prefix of this prefix at a shorter length."""
        if new_length > self.length:
            raise ValueError(
                f"supernet length /{new_length} longer than prefix /{self.length}"
            )
        return IPv6Prefix(self.network & _cached_mask(new_length), new_length)


def aggregate(value: int, prefix_len: int) -> int:
    """Truncate an int address to ``prefix_len`` (fast scalar path)."""
    return value & _cached_mask(prefix_len)


def aggregate_sources(values: Iterable[int], prefix_len: int) -> set[int]:
    """Aggregate int addresses to the set of covering /``prefix_len`` nets."""
    mask = _cached_mask(prefix_len)
    return {v & mask for v in values}


def split_u64(values: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Split 128-bit int addresses into (hi, lo) uint64 numpy arrays.

    The columnar analysis code stores addresses this way so that numpy can
    group and mask them without Python-object overhead.
    """
    vals = list(values)
    hi = np.fromiter(((v >> 64) & 0xFFFFFFFFFFFFFFFF for v in vals),
                     dtype=np.uint64, count=len(vals))
    lo = np.fromiter((v & 0xFFFFFFFFFFFFFFFF for v in vals),
                     dtype=np.uint64, count=len(vals))
    return hi, lo


def join_u64(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """Inverse of :func:`split_u64`."""
    return [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]


def mask_u64(hi: np.ndarray, lo: np.ndarray, prefix_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized truncation of (hi, lo) address columns to ``prefix_len``."""
    if not 0 <= prefix_len <= 128:
        raise ValueError(f"prefix length must be in [0, 128], got {prefix_len}")
    if prefix_len <= 64:
        hi_mask = np.uint64(0) if prefix_len == 0 else np.uint64(
            (0xFFFFFFFFFFFFFFFF << (64 - prefix_len)) & 0xFFFFFFFFFFFFFFFF
        )
        return hi & hi_mask, np.zeros_like(lo)
    lo_bits = prefix_len - 64
    lo_mask = np.uint64(0xFFFFFFFFFFFFFFFF) if lo_bits == 64 else np.uint64(
        (0xFFFFFFFFFFFFFFFF << (64 - lo_bits)) & 0xFFFFFFFFFFFFFFFF
    )
    return hi.copy(), lo & lo_mask


def pack_key_u64(hi: np.ndarray, lo: np.ndarray,
                 prefix_len: int) -> np.ndarray | None:
    """Pack truncated (hi, lo) address columns into one uint64 key column.

    Only possible when ``prefix_len <= 64``: the truncated address then
    lives entirely in the hi half, which covers the paper's /32, /48, and
    /64 aggregation levels.  Returns ``None`` for longer lengths; callers
    fall back to the two-column helpers below.  The single-column form lets
    ``np.unique``/``np.isin`` run their fast 1-D sort instead of the slow
    void-view sort they perform on 2-D input.
    """
    if not 0 <= prefix_len <= 128:
        raise ValueError(f"prefix length must be in [0, 128], got {prefix_len}")
    if prefix_len > 64:
        return None
    if prefix_len == 0:
        return np.zeros(len(hi), dtype=np.uint64)
    mask = np.uint64((0xFFFFFFFFFFFFFFFF << (64 - prefix_len))
                     & 0xFFFFFFFFFFFFFFFF)
    return hi & mask


def unique_pairs_u64(hi: np.ndarray, lo: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (hi, lo) rows, in ascending (hi, lo) order.

    Equivalent to ``np.unique(column_stack([hi, lo]), axis=0)`` but via a
    plain two-key lexsort instead of the void-view sort numpy uses for 2-D
    input.
    """
    n = len(hi)
    if n == 0:
        return hi[:0], lo[:0]
    order = np.lexsort((lo, hi))
    sh, sl = hi[order], lo[order]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = (sh[1:] != sh[:-1]) | (sl[1:] != sl[:-1])
    return sh[keep], sl[keep]


def group_ids_u64(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, int]:
    """Group rows by (hi, lo) value: ``(ids, n_groups)``.

    Ids are assigned in ascending (hi, lo) order, matching the ``inverse``
    of ``np.unique(..., axis=0, return_inverse=True)``, again without the
    2-D void-view sort.
    """
    n = len(hi)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.lexsort((lo, hi))
    sh, sl = hi[order], lo[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = (sh[1:] != sh[:-1]) | (sl[1:] != sl[:-1])
    ids_sorted = np.cumsum(boundary) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = ids_sorted
    return ids, int(ids_sorted[-1]) + 1


def prefix_groups_u64(hi: np.ndarray, lo: np.ndarray, prefix_len: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by /``prefix_len`` subnet: ``(ids, key_hi, key_lo)``.

    ``ids`` holds each row's group; group ``g`` is the truncated address
    ``(key_hi[g], key_lo[g])``, in ascending address order.  Lengths up to
    64 take the packed 1-D sort of :func:`pack_key_u64`.
    """
    packed = pack_key_u64(hi, lo, prefix_len)
    if packed is not None:
        keys, ids = np.unique(packed, return_inverse=True)
        return ids.astype(np.int64, copy=False), keys, np.zeros_like(keys)
    hi, lo = mask_u64(hi, lo, prefix_len)
    ids, n = group_ids_u64(hi, lo)
    key_hi = np.zeros(n, dtype=np.uint64)
    key_lo = np.zeros(n, dtype=np.uint64)
    key_hi[ids], key_lo[ids] = hi, lo
    return ids, key_hi, key_lo


def member_mask_u64(hi: np.ndarray, lo: np.ndarray,
                    set_hi: np.ndarray, set_lo: np.ndarray) -> np.ndarray:
    """Row-wise membership of (hi, lo) in the set given as (set_hi, set_lo).

    The 128-bit analogue of ``np.isin``: both halves must match on the same
    row.  Implemented by grouping the concatenation of set and query rows,
    so no Python-level per-row lookups happen.
    """
    n_set = len(set_hi)
    if n_set == 0:
        return np.zeros(len(hi), dtype=bool)
    all_hi = np.concatenate([np.asarray(set_hi, dtype=np.uint64), hi])
    all_lo = np.concatenate([np.asarray(set_lo, dtype=np.uint64), lo])
    ids, n_groups = group_ids_u64(all_hi, all_lo)
    in_set = np.zeros(n_groups, dtype=bool)
    in_set[ids[:n_set]] = True
    return in_set[ids[n_set:]]


def group_ids_cols(cols: "list[np.ndarray] | tuple") -> tuple[np.ndarray, int]:
    """Group rows by the tuple of key columns: ``(ids, n_groups)``.

    The k-column generalization of :func:`group_ids_u64`: rows compare
    equal when every column matches.  Ids are assigned in ascending
    lexicographic order of the column tuple (first column is the primary
    key).  This is the composite-key workhorse of the columnar honeypot
    reply path — session keys are (peer, peer_port, local, local_port)
    tuples spread over six u64 columns, NAT flow keys over six as well.
    """
    cols = [np.asarray(c) for c in cols]
    n = len(cols[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.lexsort(tuple(reversed(cols)))
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for col in cols:
        sc = col[order]
        boundary[1:] |= sc[1:] != sc[:-1]
    ids_sorted = np.cumsum(boundary) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = ids_sorted
    return ids, int(ids_sorted[-1]) + 1


def member_mask_cols(query_cols, set_cols) -> np.ndarray:
    """Row-wise membership of a composite key in a composite-key set.

    The k-column generalization of :func:`member_mask_u64`, used e.g. for
    (address, port) binding lookups: the set is the bound (hi, lo, port)
    triples, the query is the packet columns.  Exact — no hashing, no
    packing collisions.
    """
    set_cols = [np.asarray(c) for c in set_cols]
    query_cols = [np.asarray(c) for c in query_cols]
    n_set = len(set_cols[0])
    if n_set == 0:
        return np.zeros(len(query_cols[0]), dtype=bool)
    all_cols = [np.concatenate([s.astype(q.dtype, copy=False), q])
                for s, q in zip(set_cols, query_cols)]
    ids, n_groups = group_ids_cols(all_cols)
    in_set = np.zeros(n_groups, dtype=bool)
    in_set[ids[:n_set]] = True
    return in_set[ids[n_set:]]


def lookup_pos_u64(hi: np.ndarray, lo: np.ndarray,
                   set_hi: np.ndarray, set_lo: np.ndarray,
                   set_pos: np.ndarray) -> np.ndarray:
    """Map each (hi, lo) row to ``set_pos`` of its match in the set (-1 on
    miss).  The value-returning sibling of :func:`member_mask_u64`; the set
    keys must be distinct."""
    n_set = len(set_hi)
    out = np.full(len(hi), -1, dtype=np.int64)
    if n_set == 0 or len(hi) == 0:
        return out
    all_hi = np.concatenate([np.asarray(set_hi, dtype=np.uint64), hi])
    all_lo = np.concatenate([np.asarray(set_lo, dtype=np.uint64), lo])
    ids, n_groups = group_ids_u64(all_hi, all_lo)
    pos_of_group = np.full(n_groups, -1, dtype=np.int64)
    pos_of_group[ids[:n_set]] = np.asarray(set_pos, dtype=np.int64)
    return pos_of_group[ids[n_set:]]


def random_addresses_u64(prefix: IPv6Prefix, rng: np.random.Generator,
                         n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` uniform addresses from ``prefix`` as (hi, lo) columns.

    The columnar analogue of :meth:`IPv6Prefix.random_address`: host bits
    are drawn as at most one uint64 column per half, so no Python-level
    big-int arithmetic happens per address.
    """
    net_hi = np.uint64((prefix.network >> 64) & 0xFFFFFFFFFFFFFFFF)
    net_lo = np.uint64(prefix.network & 0xFFFFFFFFFFFFFFFF)
    host_bits = 128 - prefix.length
    lo_bits = min(host_bits, 64)
    hi_bits = host_bits - lo_bits
    if lo_bits > 0:
        lo = rng.integers(0, 1 << lo_bits, size=n, dtype=np.uint64) | net_lo
    else:
        lo = np.full(n, net_lo, dtype=np.uint64)
    if hi_bits > 0:
        hi = rng.integers(0, 1 << hi_bits, size=n, dtype=np.uint64) | net_hi
    else:
        hi = np.full(n, net_hi, dtype=np.uint64)
    return hi, lo


def parse_prefix(text: str) -> IPv6Prefix:
    """Convenience alias for :meth:`IPv6Prefix.parse`."""
    return IPv6Prefix.parse(text)
