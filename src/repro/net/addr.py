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
    fall back to the composite-key kernel below.  The single-column form
    lets ``np.unique``/``np.isin`` run their fast 1-D sort instead of the
    slow void-view sort they perform on 2-D input.
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


#: Multiplier of the composite-key hash.  Odd, so multiplying by it is a
#: bijection on 64-bit words.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def key_hashes(cols) -> np.ndarray:
    """One 64-bit word per row of the unsigned key columns ``cols``.

    ``((c0 * M ^ c1) * M ^ c2) ... ^ c[-1]``: the last column is xored in,
    so two rows that agree on every column but the last and share a hash
    agree on the last one too.  That is why the kernel below confirms a
    hash match on ``cols[:-1]`` only, and exactly.
    """
    h = np.multiply(cols[0], _MIX, dtype=np.uint64)
    for col in cols[1:-1]:
        h ^= col
        h *= _MIX
    if len(cols) > 1:
        h ^= cols[-1]
    return h


def run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """True where a sorted column starts a run of equal values."""
    first = np.empty(len(sorted_values), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def group_keys(cols) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by composite key: ``(ids, rep)``.

    The grouping kernel of the columnar paths.  Rows are equal when every
    column matches; ``ids`` holds each row's group and ``rep[g]`` is one
    row of group ``g``, so ``col[rep]`` are the distinct keys.  One
    ``argsort`` of :func:`key_hashes` groups the rows, and every row is
    then confirmed against its group's
    representative; only when two distinct keys share a hash does an
    exact lexsort over the columns run instead.  Ids follow hash order,
    not key order.
    """
    n = len(cols[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    hashes = key_hashes(cols)
    order = np.argsort(hashes)
    first = run_starts(hashes[order])
    del hashes  # one word per row; a caller's peak is these temporaries
    sorted_ids = np.cumsum(first)
    sorted_ids -= 1
    rep = order[first]
    if any(not np.array_equal(col[order], col[rep][sorted_ids])
           for col in cols[:-1]):
        order = np.lexsort(tuple(reversed(cols)))
        first = run_starts(cols[0][order])
        for col in cols[1:]:
            first |= run_starts(col[order])
        sorted_ids = np.cumsum(first) - 1
        rep = order[first]
    ids = np.empty(n, dtype=np.int64)
    ids[order] = sorted_ids
    return ids, rep


class KeyIndex:
    """The sorted hashes of a table's composite keys, for repeated lookups.

    ``hashes`` is ascending and ``rows[i]`` is the table row of
    ``hashes[i]``.  :meth:`add` merges new rows in, so a table that grows
    keeps one index instead of sorting itself again per lookup.
    """

    def __init__(self, hashes: np.ndarray | None = None):
        if hashes is None:
            hashes = np.empty(0, dtype=np.uint64)
        self.rows = np.argsort(hashes)
        self.hashes = hashes[self.rows]
        #: Whether two table rows share a hash: lookups are then exact
        #: only through :func:`group_keys` over table and queries.
        self.shared = bool(np.any(self.hashes[1:] == self.hashes[:-1]))

    def add(self, hashes: np.ndarray, rows: np.ndarray) -> None:
        """Index the table rows ``rows`` under their key ``hashes``."""
        if len(hashes) == 0:
            return
        order = np.argsort(hashes)
        hashes, rows = hashes[order], rows[order]
        at = np.searchsorted(self.hashes, hashes)
        hit = at < len(self.hashes)
        self.shared = self.shared or bool(
            np.any(hashes[1:] == hashes[:-1])
            or np.any(self.hashes[at[hit]] == hashes[hit]))
        self.hashes = np.insert(self.hashes, at, hashes)
        self.rows = np.insert(self.rows, at, rows)

    def find(self, table_cols, query_cols,
             query_hashes: np.ndarray | None = None) -> np.ndarray:
        """Row of each query key in the indexed table, or -1.

        A binary search over the sorted hashes, confirmed on the key
        columns.  When the queries are more than a sixteenth of the
        table, a bitmap over the table's hashes first rejects most
        misses: building it then costs less than the searches it saves
        (measured from 300k-row tables down to 2k).
        """
        n_table = len(self.hashes)
        n_query = len(query_cols[0])
        if self.shared:
            ids, _ = group_keys([np.concatenate([t, q]) for t, q in
                                 zip(table_cols, query_cols)])
            row_of = np.full(n_query + n_table, -1, dtype=np.int64)
            row_of[ids[:n_table]] = np.arange(n_table)
            return row_of[ids[n_table:]]
        found = np.full(n_query, -1, dtype=np.int64)
        if n_table == 0 or n_query == 0:
            return found
        if query_hashes is None:
            query_hashes = key_hashes(query_cols)
        hashes = self.hashes
        maybe = slice(None)
        if 16 * n_query > n_table:
            # About 16 bitmap slots per table row: a miss passes with
            # p <= 1/16.
            shift = np.uint64(64 - max(10, (16 * n_table).bit_length()))
            marked = np.zeros(1 << (64 - int(shift)), dtype=bool)
            marked[(hashes * _MIX) >> shift] = True
            maybe = np.flatnonzero(marked[(query_hashes * _MIX) >> shift])
        q_hash = query_hashes[maybe]
        at = np.searchsorted(hashes, q_hash)
        at[at == n_table] = 0
        hit = hashes[at] == q_hash
        row = self.rows[at]
        for t, q in zip(table_cols[:-1], query_cols[:-1]):
            hit &= t[row] == q[maybe]
        found[maybe] = np.where(hit, row, -1)
        return found


def find_keys(table_cols, query_cols) -> np.ndarray:
    """Row of each query key in a table of distinct keys, or -1.

    The lookup form of :func:`group_keys` (:meth:`KeyIndex.find` over a
    fresh index).  Two table rows sharing a hash fall back to grouping
    table and queries together.  With repeated keys in the table, a hit
    names one of their rows.
    """
    return KeyIndex(key_hashes(table_cols)).find(table_cols, query_cols)


class KeySet:
    """A growing set of composite keys, held as packed uint64 columns.

    ``cols[j][i]`` is column ``j`` of the ``i``-th key added, and a
    :class:`KeyIndex` over their hashes answers membership.  :meth:`add`
    hashes and looks up only the keys it is given and appends the new
    ones, so a set that grows by a day's keys never sorts or hashes what
    it already holds again.
    """

    def __init__(self, width: int):
        self.cols = tuple(np.empty(0, dtype=np.uint64) for _ in range(width))
        self.index = KeyIndex()

    def __len__(self) -> int:
        return len(self.cols[0])

    def __getstate__(self) -> tuple:
        # The index follows from the keys, so a pickle holds the keys
        # alone: 8 bytes per column and key.
        return self.cols

    def __setstate__(self, cols: tuple) -> None:
        self.cols = cols
        self.index = KeyIndex(key_hashes(cols))

    def add(self, cols) -> int:
        """Add the distinct keys ``cols``; returns how many were new."""
        hashes = key_hashes(cols)
        new = np.flatnonzero(self.index.find(self.cols, cols, hashes) < 0)
        if len(new):
            self.index.add(hashes[new], np.arange(len(self),
                                                  len(self) + len(new)))
            self.cols = tuple(np.concatenate([held, col[new]])
                              for held, col in zip(self.cols, cols))
        return len(new)


def split_by_48(keys: np.ndarray, hi: np.ndarray
                ) -> list[tuple[int, np.ndarray]]:
    """Split rows by the /48 networks they fall in: ``(slot, rows)`` pairs.

    ``keys`` holds the networks' high halves in ascending order (a /48's
    low 16 bits are zero) and ``hi`` the rows' address high halves.  One
    ``searchsorted`` finds each row's candidate, the last key at or below
    it; the row is in that /48 iff the two share their top 48 bits.  A
    stable sort of the hit rows by slot then makes every network's rows
    one run.  Pairs come in ascending key order, each network's rows in
    row order; networks no row falls in, and rows outside every network,
    are left out.
    """
    if len(keys) == 0 or len(hi) == 0:
        return []
    # A row below every key gets slot -1, whose key (the largest) cannot
    # match it either.  The in-place steps and early deletes keep the
    # transient at about two int64 columns of ``hi``.
    slot = np.searchsorted(keys, hi, side="right")
    slot -= 1
    diff = keys[slot]
    diff ^= hi
    rows = np.flatnonzero(diff < np.uint64(1 << 16))
    del diff
    if len(rows) == 0:
        return []
    # The narrowest dtype that holds a slot: numpy's stable sort is a
    # radix sort up to 16 bits, several times faster than its merge sort
    # of int64.
    groups = slot[rows].astype(np.min_scalar_type(len(keys)))
    del slot
    order = np.argsort(groups, kind="stable")
    rows, groups = rows[order], groups[order]
    starts = np.flatnonzero(run_starts(groups))
    return list(zip(groups[starts].tolist(), np.split(rows, starts[1:])))


def unique_pairs_u64(hi: np.ndarray, lo: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (hi, lo) rows, in ascending (hi, lo) order.

    Equivalent to ``np.unique(column_stack([hi, lo]), axis=0)``: grouped
    by :func:`group_keys`, then only the distinct rows are sorted.
    """
    _, rep = group_keys((hi, lo))
    rank = np.lexsort((lo[rep], hi[rep]))
    return hi[rep[rank]], lo[rep[rank]]


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
    ids, rep = group_keys((hi, lo))
    # Only the distinct subnets are sorted, then the ids renumbered.
    rank = np.lexsort((lo[rep], hi[rep]))
    new_id = np.empty(len(rank), dtype=np.int64)
    new_id[rank] = np.arange(len(rank))
    return new_id[ids], hi[rep[rank]], lo[rep[rank]]


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
    # A full 64-bit half is the generator's raw words, exactly what
    # ``integers(0, 1 << 64, dtype=uint64)`` returns; the prefix sets no
    # bit of it.
    if lo_bits == 64:
        lo = rng.bit_generator.random_raw(n)
    elif lo_bits > 0:
        lo = rng.integers(0, 1 << lo_bits, size=n, dtype=np.uint64) | net_lo
    else:
        lo = np.full(n, net_lo, dtype=np.uint64)
    if hi_bits == 64:
        hi = rng.bit_generator.random_raw(n)
    elif hi_bits > 0:
        hi = rng.integers(0, 1 << hi_bits, size=n, dtype=np.uint64) | net_hi
    else:
        hi = np.full(n, net_hi, dtype=np.uint64)
    return hi, lo


def parse_prefix(text: str) -> IPv6Prefix:
    """Convenience alias for :meth:`IPv6Prefix.parse`."""
    return IPv6Prefix.parse(text)
