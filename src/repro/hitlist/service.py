"""The public IPv6 hitlist service.

Runs periodic compilation cycles: gather candidate addresses from its
registered public sources (zone files resolved to AAAA, CT-log SAN names,
submitted seeds), probe each per category, run aliased-prefix detection on
the candidates' covering /64s and announced prefixes, and publish a
categorized snapshot.  Downstream scanners poll :meth:`entries_between` or
fetch :meth:`snapshot_at`; :meth:`address_columns` is the same snapshot as
shared numpy columns, built once per publication for every consumer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro._util import DAY, WindowView, check_positive
from repro.hitlist.categories import (
    ADDRESS_CATEGORIES,
    HitlistCategory,
)
from repro.hitlist.prober import Prober
from repro.net.addr import IPv6Prefix, split_u64

#: A candidate source: called with (since, until) and yielding int addresses
#: that became publicly visible in that window.
CandidateSource = Callable[[float, float], Iterable[int]]

#: A prefix source for alias detection (e.g. newly announced BGP prefixes).
PrefixSource = Callable[[float, float], Iterable[IPv6Prefix]]


@dataclass(frozen=True, slots=True)
class HitlistEntry:
    """One published entry: category plus address or prefix.

    ``removed`` entries record a *delisting*: the compiler found the target
    unresponsive on a revalidation pass (e.g. after its covering BGP
    announcement was retracted).
    """

    category: HitlistCategory
    published_at: float
    address: int | None = None
    prefix: IPv6Prefix | None = None
    manual: bool = False
    removed: bool = False

    def __post_init__(self) -> None:
        if (self.address is None) == (self.prefix is None):
            raise ValueError("entry must carry exactly one of address/prefix")


@dataclass
class HitlistSnapshot:
    """The full published state as of one compilation cycle."""

    published_at: float
    addresses: dict[HitlistCategory, set[int]] = field(default_factory=dict)
    prefixes: dict[HitlistCategory, set[IPv6Prefix]] = field(default_factory=dict)


class AddressColumns:
    """A snapshot's listed addresses as read-only probe target columns.

    Rows run category by category in :data:`ADDRESS_CATEGORIES` order and,
    within a category, in the iteration order of the matching
    :meth:`HitlistService.snapshot_at` set; each row probes its category's
    protocol and port.  A consumer that repeats rows by weight therefore
    builds the same rows, in the same order, as a loop over the snapshot.
    """

    def __init__(self, snapshot: HitlistSnapshot):
        #: listed addresses (ints), one per row.
        self.addresses: list[int] = []
        codes: list[int] = []
        for code, category in enumerate(ADDRESS_CATEGORIES):
            listed = snapshot.addresses.get(category, ())
            self.addresses.extend(listed)
            codes.extend([code] * len(listed))
        #: each row's index into ADDRESS_CATEGORIES.
        self.category = np.array(codes, dtype=np.intp)
        proto = np.array([c.protocol for c in ADDRESS_CATEGORIES],
                         dtype=np.uint8)
        dport = np.array([c.port or 0 for c in ADDRESS_CATEGORIES],
                         dtype=np.uint16)
        #: (dst_hi, dst_lo, proto, dport) target columns.
        self.targets = (*split_u64(self.addresses), proto[self.category],
                        dport[self.category])
        for column in (self.category, *self.targets):
            column.flags.writeable = False
        self._levels = WindowView()

    def levels(self, oracle, at: float) -> np.ndarray:
        """``oracle(address, at)`` for every row; evaluated once per
        ``(oracle, at)``."""

        def evaluate() -> np.ndarray:
            column = np.fromiter((oracle(a, at) for a in self.addresses),
                                 dtype=np.int64, count=len(self.addresses))
            column.flags.writeable = False
            return column

        return self._levels.get((oracle, at), evaluate)


class HitlistService:
    """Periodic hitlist compiler and publisher."""

    def __init__(
        self,
        prober: Prober,
        cycle_period: float = 14 * DAY,
        alias_check_length: int = 64,
    ):
        self.prober = prober
        self.cycle_period = check_positive("cycle_period", cycle_period)
        self.alias_check_length = alias_check_length
        self._candidate_sources: list[CandidateSource] = []
        self._prefix_sources: list[PrefixSource] = []
        self._entries: list[HitlistEntry] = []
        self._entry_times: list[float] = []
        self._known_addresses: set[int] = set()
        #: address -> categories it is currently listed under.
        self._address_categories: dict[int, set[HitlistCategory]] = {}
        self._known_aliased: set[IPv6Prefix] = set()
        self._known_non_aliased: set[IPv6Prefix] = set()
        self._last_cycle_end = 0.0
        self._columns = WindowView()

    # -- source registration -------------------------------------------------

    def add_candidate_source(self, source: CandidateSource) -> None:
        """Register a source of candidate addresses."""
        self._candidate_sources.append(source)

    def add_prefix_source(self, source: PrefixSource) -> None:
        """Register a source of prefixes to alias-check."""
        self._prefix_sources.append(source)

    # -- publication ----------------------------------------------------------

    def _publish(self, entry: HitlistEntry) -> None:
        idx = bisect.bisect_right(self._entry_times, entry.published_at)
        self._entry_times.insert(idx, entry.published_at)
        self._entries.insert(idx, entry)

    def insert_manual(
        self, category: HitlistCategory, at: float,
        address: int | None = None, prefix: IPv6Prefix | None = None,
    ) -> HitlistEntry:
        """Manually insert an entry (the paper's collaboration with the
        hitlist maintainers, §4.3.6 — 40 addresses across 10 categories)."""
        entry = HitlistEntry(
            category=category, published_at=at,
            address=address, prefix=prefix, manual=True,
        )
        self._publish(entry)
        if address is not None:
            self._known_addresses.add(address)
            self._address_categories.setdefault(address, set()).add(category)
        return entry

    # -- compilation ----------------------------------------------------------

    def run_cycle(self, at: float) -> list[HitlistEntry]:
        """Run one compilation cycle ending at time ``at``.

        Gathers candidates that appeared since the previous cycle, probes
        them, and publishes new entries.  Returns the entries published by
        this cycle.
        """
        since, until = self._last_cycle_end, at
        if until <= since:
            raise ValueError(
                f"cycle end {until} must be after previous cycle end {since}"
            )
        self._last_cycle_end = until

        new_entries: list[HitlistEntry] = []
        # Revalidate known entries first: delist what no longer answers.
        for addr in sorted(self._address_categories):
            categories = self._address_categories[addr]
            for category in sorted(categories, key=lambda c: c.value):
                if not self.prober.probe_address(addr, category, until):
                    entry = HitlistEntry(
                        category=category, published_at=until,
                        address=addr, removed=True,
                    )
                    self._publish(entry)
                    new_entries.append(entry)
                    categories.discard(category)
            if not categories:
                del self._address_categories[addr]
                self._known_addresses.discard(addr)

        candidates: set[int] = set()
        for source in self._candidate_sources:
            candidates.update(source(since, until))
        candidates -= self._known_addresses

        # Alias detection first: aliased prefixes soak up their candidates.
        check_prefixes: set[IPv6Prefix] = set()
        for source in self._prefix_sources:
            check_prefixes.update(source(since, until))
        for addr in candidates:
            check_prefixes.add(
                IPv6Prefix(
                    addr & ~((1 << (128 - self.alias_check_length)) - 1),
                    self.alias_check_length,
                )
            )
        for prefix in sorted(check_prefixes, key=lambda p: (p.length, p.network)):
            if prefix in self._known_aliased or prefix in self._known_non_aliased:
                continue
            # Aliased space is represented once, at the detected level;
            # nested prefixes are subsumed, not re-published.
            if any(known.contains_prefix(prefix)
                   for known in self._known_aliased):
                continue
            if self.prober.detect_alias(prefix, until):
                self._known_aliased.add(prefix)
                entry = HitlistEntry(
                    category=HitlistCategory.ALIASED,
                    published_at=until, prefix=prefix,
                )
            else:
                self._known_non_aliased.add(prefix)
                entry = HitlistEntry(
                    category=HitlistCategory.NON_ALIASED,
                    published_at=until, prefix=prefix,
                )
            self._publish(entry)
            new_entries.append(entry)

        for addr in sorted(candidates):
            if any(addr in p for p in self._known_aliased):
                # Aliased space: represented by the prefix list, not addresses.
                continue
            for category in ADDRESS_CATEGORIES:
                if self.prober.probe_address(addr, category, until):
                    entry = HitlistEntry(
                        category=category, published_at=until, address=addr
                    )
                    self._publish(entry)
                    new_entries.append(entry)
                    self._known_addresses.add(addr)
                    self._address_categories.setdefault(addr, set()).add(
                        category
                    )
        return new_entries

    # -- consumption ----------------------------------------------------------

    def entries_between(self, since: float, until: float) -> list[HitlistEntry]:
        """Entries with ``since < published_at <= until`` (poll semantics)."""
        lo = bisect.bisect_right(self._entry_times, since)
        hi = bisect.bisect_right(self._entry_times, until)
        return self._entries[lo:hi]

    def entries(self) -> tuple[HitlistEntry, ...]:
        return tuple(self._entries)

    def snapshot_at(self, at: float) -> HitlistSnapshot:
        """The cumulative published state visible at time ``at``."""
        snapshot = HitlistSnapshot(published_at=at)
        hi = bisect.bisect_right(self._entry_times, at)
        for entry in self._entries[:hi]:
            if entry.address is not None:
                bucket = snapshot.addresses.setdefault(entry.category, set())
                if entry.removed:
                    bucket.discard(entry.address)
                else:
                    bucket.add(entry.address)
            else:
                snapshot.prefixes.setdefault(entry.category, set()).add(
                    entry.prefix
                )
        return snapshot

    def address_columns(self, at: float) -> AddressColumns:
        """:meth:`snapshot_at`'s addresses as shared columns, built once per
        publication.

        The key is the number of entries visible at ``at``: entries are
        only ever added, so it changes exactly when the visible snapshot
        does, including after a mid-window insertion.
        """
        visible = bisect.bisect_right(self._entry_times, at)
        return self._columns.get(
            visible, lambda: AddressColumns(self.snapshot_at(at)))
