"""Public route collectors and the BGP propagation model.

Models the observable side of BGP that IPv6 scanners exploit: a set of
public route collectors (RouteViews / RIPE RIS style, 36 by default to match
the paper's "36 public BGP collectors monitored").  Propagation semantics:

* announcements of length <= /48 reach most collectors (the paper observed
  an average of 28 of 36),
* hyper-specific announcements (/49-/64) reach only the few collectors with
  permissive ingress policies (the paper observed 5 of 36),
* RPKI-strict collectors reject announcements that do not validate against
  the ROA registry,
* withdrawals become visible within minutes to hours.

Scanner agents subscribe by polling :meth:`CollectorSystem.visible_updates`.
Every agent polls the same day window, so :meth:`CollectorSystem.new_prefixes`
is computed once per window and shared, and route state is read from a
per-prefix index rather than a scan of each collector's log.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from repro._util import WindowView, make_rng
from repro.net.addr import IPv6Prefix
from repro.obs import get_registry
from repro.routing.messages import Announcement, Withdrawal
from repro.routing.rpki import RoaRegistry, RpkiValidity

#: Longest prefix length that propagates globally (paper §3.2).
GLOBAL_ROUTABLE_MAX_LENGTH = 48


@dataclass(frozen=True, slots=True)
class VisibleUpdate:
    """A BGP update as seen at one collector, with its visibility time."""

    collector: str
    visible_at: float
    update: Announcement | Withdrawal

    @property
    def is_withdrawal(self) -> bool:
        return isinstance(self.update, Withdrawal)


class RouteCollector:
    """One public route collector.

    ``accepts_hyper_specific`` marks the minority of collectors whose peers
    do not filter >/48 announcements.  ``rpki_strict`` collectors drop
    announcements that fail route-origin validation.
    """

    def __init__(
        self,
        name: str,
        accepts_hyper_specific: bool = False,
        rpki_strict: bool = False,
    ):
        self.name = name
        self.accepts_hyper_specific = accepts_hyper_specific
        self.rpki_strict = rpki_strict
        self._events: list[VisibleUpdate] = []
        self._times: list[float] = []
        #: prefix -> (visibility times, route held after each event), in
        #: log order: equal-time events keep their record order.
        self._by_prefix: dict[IPv6Prefix, tuple[list[float], list[bool]]] = {}

    def __len__(self) -> int:
        """Events recorded; the log is append-only, so this counts its
        mutations."""
        return len(self._events)

    def record(self, update: Announcement | Withdrawal, visible_at: float) -> None:
        event = VisibleUpdate(self.name, visible_at, update)
        idx = bisect.bisect_right(self._times, visible_at)
        self._times.insert(idx, visible_at)
        self._events.insert(idx, event)
        times, held = self._by_prefix.setdefault(update.prefix, ([], []))
        idx = bisect.bisect_right(times, visible_at)
        times.insert(idx, visible_at)
        held.insert(idx, not event.is_withdrawal)

    def events(self) -> tuple[VisibleUpdate, ...]:
        return tuple(self._events)

    def events_between(self, since: float, until: float) -> list[VisibleUpdate]:
        """Events with ``since < visible_at <= until`` (poll semantics)."""
        lo = bisect.bisect_right(self._times, since)
        hi = bisect.bisect_right(self._times, until)
        return self._events[lo:hi]

    def carries(self, prefix: IPv6Prefix, at: float) -> bool:
        """True when this collector holds a route for ``prefix`` at ``at``:
        the latest event for it visible by ``at`` is an announcement."""
        index = self._by_prefix.get(prefix)
        if index is None:
            return False
        times, held = index
        idx = bisect.bisect_right(times, at)
        return idx > 0 and held[idx - 1]


class CollectorWindow:
    """One poll window of the collector feed, shared by every watcher.

    ``new`` is :meth:`CollectorSystem.new_prefixes` for the window;
    :meth:`visibility` memoizes each prefix's collector count at the
    window's end.
    """

    def __init__(self, system: "CollectorSystem", since: float,
                 until: float):
        self._system = system
        self.until = until
        seen: dict[IPv6Prefix, float] = {}
        for event in system.visible_updates(since, until):
            if event.is_withdrawal:
                continue
            prev = seen.get(event.update.prefix)
            if prev is None or event.visible_at < prev:
                seen[event.update.prefix] = event.visible_at
        self.new: Mapping[IPv6Prefix, float] = MappingProxyType(seen)
        self._counts: dict[IPv6Prefix, int] = {}

    def visibility(self, prefix: IPv6Prefix) -> int:
        """Collectors carrying ``prefix`` at the end of the window."""
        count = self._counts.get(prefix)
        if count is None:
            count = self._system.visibility_count(prefix, self.until)
            self._counts[prefix] = count
        return count


class CollectorSystem:
    """The full set of public collectors plus the propagation model."""

    def __init__(
        self,
        rng: np.random.Generator | int | None = 0,
        n_collectors: int = 36,
        n_permissive: int = 5,
        roa_registry: RoaRegistry | None = None,
        reach_probability: float = 0.85,
        min_delay: float = 60.0,
        max_delay: float = 900.0,
    ):
        if n_permissive > n_collectors:
            raise ValueError("n_permissive cannot exceed n_collectors")
        self._rng = make_rng(rng)
        self.roa_registry = roa_registry
        self.reach_probability = reach_probability
        self.min_delay = min_delay
        self.max_delay = max_delay
        registry = get_registry()
        self._m_announcements = registry.counter("bgp.announcements")
        self._m_withdrawals = registry.counter("bgp.withdrawals")
        self._m_records = registry.counter("bgp.collector_records")
        self.collectors: list[RouteCollector] = []
        strict_flags = self._rng.random(n_collectors) < 0.4
        for i in range(n_collectors):
            self.collectors.append(
                RouteCollector(
                    name=f"rc{i:02d}",
                    accepts_hyper_specific=i < n_permissive,
                    rpki_strict=bool(strict_flags[i]) and roa_registry is not None,
                )
            )
        self._window = WindowView()

    def _delay(self) -> float:
        return float(self._rng.uniform(self.min_delay, self.max_delay))

    def _validity(self, prefix: IPv6Prefix, origin: int, at: float) -> RpkiValidity:
        if self.roa_registry is None:
            return RpkiValidity.NOT_FOUND
        return self.roa_registry.validate(prefix, origin, at=at)

    def announce(self, announcement: Announcement) -> list[RouteCollector]:
        """Propagate an announcement; return the collectors that accepted it."""
        self._m_announcements.inc()
        validity = self._validity(
            announcement.prefix, announcement.origin_asn, announcement.timestamp
        )
        reached = []
        hyper = announcement.prefix.length > GLOBAL_ROUTABLE_MAX_LENGTH
        for collector in self.collectors:
            if hyper and not collector.accepts_hyper_specific:
                continue
            if collector.rpki_strict and validity is not RpkiValidity.VALID:
                continue
            if not hyper and self._rng.random() > self.reach_probability:
                continue
            collector.record(announcement, announcement.timestamp + self._delay())
            reached.append(collector)
        self._m_records.inc(len(reached))
        return reached

    def withdraw(self, withdrawal: Withdrawal) -> list[RouteCollector]:
        """Propagate a withdrawal to every collector carrying the prefix."""
        self._m_withdrawals.inc()
        reached = []
        for collector in self.collectors:
            if collector.carries(withdrawal.prefix, withdrawal.timestamp):
                collector.record(withdrawal, withdrawal.timestamp + self._delay())
                reached.append(collector)
        self._m_records.inc(len(reached))
        return reached

    def visibility_count(self, prefix: IPv6Prefix, at: float) -> int:
        """Number of collectors carrying ``prefix`` at time ``at``."""
        return sum(1 for c in self.collectors if c.carries(prefix, at))

    def visible_updates(self, since: float, until: float) -> Iterator[VisibleUpdate]:
        """All updates that became visible in ``(since, until]``.

        This is the feed scanner agents poll; updates from different
        collectors for the same prefix are yielded individually, as a real
        RIS/RouteViews consumer would see them.
        """
        for collector in self.collectors:
            yield from collector.events_between(since, until)

    def window(self, since: float, until: float) -> CollectorWindow:
        """The shared view of ``(since, until]``: built once, and rebuilt
        only when the window changes or any collector records an event
        (collector logs are append-only, so their total length counts
        the feed's mutations)."""
        mutations = sum(len(c) for c in self.collectors)
        return self._window.get((since, until, mutations),
                                lambda: CollectorWindow(self, since, until))

    def new_prefixes(self, since: float,
                     until: float) -> Mapping[IPv6Prefix, float]:
        """Deduplicated map of newly announced prefix -> earliest visibility.

        Convenience for scanners that only care about *new* targets; the
        read-only map is shared (see :meth:`window`).
        """
        return self.window(since, until).new
