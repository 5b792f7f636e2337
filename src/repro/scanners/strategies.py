"""Target-generation strategies wired to the public data feeds.

Each strategy polls one data source and converts what it finds into
:class:`ProbeBatch` descriptors — "start probing these targets at time T,
with an initial burst decaying to a floor".  The burst/decay form matches
the paper's Figures 7/8: scanner attention spikes immediately after a
trigger, then converges to a stable lower value after 15-40 days.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro._util import DAY, derive_rng
from repro.dns.resolver import Resolver
from repro.dns.reverse import ReverseZone
from repro.hitlist.categories import ADDRESS_CATEGORIES, HitlistCategory
from repro.hitlist.service import HitlistService
from repro.net.addr import IPv6Prefix, random_addresses_u64, split_u64
from repro.net.packet import ICMPV6, TCP, UDP
from repro.routing.collectors import CollectorSystem
from repro.tlsca.ctlog import CtLog


#: Columnar target draw: (dst_hi, dst_lo, proto, dport) numpy columns.
TargetColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Draws ``n`` probe targets as columns —
#: ``(rng, n) -> (dst_hi, dst_lo, proto, dport)``.
TargetSampler = Callable[[np.random.Generator, int], TargetColumns]

#: The probes sent to each address of a target list, as (proto, dport)
#: pairs in row order.
ProbeLayout = tuple[tuple[int, int], ...]


def layout_columns(addresses: Sequence[int],
                   layout: ProbeLayout) -> TargetColumns:
    """Target columns probing every address with every probe of
    ``layout``: address-major rows, the layout's order within each."""
    hi, lo = split_u64(addresses)
    k = len(layout)
    proto = np.array([p for p, _ in layout], dtype=np.uint8)
    dport = np.array([d for _, d in layout], dtype=np.uint16)
    return (np.repeat(hi, k), np.repeat(lo, k),
            np.tile(proto, len(hi)), np.tile(dport, len(hi)))


class AddressWindow:
    """What every watcher resolving through one resolver derives alike
    within one poll window, computed once and read by all agents.

    Holds each name's AAAA answer, each answer's target columns per probe
    layout, and interaction levels per ``(oracle, address, at)``.  Only
    deterministic data lives here; every agent still makes its own RNG
    draws.  Columns are read-only: samplers index them, never write.
    """

    def __init__(self, resolver: Resolver):
        self._resolver = resolver
        self._answers: dict[tuple[str, float], tuple[int, ...]] = {}
        self._columns: dict[tuple, TargetColumns] = {}
        self._levels: dict[tuple, int] = {}

    @classmethod
    def of(cls, resolver: Resolver, since: float,
           until: float) -> "AddressWindow":
        """The shared window of ``resolver`` for ``(since, until]``."""
        return resolver.view.get((since, until, resolver.mutations),
                                   lambda: cls(resolver))

    def aaaa(self, name: str, at: float) -> tuple[int, ...]:
        key = (name, at)
        answer = self._answers.get(key)
        if answer is None:
            answer = tuple(self._resolver.resolve_aaaa(name, at=at))
            self._answers[key] = answer
        return answer

    def columns(self, addresses: tuple[int, ...],
                layout: ProbeLayout) -> TargetColumns:
        key = (addresses, layout)
        columns = self._columns.get(key)
        if columns is None:
            columns = layout_columns(addresses, layout)
            for column in columns:
                column.flags.writeable = False
            self._columns[key] = columns
        return columns

    def level(self, oracle, addresses: tuple[int, ...], at: float) -> int:
        """The highest ``oracle(address, at)`` over ``addresses``."""
        levels = []
        for addr in addresses:
            key = (oracle, addr, at)
            level = self._levels.get(key)
            if level is None:
                level = self._levels[key] = oracle(addr, at)
            levels.append(level)
        return max(levels)


#: The protocol of each :meth:`ProtocolProfile.sample_batch` choice.
_PROTOCOLS = np.array([ICMPV6, TCP, UDP], dtype=np.uint8)


@dataclass(frozen=True)
class ProtocolProfile:
    """A scanner's protocol mix for generic (non-source-specific) probes.

    The weights are validated once, at construction: they must be finite
    and non-negative with a positive total.  The protocol CDF and the port
    columns are precomputed then, so a draw pays for none of it.
    """

    icmp_weight: float = 1.0
    tcp_weight: float = 0.0
    udp_weight: float = 0.0
    tcp_ports: tuple[int, ...] = (80, 443, 22, 23)
    udp_ports: tuple[int, ...] = (53, 123)

    def __post_init__(self) -> None:
        weights = np.array(
            [self.icmp_weight, self.tcp_weight, self.udp_weight]
        )
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ValueError(
                "protocol weights must be finite and non-negative, got "
                f"{tuple(weights.tolist())}"
            )
        total = weights.sum()
        if not (np.isfinite(total) and total > 0):
            raise ValueError("protocol profile has no positive weight")
        # Exactly the CDF Generator.choice(3, p=weights / total) builds.
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_tcp_ports",
                           np.asarray(self.tcp_ports, dtype=np.uint16))
        object.__setattr__(self, "_udp_ports",
                           np.asarray(self.udp_ports, dtype=np.uint16))

    def sample_batch(self, rng: np.random.Generator,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
        """Columnar protocol/port draw: ``(proto, dport)`` for ``n`` probes.

        Protocols follow the profile's weights; each probe's port is drawn
        uniformly from its protocol's port list.  The protocol draw is
        ``Generator.choice(3, size=n, p=...)`` without its per-call setup:
        the same uniforms, the same CDF, the same stream position after.
        The CDF's last entry is 1 and a uniform is below it, so the index
        is the count of the first two entries at or below the uniform.
        """
        u = rng.random(n)
        choice = (u >= self._cdf[0]).view(np.uint8)
        choice += u >= self._cdf[1]
        proto = _PROTOCOLS[choice]
        dport = np.zeros(n, dtype=np.uint16)
        tcp = np.flatnonzero(choice == 1)
        if len(tcp):
            dport[tcp] = self._tcp_ports[rng.integers(len(self._tcp_ports),
                                                      size=len(tcp))]
        udp = np.flatnonzero(choice == 2)
        if len(udp):
            dport[udp] = self._udp_ports[rng.integers(len(self._udp_ports),
                                                      size=len(udp))]
        return proto, dport


@dataclass
class ProbeBatch:
    """A trigger's worth of probing: targets plus an intensity envelope.

    Daily rate: ``floor + (peak - floor) * exp(-(t - start)/tau)`` packets
    per day, for ``duration`` days after ``start``.
    """

    trigger: str
    start: float
    sampler: TargetSampler
    peak_rate: float
    floor_rate: float = 0.0
    decay_tau: float = 10 * DAY
    duration: float = 365 * DAY
    #: The prefix this batch is probing (None for address-list batches);
    #: used to cancel batches when their BGP announcement is withdrawn.
    subject_prefix: IPv6Prefix | None = None
    #: Set when the batch is cancelled (e.g. BGP withdrawal): probing stops.
    cancelled_at: float | None = None

    def cancel(self, at: float) -> None:
        """Stop the batch at time ``at`` (idempotent, keeps earliest)."""
        if self.cancelled_at is None or at < self.cancelled_at:
            self.cancelled_at = at

    def rate_at(self, t: float) -> float:
        """Expected packets/day at absolute time ``t``."""
        if t < self.start or t > self.start + self.duration:
            return 0.0
        if self.cancelled_at is not None and t >= self.cancelled_at:
            return 0.0
        age = t - self.start
        return self.floor_rate + (self.peak_rate - self.floor_rate) * float(
            np.exp(-age / self.decay_tau)
        )


class Strategy:
    """Base: poll a data feed, return new probe batches."""

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        raise NotImplementedError


# -- samplers ----------------------------------------------------------------


def prefix_sampler(
    prefix: IPv6Prefix,
    profile: ProtocolProfile,
    low_weight: float = 0.5,
    low_span: int = 64,
) -> TargetSampler:
    """Probe inside a prefix: low addresses of low subnets + random spread.

    Mirrors observed in-prefix exploration: scanners concentrate on the
    first addresses of the first /64 subnets (``::1`` patterns) and scatter
    the rest across random /64s.  At /64 granularity the subnet index and
    low offset land in separate uint64 halves, so the whole draw
    vectorizes.
    """
    net_hi = np.uint64((prefix.network >> 64) & 0xFFFFFFFFFFFFFFFF)
    net_lo = np.uint64(prefix.network & 0xFFFFFFFFFFFFFFFF)
    n_subnets = 1 << min(64 - prefix.length, 16)

    def sample(rng: np.random.Generator, n: int) -> TargetColumns:
        low = rng.random(n) < low_weight
        dst_hi = np.empty(n, dtype=np.uint64)
        dst_lo = np.empty(n, dtype=np.uint64)
        k = int(low.sum())
        if k:
            dst_hi[low] = net_hi | rng.integers(min(n_subnets, 8), size=k,
                                                dtype=np.uint64)
            dst_lo[low] = net_lo | rng.integers(1, low_span, size=k,
                                                dtype=np.uint64)
        if k < n:
            high = ~low
            dst_hi[high], dst_lo[high] = random_addresses_u64(
                prefix, rng, n - k
            )
        proto, dport = profile.sample_batch(rng, n)
        return dst_hi, dst_lo, proto, dport

    return sample


def address_list_sampler(targets: TargetColumns) -> TargetSampler:
    """Probe a fixed list of concrete targets, uniformly at random.

    ``targets`` holds one row per list entry as target columns; every
    draw is one fancy-index into them.
    """
    dst_hi, dst_lo, proto, dport = targets
    size = len(dst_hi)
    if not size:
        raise ValueError("target list must not be empty")

    def sample(rng: np.random.Generator, n: int) -> TargetColumns:
        idx = rng.integers(0, size, size=n)
        return dst_hi[idx], dst_lo[idx], proto[idx], dport[idx]

    return sample


# -- feed-driven strategies ---------------------------------------------------


class BgpWatcher(Strategy):
    """Watches the public route collectors for new prefixes.

    Reacts to newly visible prefixes with an in-prefix probe batch.
    ``min_collectors`` models scanners that only trust well-propagated
    routes (hyper-specifics reach ~5 collectors and attract fewer, more
    sporadic scanners — Fig. 10's bimodality).  ``attention_probability``
    models finite scanning budgets: a light scanner picks up only a subset
    of new prefixes, which keeps source sets telescope-specific (the low
    Jaccard similarities of §5.1).

    When ``decision_seed`` is given, the whether-and-how of each reaction
    (the attention draw, reaction delay, and burst shape) comes from a
    dedicated stream keyed on ``(decision_seed, prefix)`` via
    :func:`repro._util.derive_rng` rather than the caller's generator.
    Reactions are then a stable property of the scanner × prefix pair:
    refactors that change how many draws the emission path makes cannot
    re-roll which announcements a scanner noticed.  (PR 3's columnar
    emission path silently re-rolled the sporadic-burst lottery this way
    and flattened Fig. 10 for the pinned benchmark seed.)
    """

    def __init__(
        self,
        collectors: CollectorSystem,
        profile: ProtocolProfile,
        peak_rate: float = 200.0,
        floor_rate: float = 5.0,
        decay_tau: float = 15 * DAY,
        reaction_delay: float = 6 * 3_600.0,
        min_collectors: int = 1,
        low_weight: float = 0.5,
        attention_probability: float = 1.0,
        decision_seed: int | None = None,
    ):
        self.collectors = collectors
        self.profile = profile
        self.peak_rate = peak_rate
        self.floor_rate = floor_rate
        self.decay_tau = decay_tau
        self.reaction_delay = reaction_delay
        self.min_collectors = min_collectors
        self.low_weight = low_weight
        self.attention_probability = attention_probability
        self.decision_seed = decision_seed
        self._seen: set[IPv6Prefix] = set()

    def _reaction_rng(self, prefix: IPv6Prefix,
                      rng: np.random.Generator) -> np.random.Generator:
        """The stream deciding this watcher's reaction to ``prefix``."""
        if self.decision_seed is None:
            return rng
        return derive_rng(self.decision_seed, prefix.network, prefix.length)

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        batches = []
        window = self.collectors.window(since, until)
        for prefix, visible_at in window.new.items():
            if prefix in self._seen:
                continue
            self._seen.add(prefix)
            if window.visibility(prefix) < self.min_collectors:
                continue
            d_rng = self._reaction_rng(prefix, rng)
            if d_rng.random() > self.attention_probability:
                continue
            start = visible_at + d_rng.exponential(self.reaction_delay)
            batches.append(ProbeBatch(
                trigger="bgp",
                start=start,
                sampler=prefix_sampler(prefix, self.profile,
                                       low_weight=self.low_weight),
                peak_rate=self.peak_rate * float(d_rng.uniform(0.5, 1.5)),
                floor_rate=self.floor_rate,
                decay_tau=self.decay_tau * float(d_rng.uniform(0.7, 1.3)),
                subject_prefix=prefix,
            ))
        return batches

    def withdrawn_prefixes(self, since: float, until: float) -> set[IPv6Prefix]:
        """Prefixes withdrawn in the window (agents cancel their batches).

        IPv6 scanners refresh their seeds frequently — the paper saw
        scanning die within hours of a BGP retraction (§5.3.1).
        """
        gone = set()
        for event in self.collectors.visible_updates(since, until):
            if event.is_withdrawal:
                gone.add(event.update.prefix)
        return gone


class ZoneFileWatcher(Strategy):
    """Diffs TLD zone files, resolves new names, probes the AAAA targets.

    ``TLD_WEIGHTS`` models monitoring popularity: far more scanners diff
    the .com zone than .org/.net, which is why the paper's H_Com drew more
    traffic than H_Org/net despite fewer names.
    """

    TLD_WEIGHTS = {"com": 1.0, "net": 0.55, "org": 0.45}

    def __init__(
        self,
        new_names: Callable[[float, float], Mapping[str, float]],
        resolver: Resolver,
        peak_rate: float = 60.0,
        floor_rate: float = 2.0,
        decay_tau: float = 12 * DAY,
        reaction_delay: float = 12 * 3_600.0,
        probe_web: bool = True,
        probe_surrounding: bool = False,
        attention_probability: float = 1.0,
        ping_ratio: int = 4,
    ):
        self.new_names = new_names
        self.resolver = resolver
        self.peak_rate = peak_rate
        self.floor_rate = floor_rate
        self.decay_tau = decay_tau
        self.reaction_delay = reaction_delay
        self.probe_web = probe_web
        self.probe_surrounding = probe_surrounding
        self.attention_probability = attention_probability
        self.ping_ratio = max(1, ping_ratio)
        # ICMP liveness checks outnumber service probes for most scanners
        # (§5.2: ICMPv6 is 91.6% of all unsolicited traffic); service-
        # focused scanners pass ping_ratio=1.
        self._layout: ProbeLayout = ((ICMPV6, 0),) * self.ping_ratio + (
            ((TCP, 80), (TCP, 443)) if probe_web else ())
        self._seen: set[str] = set()

    def _surrounding(self, addresses: tuple[int, ...],
                     rng: np.random.Generator) -> TargetColumns:
        """Four ICMP probes at random low offsets of each address's /64."""
        hi, _ = split_u64(addresses)
        lo = np.array([int(rng.integers(1, 1 << 16))
                       for _ in addresses for _ in range(4)], dtype=np.uint64)
        n = len(lo)
        return (np.repeat(hi, 4), lo, np.full(n, ICMPV6, dtype=np.uint8),
                np.zeros(n, dtype=np.uint16))

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        batches = []
        window = AddressWindow.of(self.resolver, since, until)
        for name, published in self.new_names(since, until).items():
            if name in self._seen:
                continue
            self._seen.add(name)
            tld_weight = self.TLD_WEIGHTS.get(name.rsplit(".", 1)[-1], 0.5)
            if rng.random() > self.attention_probability * tld_weight:
                continue
            addresses = window.aaaa(name, published)
            if not addresses:
                continue
            targets = window.columns(addresses, self._layout)
            if self.probe_surrounding:
                targets = tuple(map(np.concatenate, zip(
                    targets, self._surrounding(addresses, rng))))
            start = published + rng.exponential(self.reaction_delay)
            batches.append(ProbeBatch(
                trigger="zonefile",
                start=start,
                sampler=address_list_sampler(targets),
                peak_rate=self.peak_rate * float(rng.uniform(0.5, 1.5)),
                floor_rate=self.floor_rate,
                decay_tau=self.decay_tau,
            ))
        return batches


class CtLogWatcher(Strategy):
    """Subscribes to CT logs; reacts within seconds of certificate issuance.

    The paper timed the first post-issuance scanner at 7 seconds — CT bots
    stream the log, they do not poll daily.
    """

    #: Engagement multipliers by interaction level (dark, low, high):
    #: scanners keep returning to full-stack services — the order-of-
    #: magnitude amplification the paper measured on the T-Pot prefixes.
    ENGAGEMENT_FACTORS = (0.3, 1.0, 12.0)

    def __init__(
        self,
        ct_log: CtLog,
        resolver: Resolver,
        peak_rate: float = 150.0,
        floor_rate: float = 3.0,
        decay_tau: float = 20 * DAY,
        reaction_delay: float = 30.0,
        interaction_oracle=None,
        ping_ratio: int = 4,
    ):
        self.ct_log = ct_log
        self.resolver = resolver
        self.peak_rate = peak_rate
        self.floor_rate = floor_rate
        self.decay_tau = decay_tau
        self.reaction_delay = reaction_delay
        self.interaction_oracle = interaction_oracle
        self.ping_ratio = max(1, ping_ratio)
        # Liveness pings accompany (and usually outnumber) the service
        # probes, per the overall ICMP dominance of §5.2.
        self._layout: ProbeLayout = (
            (TCP, 443), (TCP, 80)) + ((ICMPV6, 0),) * self.ping_ratio
        self._seen: set[str] = set()

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        batches = []
        window = AddressWindow.of(self.resolver, since, until)
        for name, logged_at in self.ct_log.names_between(since, until).items():
            if name in self._seen:
                continue
            self._seen.add(name)
            addresses = window.aaaa(name, logged_at)
            if not addresses:
                continue
            targets = window.columns(addresses, self._layout)
            factor = 1.0
            if self.interaction_oracle is not None:
                level = window.level(self.interaction_oracle, addresses,
                                     logged_at)
                factor = self.ENGAGEMENT_FACTORS[level]
            start = logged_at + float(rng.exponential(self.reaction_delay))
            batches.append(ProbeBatch(
                trigger="ctlog",
                start=start,
                sampler=address_list_sampler(targets),
                peak_rate=self.peak_rate * factor * float(
                    rng.uniform(0.5, 1.5)
                ),
                floor_rate=self.floor_rate * factor,
                decay_tau=self.decay_tau,
            ))
        return batches


class HitlistConsumer(Strategy):
    """Downloads hitlist publications and probes entries per category.

    Entry probing is weighted: ICMP-list entries are liveness checks and get
    pinged far more often than service entries, and entries fronting
    high-interaction services (per the ``interaction_oracle``) soak up
    disproportionate attention — together these produce the paper's
    H_UDP (manual ICMP entry, Δ=112k pkts/day) and T-Pot hitlist-trigger
    effects.
    """

    #: Repetition weight of an ICMP entry relative to a service entry.
    #: ICMP liveness lists are re-probed constantly — this is what makes
    #: the manually hitlisted H_UDP address the second-largest effect in
    #: Table 4 (112k packets/day, an order over the domain prefixes).
    ICMP_WEIGHT = 12
    #: Extra weight multiplier per interaction level (dark, low, high).
    ENGAGEMENT_WEIGHTS = (1, 2, 10)

    def __init__(
        self,
        hitlist: HitlistService,
        peak_rate: float = 120.0,
        floor_rate: float = 10.0,
        decay_tau: float = 25 * DAY,
        reaction_delay: float = 2 * DAY,
        categories: tuple[HitlistCategory, ...] | None = None,
        alias_probe_rate: float = 300.0,
        interaction_oracle=None,
        icmp_weight: int | None = None,
    ):
        self.hitlist = hitlist
        self.peak_rate = peak_rate
        self.floor_rate = floor_rate
        self.decay_tau = decay_tau
        self.reaction_delay = reaction_delay
        self.categories = categories
        self.alias_probe_rate = alias_probe_rate
        self.interaction_oracle = interaction_oracle
        self.icmp_weight = self.ICMP_WEIGHT if icmp_weight is None else max(
            1, icmp_weight
        )
        #: Aliased prefixes already being probed (one batch per prefix).
        self._seen_aliased: set[IPv6Prefix] = set()
        self._current_batch: ProbeBatch | None = None

    def _target_columns(self, at: float) -> TargetColumns | None:
        """The weighted target list for the current hitlist snapshot.

        A real consumer downloads the whole published list each time, so
        delisted addresses (removed entries) drop out here — the mechanism
        by which scanning dies within hours-to-days of a BGP retraction.
        The snapshot's target columns and oracle levels are shared by
        every consumer; only the weighting is this consumer's own: each
        listed address becomes ``weight`` identical rows.  None when the
        list has no rows.
        """
        view = self.hitlist.address_columns(at)
        per_category = np.array([
            0 if self.categories and category not in self.categories
            else self.icmp_weight if category is HitlistCategory.ICMP else 1
            for category in ADDRESS_CATEGORIES
        ], dtype=np.int64)
        weight = per_category[view.category]
        if self.interaction_oracle is not None:
            engagement = np.asarray(self.ENGAGEMENT_WEIGHTS, dtype=np.int64)
            weight *= engagement[view.levels(self.interaction_oracle, at)]
        if not weight.any():
            return None
        return tuple(np.repeat(column, weight) for column in view.targets)

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        batches = []
        changed = False
        first_published = None
        for entry in self.hitlist.entries_between(since, until):
            if self.categories and entry.category not in self.categories:
                continue
            if entry.category is HitlistCategory.ALIASED:
                if entry.prefix in self._seen_aliased:
                    continue
                self._seen_aliased.add(entry.prefix)
                profile = ProtocolProfile(icmp_weight=1.0)
                start = entry.published_at + rng.exponential(
                    self.reaction_delay
                )
                batches.append(ProbeBatch(
                    trigger="hitlist",
                    start=start,
                    sampler=prefix_sampler(entry.prefix, profile,
                                           low_weight=0.5),
                    peak_rate=self.alias_probe_rate * float(
                        rng.uniform(0.5, 1.5)
                    ),
                    floor_rate=self.floor_rate,
                    decay_tau=self.decay_tau,
                    subject_prefix=entry.prefix,
                ))
                continue
            if entry.address is not None:
                changed = True
                if first_published is None and not entry.removed:
                    first_published = entry.published_at
        if changed:
            # A new hitlist download replaces the previous target list; the
            # spend scales with the (weighted) list so hot new entries add
            # traffic instead of diluting existing targets.
            if self._current_batch is not None:
                self._current_batch.cancel(until)
            targets = self._target_columns(until)
            if targets is None:
                return batches
            start = (first_published if first_published is not None
                     else until) + float(rng.exponential(self.reaction_delay))
            budget = max(1.0, len(targets[0]) / 40.0)
            self._current_batch = ProbeBatch(
                trigger="hitlist",
                start=start,
                sampler=address_list_sampler(targets),
                peak_rate=self.peak_rate * budget * float(
                    rng.uniform(0.5, 1.5)
                ),
                floor_rate=self.floor_rate * budget,
                decay_tau=self.decay_tau,
            )
            batches.append(self._current_batch)
        return batches


class RdnsWalkerStrategy(Strategy):
    """Walks ip6.arpa under watched prefixes, probing discovered PTR hosts."""

    def __init__(
        self,
        reverse_zone: ReverseZone,
        watched: list[IPv6Prefix],
        peak_rate: float = 40.0,
        floor_rate: float = 1.0,
        decay_tau: float = 10 * DAY,
        walk_period: float = 7 * DAY,
    ):
        self.reverse_zone = reverse_zone
        self.watched = watched
        self.peak_rate = peak_rate
        self.floor_rate = floor_rate
        self.decay_tau = decay_tau
        self.walk_period = walk_period
        self._known: set[int] = set()
        self._last_walk = -np.inf

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        if until - self._last_walk < self.walk_period:
            return []
        self._last_walk = until
        fresh: list[int] = []
        for prefix in self.watched:
            for addr in self.reverse_zone.walk(prefix.network, prefix.length,
                                               at=until):
                if addr not in self._known:
                    self._known.add(addr)
                    fresh.append(addr)
        if not fresh:
            return []
        hi, lo = split_u64(fresh)
        n = len(fresh)
        targets = (np.concatenate([hi, hi]), np.concatenate([lo, lo]),
                   np.repeat(np.array([ICMPV6, TCP], dtype=np.uint8), n),
                   np.repeat(np.array([0, 22], dtype=np.uint16), n))
        return [ProbeBatch(
            trigger="rdns",
            start=until,
            sampler=address_list_sampler(targets),
            peak_rate=self.peak_rate,
            floor_rate=self.floor_rate,
            decay_tau=self.decay_tau,
        )]


class AmbientScanner(Strategy):
    """Steady background probing of a long-known prefix.

    Models scanners that discovered a network long before the measurement
    window (NT-B's and NT-C's covering prefixes are old, stable routes that
    no BGP-diff watcher would flag).  Emits a single constant-rate batch
    starting at ``start``.
    """

    def __init__(
        self,
        prefix: IPv6Prefix,
        profile: ProtocolProfile,
        rate: float,
        start: float = 0.0,
        low_weight: float = 0.5,
        duration: float = 10 * 365 * DAY,
    ):
        self.prefix = prefix
        self.profile = profile
        self.rate = rate
        self.start = start
        self.low_weight = low_weight
        self.duration = duration
        self._emitted = False

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        if self._emitted or until < self.start:
            return []
        self._emitted = True
        return [ProbeBatch(
            trigger="ambient",
            start=self.start,
            sampler=prefix_sampler(self.prefix, self.profile,
                                   low_weight=self.low_weight),
            peak_rate=self.rate,
            floor_rate=self.rate,
            decay_tau=365 * DAY,
            duration=self.duration,
            subject_prefix=self.prefix,
        )]


class CoveringSweeper(Strategy):
    """A rare wide scanner sweeping every /48 of a covering prefix.

    The paper found 55 of 191k sources scanning beyond the honeyprefix
    scope, one of them hitting 61.5k of 65k /48s; the resulting
    non-honeyprefix traffic (1.6% of the total) skewed toward the first
    16 /48s.  ``low_bias`` reproduces that skew.
    """

    def __init__(
        self,
        covering_prefix: IPv6Prefix,
        profile: ProtocolProfile,
        rate: float,
        start: float = 0.0,
        low_bias: float = 0.5,
    ):
        self.covering_prefix = covering_prefix
        self.profile = profile
        self.rate = rate
        self.start = start
        self.low_bias = low_bias
        self._emitted = False

    def _sampler(self) -> TargetSampler:
        prefix = self.covering_prefix
        profile = self.profile
        low_bias = self.low_bias
        n48 = 1 << (48 - prefix.length)

        # The /48 index shifts by 80 bits, i.e. by 16 within the hi half,
        # and the host offset fits the lo half.
        net_hi = np.uint64((prefix.network >> 64) & 0xFFFFFFFFFFFFFFFF)
        net_lo = np.uint64(prefix.network & 0xFFFFFFFFFFFFFFFF)

        def sample(rng: np.random.Generator, n: int) -> TargetColumns:
            low = rng.random(n) < low_bias
            idx = np.empty(n, dtype=np.uint64)
            k = int(low.sum())
            if k:
                idx[low] = rng.integers(min(16, n48), size=k,
                                        dtype=np.uint64)
            if k < n:
                idx[~low] = rng.integers(n48, size=n - k, dtype=np.uint64)
            dst_hi = net_hi | (idx << np.uint64(16))
            dst_lo = net_lo | rng.integers(1, 1 << 16, size=n,
                                           dtype=np.uint64)
            proto, dport = profile.sample_batch(rng, n)
            return dst_hi, dst_lo, proto, dport

        return sample

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        if self._emitted or until < self.start:
            return []
        self._emitted = True
        return [ProbeBatch(
            trigger="sweep",
            start=self.start,
            sampler=self._sampler(),
            peak_rate=self.rate,
            floor_rate=self.rate,
            decay_tau=365 * DAY,
            duration=10 * 365 * DAY,
        )]
