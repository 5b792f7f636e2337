"""The calibrated synthetic scanner population.

Builds the agent roster that reproduces NT-A's observed source
characteristics (Tables 3/8, Figures 5/6):

* **heavy hitters** — named archetypes of the paper's top ASNs:
  AMAZON-02-style cloud pingers (huge volume, tens of thousands of source
  addresses clustered in few /64s, ICMP-dominant), CERNET/Tsinghua-style
  R&E explorers (few sources, massive unique-destination TGA scans),
  Hurricane-style ISP scanners, and a DigitalOcean-style CT bot;
* **Internet Scanner ASes** — AlphaStrike-style operations spreading
  per-packet source addresses across an entire /30 (Germany's dominance in
  Fig. 6), TCP-dominant per Fig. 5, plus Shadowserver/
  internet-measurement.com-style fleets;
* **the long tail** — ~140 light scanners across AS categories whose
  trigger subscriptions produce the per-honeyprefix ASN-diversity effects
  (Table 4's delta-ASN of ~25-40 source ASNs/day).

Every AS is registered in the fabric's metadata datasets so the analysis
joins reproduce the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import DAY, make_rng, spawn_rngs
from repro.datasets.asdb import AsCategory, AsRecord
from repro.net.addr import IPv6Prefix
from repro.scanners.agent import ScannerAgent
from repro.scanners.identity import AllocationMode, ScannerIdentity
from repro.scanners.strategies import (
    BgpWatcher,
    CtLogWatcher,
    HitlistConsumer,
    ProtocolProfile,
    RdnsWalkerStrategy,
    ZoneFileWatcher,
)
from repro.scanners.tga import PatternTga

#: Protocol profiles per AS category (Fig. 5's mix).
CATEGORY_PROFILES: dict[AsCategory, ProtocolProfile] = {
    AsCategory.HOSTING_CLOUD: ProtocolProfile(
        icmp_weight=0.96, tcp_weight=0.03, udp_weight=0.01
    ),
    AsCategory.RESEARCH_EDUCATION: ProtocolProfile(
        icmp_weight=0.97, tcp_weight=0.03, udp_weight=0.0
    ),
    AsCategory.INTERNET_SCANNER: ProtocolProfile(
        icmp_weight=0.25, tcp_weight=0.65, udp_weight=0.10,
        tcp_ports=(80, 443, 22, 23, 25, 3389, 8080),
    ),
    AsCategory.ISP_TELECOM: ProtocolProfile(
        icmp_weight=0.85, tcp_weight=0.12, udp_weight=0.03
    ),
    AsCategory.CDN: ProtocolProfile(icmp_weight=0.9, tcp_weight=0.1),
    AsCategory.ENTERPRISE: ProtocolProfile(icmp_weight=0.8, tcp_weight=0.2),
    AsCategory.OTHER: ProtocolProfile(icmp_weight=0.8, tcp_weight=0.2),
}

#: Country mix for the long tail (very roughly Fig. 6's spread).
TAIL_COUNTRIES = ("US", "CN", "DE", "GB", "NL", "FR", "RU", "JP", "BR",
                  "IN", "KR", "CA", "AU", "SG", "IE")
TAIL_COUNTRY_WEIGHTS = (0.25, 0.18, 0.08, 0.07, 0.06, 0.05, 0.05, 0.05,
                        0.04, 0.04, 0.04, 0.03, 0.02, 0.02, 0.02)

TAIL_CATEGORIES = (
    AsCategory.HOSTING_CLOUD,
    AsCategory.ISP_TELECOM,
    AsCategory.RESEARCH_EDUCATION,
    AsCategory.ENTERPRISE,
    AsCategory.INTERNET_SCANNER,
    AsCategory.CDN,
)
TAIL_CATEGORY_WEIGHTS = (0.40, 0.20, 0.15, 0.12, 0.07, 0.06)


@dataclass
class PopulationSpec:
    """Knobs for the population builder.

    ``volume_scale`` scales every emission rate: 1.0 approximates the
    paper's absolute packet volumes (hundreds of millions — do not do this
    on a laptop), the default 1e-3 keeps the full 10-month scenario in the
    hundreds of thousands of packets while preserving every ratio.
    """

    volume_scale: float = 1.0
    n_tail: int = 140
    include_heavy_hitters: bool = True
    include_scanner_ases: bool = True
    include_rdns_walker: bool = True
    #: Base prefix from which tail scanner source prefixes are carved.
    tail_base: IPv6Prefix = field(
        default_factory=lambda: IPv6Prefix.parse("2600::/12")
    )
    #: Rate multipliers, exposed for ablation benchmarks.
    bgp_rate: float = 1.0
    zonefile_rate: float = 1.0
    ctlog_rate: float = 1.0
    hitlist_rate: float = 1.0
    tga_rate: float = 1.0
    #: Scales heavy hitters' source-address pool sizes (the paper's 44k
    #: AMAZON-02 /128s become 4.4k at the default 0.1).
    source_scale: float = 0.1


def _register(fabric, record: AsRecord, prefix: IPv6Prefix) -> None:
    fabric.asdb.register(record)
    fabric.prefix2as.add(prefix, record.asn)
    fabric.geodb.add(prefix, record.country)


def _hitlist_seed_source(fabric):
    """Seed feed for TGAs: addresses newly published on the hitlist."""

    def feed(since: float, until: float) -> list[int]:
        return [
            entry.address
            for entry in fabric.hitlist.entries_between(since, until)
            if entry.address is not None
        ]

    return feed


def _collector_prefix_seed_source(fabric, min_collectors: int = 10):
    """Seed feed: first addresses of newly announced, well-propagated
    prefixes.  Hyper-specific announcements visible at only a handful of
    collectors do not make it into TGA seed sets (Fig 10: most scanners
    never pick them up)."""

    def feed(since: float, until: float) -> list[int]:
        window = fabric.collectors.window(since, until)
        return [prefix.network | 1 for prefix in window.new
                if window.visibility(prefix) >= min_collectors]

    return feed


def _hitlist_removal_source(fabric):
    """Removal feed: addresses delisted by hitlist revalidation."""

    def feed(since: float, until: float) -> list[int]:
        return [
            entry.address
            for entry in fabric.hitlist.entries_between(since, until)
            if entry.removed and entry.address is not None
        ]

    return feed


def _collector_withdrawal_source(fabric):
    """Removal feed: first addresses of withdrawn prefixes."""

    def feed(since: float, until: float) -> list[int]:
        return [
            event.update.prefix.network | 1
            for event in fabric.collectors.visible_updates(since, until)
            if event.is_withdrawal
        ]

    return feed


def build_population(
    fabric,
    spec: PopulationSpec | None = None,
    rng: np.random.Generator | int | None = None,
) -> list[ScannerAgent]:
    """Build the calibrated scanner population against ``fabric``.

    ``fabric`` is an :class:`repro.sim.fabric.InternetFabric`; all strategy
    feeds, AS registrations, and geolocations land there.
    """
    spec = spec or PopulationSpec()
    rng = make_rng(fabric.rng_population if rng is None else rng)
    agents: list[ScannerAgent] = []
    scale = spec.volume_scale
    zone_feed = fabric.registrar.new_domains
    # Base key for per-(scanner, prefix) reaction decision streams.  Keyed
    # on the ASN rather than construction draw order so that which
    # announcements a scanner reacts to is pinned by (population seed, AS,
    # prefix) alone — Fig. 10's sporadic bursts survive stream reshuffles.
    decision_base = int(rng.integers(1 << 62))

    def _agent(identity: ScannerIdentity, strategies, prefix: IPv6Prefix,
               record: AsRecord | None = None) -> ScannerAgent:
        _register(fabric, record or AsRecord(
            identity.asn, identity.as_name, identity.category,
            identity.country,
        ), prefix)
        for strategy in strategies:
            if (isinstance(strategy, BgpWatcher)
                    and strategy.decision_seed is None):
                strategy.decision_seed = decision_base + identity.asn
        agent = ScannerAgent(
            identity, strategies,
            rng=spawn_rngs(rng, 1)[0],
            volume_scale=1.0,  # scale baked into strategy rates below
        )
        agents.append(agent)
        return agent

    if spec.include_heavy_hitters:
        _build_heavy_hitters(fabric, spec, rng, _agent, zone_feed)
    if spec.include_scanner_ases:
        _build_scanner_ases(fabric, spec, rng, _agent, zone_feed)
    _build_tail(fabric, spec, rng, _agent, zone_feed)
    _apply_rate_multipliers(agents, spec)
    return agents


def _apply_rate_multipliers(agents: list[ScannerAgent],
                            spec: PopulationSpec) -> None:
    """Scale every strategy's emission rates by the spec's per-channel
    multipliers.  Applying this globally (heavy hitters included) is what
    makes the multipliers usable as ablation knobs: setting
    ``ctlog_rate=0`` silences the whole CT-bot channel."""
    from repro.scanners.strategies import (
        BgpWatcher as _Bgp,
        CtLogWatcher as _Ct,
        HitlistConsumer as _Hl,
        ZoneFileWatcher as _Zone,
    )
    from repro.scanners.tga import PatternTga as _Tga

    multipliers = {
        _Bgp: spec.bgp_rate,
        _Zone: spec.zonefile_rate,
        _Ct: spec.ctlog_rate,
        _Hl: spec.hitlist_rate,
        _Tga: spec.tga_rate,
    }
    channel_rates = {"hitlist": spec.hitlist_rate, "bgp": spec.bgp_rate}
    for agent in agents:
        for strategy in agent.strategies:
            factor = multipliers.get(type(strategy))
            if isinstance(strategy, _Tga):
                # A TGA inherits the fate of the channel seeding it:
                # silencing the hitlist silences hitlist-seeded TGAs.
                factor = spec.tga_rate * channel_rates.get(
                    strategy.seed_channel, 1.0
                )
            if factor is None or factor == 1.0:
                continue
            strategy.peak_rate *= factor
            strategy.floor_rate *= factor
            if hasattr(strategy, "alias_probe_rate"):
                strategy.alias_probe_rate *= factor


# -- heavy hitters --------------------------------------------------------


def _build_heavy_hitters(fabric, spec, rng, _agent, zone_feed) -> None:
    scale = spec.volume_scale
    cloud = CATEGORY_PROFILES[AsCategory.HOSTING_CLOUD]
    re_profile = CATEGORY_PROFILES[AsCategory.RESEARCH_EDUCATION]

    # AMAZON-02: the dominant cloud pinger.  Tens of thousands of source
    # /128s clustered into a few hundred /64s; reacts to everything.
    amazon_prefix = IPv6Prefix.parse("2620:108::/32")
    _agent(
        ScannerIdentity(
            asn=29014, as_name="AMAZON-02",
            category=AsCategory.HOSTING_CLOUD, country="US",
            source_prefix=amazon_prefix,
            allocation=AllocationMode.SMALL_POOL,
            pool_size=max(2, int(44_000 * spec.source_scale)),
            pool_subnets=336,
            sources_per_target=max(2, int(44_000 * spec.source_scale) // 26),
        ),
        [
            BgpWatcher(fabric.collectors, cloud,
                       min_collectors=10,
                       peak_rate=700_000 * scale, floor_rate=55_000 * scale,
                       decay_tau=15 * DAY, low_weight=0.9),
            HitlistConsumer(fabric.hitlist,
                            interaction_oracle=fabric.interaction_level,
                            peak_rate=380_000 * scale,
                            floor_rate=130_000 * scale,
                            decay_tau=25 * DAY,
                            alias_probe_rate=450_000 * scale),
        ],
        amazon_prefix,
    )

    # CNGI-CERNET: R&E explorer — 46 sources, enormous unique-target TGA.
    cernet_prefix = IPv6Prefix.parse("2001:da8::/32")
    _agent(
        ScannerIdentity(
            asn=23910, as_name="CNGI-CERNET",
            category=AsCategory.RESEARCH_EDUCATION, country="CN",
            source_prefix=cernet_prefix,
            allocation=AllocationMode.SMALL_POOL, pool_size=46,
            pool_subnets=4,
        ),
        [
            PatternTga(_hitlist_seed_source(fabric), re_profile,
                       removal_source=_hitlist_removal_source(fabric),
                       seed_channel="hitlist",
                       peak_rate=5_000_000 * scale,
                       floor_rate=1_700_000 * scale,
                       decay_tau=30 * DAY),
            PatternTga(_collector_prefix_seed_source(fabric), re_profile,
                       removal_source=_collector_withdrawal_source(fabric),
                       seed_channel="bgp",
                       peak_rate=2_200_000 * scale,
                       floor_rate=600_000 * scale,
                       decay_tau=40 * DAY),
        ],
        cernet_prefix,
    )

    # AMAZON-AES: the smaller Amazon backbone.
    aes_prefix = IPv6Prefix.parse("2406:da00::/32")
    _agent(
        ScannerIdentity(
            asn=14618, as_name="AMAZON-AES",
            category=AsCategory.HOSTING_CLOUD, country="US",
            source_prefix=aes_prefix,
            allocation=AllocationMode.SMALL_POOL,
            pool_size=max(2, int(11_000 * spec.source_scale)),
            pool_subnets=25,
            sources_per_target=max(2, int(11_000 * spec.source_scale) // 26),
        ),
        [
            BgpWatcher(fabric.collectors, cloud,
                       min_collectors=10,
                       peak_rate=40_000 * scale, floor_rate=2_500 * scale,
                       decay_tau=12 * DAY, low_weight=0.9),
            HitlistConsumer(fabric.hitlist,
                            interaction_oracle=fabric.interaction_level,
                            peak_rate=20_000 * scale,
                            floor_rate=6_000 * scale,
                            alias_probe_rate=24_000 * scale),
        ],
        aes_prefix,
    )

    # TSINGHUA: the second R&E explorer, 5 sources.
    tsinghua_prefix = IPv6Prefix.parse("2402:f000::/32")
    _agent(
        ScannerIdentity(
            asn=45576, as_name="TSINGHUA-UNIVERSITY",
            category=AsCategory.RESEARCH_EDUCATION, country="CN",
            source_prefix=tsinghua_prefix,
            allocation=AllocationMode.SMALL_POOL, pool_size=5,
        ),
        [PatternTga(_hitlist_seed_source(fabric), re_profile,
                    removal_source=_hitlist_removal_source(fabric),
                    seed_channel="hitlist",
                    peak_rate=250_000 * scale,
                    floor_rate=60_000 * scale,
                    decay_tau=35 * DAY)],
        tsinghua_prefix,
    )

    # HURRICANE: transit ISP with a broad, moderate scanning footprint.
    hurricane_prefix = IPv6Prefix.parse("2001:470::/32")
    _agent(
        ScannerIdentity(
            asn=6939, as_name="HURRICANE",
            category=AsCategory.ISP_TELECOM, country="US",
            source_prefix=hurricane_prefix,
            allocation=AllocationMode.SMALL_POOL,
            pool_size=max(2, int(3_500 * spec.source_scale)),
            pool_subnets=136,
            sources_per_target=max(2, int(3_500 * spec.source_scale) // 26),
        ),
        [
            BgpWatcher(fabric.collectors,
                       CATEGORY_PROFILES[AsCategory.ISP_TELECOM],
                       min_collectors=10,
                       peak_rate=15_000 * scale, floor_rate=1_200 * scale,
                       decay_tau=12 * DAY),
            ZoneFileWatcher(zone_feed, fabric.resolver,
                            peak_rate=5_000 * scale, floor_rate=400 * scale),
        ],
        hurricane_prefix,
    )

    # DIGITALOCEAN-style CT bot: the 7-second reactor of §5.4.
    do_prefix = IPv6Prefix.parse("2604:a880::/32")
    _agent(
        ScannerIdentity(
            asn=14061, as_name="DIGITALOCEAN",
            category=AsCategory.HOSTING_CLOUD, country="US",
            source_prefix=do_prefix,
            allocation=AllocationMode.SMALL_POOL, pool_size=12,
        ),
        [CtLogWatcher(fabric.ct_log, fabric.resolver,
                      interaction_oracle=fabric.interaction_level,
                      peak_rate=4_000 * scale,
                      floor_rate=250 * scale,
                      decay_tau=40 * DAY,
                      reaction_delay=7.0)],
        do_prefix,
    )


# -- dedicated Internet Scanner ASes -----------------------------------------


def _build_scanner_ases(fabric, spec, rng, _agent, zone_feed) -> None:
    scale = spec.volume_scale
    scanner_profile = CATEGORY_PROFILES[AsCategory.INTERNET_SCANNER]

    # ALPHASTRIKE-style: per-packet sources across an entire /30 (!), the
    # reason Germany tops the Fig. 6 country ranking.
    alpha_prefix = IPv6Prefix.parse("2a0e:5c00::/30")
    _agent(
        ScannerIdentity(
            asn=208843, as_name="ALPHASTRIKE-LABS",
            category=AsCategory.INTERNET_SCANNER, country="DE",
            source_prefix=alpha_prefix,
            allocation=AllocationMode.PER_PACKET,
        ),
        [
            BgpWatcher(fabric.collectors, scanner_profile,
                       min_collectors=10,
                       peak_rate=60_000 * scale, floor_rate=22_000 * scale,
                       decay_tau=25 * DAY, low_weight=0.4),
            ZoneFileWatcher(zone_feed, fabric.resolver,
                            ping_ratio=1,
                            peak_rate=5_000 * scale, floor_rate=1_200 * scale),
            HitlistConsumer(fabric.hitlist,
                            interaction_oracle=fabric.interaction_level,
                            icmp_weight=1,
                            peak_rate=5_000 * scale, floor_rate=1_500 * scale,
                            alias_probe_rate=4_000 * scale),
        ],
        alpha_prefix,
    )
    fabric.asdb.override(208843, AsCategory.INTERNET_SCANNER)

    # internet-measurement.com-style AS (Table 8 rank #8).
    im_prefix = IPv6Prefix.parse("2a0c:9a40::/32")
    _agent(
        ScannerIdentity(
            asn=211298, as_name="INTERNET-MEASUREMENT",
            category=AsCategory.INTERNET_SCANNER, country="DE",
            source_prefix=im_prefix,
            allocation=AllocationMode.PER_SESSION,
        ),
        [
            BgpWatcher(fabric.collectors, scanner_profile,
                       min_collectors=10,
                       peak_rate=4_000 * scale, floor_rate=1_200 * scale,
                       decay_tau=30 * DAY),
            CtLogWatcher(fabric.ct_log, fabric.resolver,
                         interaction_oracle=fabric.interaction_level,
                         ping_ratio=1,
                         peak_rate=300 * scale, floor_rate=40 * scale,
                         reaction_delay=120.0),
        ],
        im_prefix,
    )
    fabric.asdb.override(211298, AsCategory.INTERNET_SCANNER)

    # Shadowserver-style benign scanner.
    shadow_prefix = IPv6Prefix.parse("2620:1f7::/32")
    _agent(
        ScannerIdentity(
            asn=63931, as_name="SHADOWSERVER",
            category=AsCategory.INTERNET_SCANNER, country="US",
            source_prefix=shadow_prefix,
            allocation=AllocationMode.SMALL_POOL, pool_size=64,
        ),
        [
            BgpWatcher(fabric.collectors, scanner_profile,
                       min_collectors=10,
                       peak_rate=1_000 * scale, floor_rate=300 * scale,
                       decay_tau=30 * DAY),
            HitlistConsumer(fabric.hitlist,
                            interaction_oracle=fabric.interaction_level,
                            icmp_weight=1,
                            peak_rate=500 * scale, floor_rate=120 * scale,
                            alias_probe_rate=400 * scale),
        ],
        shadow_prefix,
    )
    fabric.asdb.override(63931, AsCategory.INTERNET_SCANNER)

    if spec.include_rdns_walker:
        # A research scanner walking ip6.arpa (Zhao et al.'s finding).
        rdns_prefix = IPv6Prefix.parse("2001:67c:1234::/48")
        _agent(
            ScannerIdentity(
                asn=29108, as_name="LEITWERT-RESEARCH",
                category=AsCategory.INTERNET_SCANNER, country="DE",
                source_prefix=rdns_prefix,
                allocation=AllocationMode.SMALL_POOL, pool_size=11,
            ),
            [RdnsWalkerStrategy(
                fabric.reverse_zone,
                watched=[],  # scenario appends the telescope's /32
                peak_rate=800 * scale, floor_rate=100 * scale,
            )],
            rdns_prefix,
        )
        fabric.asdb.override(29108, AsCategory.INTERNET_SCANNER)


# -- the long tail -------------------------------------------------------------


def _build_tail(fabric, spec, rng, _agent, zone_feed) -> None:
    scale = spec.volume_scale
    category_p = np.array(TAIL_CATEGORY_WEIGHTS)
    category_p = category_p / category_p.sum()
    country_p = np.array(TAIL_COUNTRY_WEIGHTS)
    country_p = country_p / country_p.sum()

    for i in range(spec.n_tail):
        category = TAIL_CATEGORIES[int(rng.choice(
            len(TAIL_CATEGORIES), p=category_p
        ))]
        country = TAIL_COUNTRIES[int(rng.choice(
            len(TAIL_COUNTRIES), p=country_p
        ))]
        profile = CATEGORY_PROFILES[category]
        asn = 400_000 + i
        # Carve a /32 per tail AS out of the tail base prefix.
        prefix = spec.tail_base.subnet_at(i, 32)
        mode_draw = rng.random()
        if mode_draw < 0.6:
            allocation, pool = AllocationMode.FIXED, 1
        elif mode_draw < 0.9:
            allocation, pool = AllocationMode.SMALL_POOL, int(
                rng.integers(2, 9)
            )
        else:
            allocation, pool = AllocationMode.PER_SESSION, 1

        strategies = []
        if rng.random() < 0.55:
            if rng.random() < 0.8:
                # Mainstream: only reacts to well-propagated routes.
                strategies.append(BgpWatcher(
                    fabric.collectors, profile,
                    min_collectors=10,
                    peak_rate=float(rng.uniform(600, 5_000)) * scale,
                    floor_rate=float(rng.uniform(100, 500)) * scale,
                    decay_tau=float(rng.uniform(8, 25)) * DAY,
                    reaction_delay=float(rng.uniform(2, 48)) * 3_600.0,
                ))
            else:
                # Sporadic burst scanner: accepts hyper-specifics seen at a
                # handful of collectors, hits a random subset hard and
                # briefly — Fig 10's >80k-packet mode (one /61 honeyprefix
                # took 10M packets in a single day).
                strategies.append(BgpWatcher(
                    fabric.collectors, profile,
                    min_collectors=1,
                    attention_probability=0.02,
                    peak_rate=float(rng.uniform(300_000, 1_500_000)) * scale,
                    floor_rate=0.0,
                    decay_tau=float(rng.uniform(0.5, 2.0)) * DAY,
                    reaction_delay=float(rng.uniform(2, 120)) * 3_600.0,
                ))
        is_scanner = category is AsCategory.INTERNET_SCANNER
        if rng.random() < 0.50:
            strategies.append(ZoneFileWatcher(
                zone_feed, fabric.resolver,
                ping_ratio=1 if is_scanner else 4,
                peak_rate=float(rng.uniform(250, 2_000)) * scale,
                floor_rate=float(rng.uniform(50, 300)) * scale,
                reaction_delay=float(rng.uniform(4, 72)) * 3_600.0,
            ))
        if rng.random() < 0.30:
            strategies.append(CtLogWatcher(
                fabric.ct_log, fabric.resolver,
                interaction_oracle=fabric.interaction_level,
                ping_ratio=1 if is_scanner else 4,
                peak_rate=float(rng.uniform(100, 700)) * scale,
                floor_rate=float(rng.uniform(25, 130)) * scale,
                reaction_delay=float(rng.uniform(30, 7_200)),
            ))
        if rng.random() < 0.30 or not strategies:
            strategies.append(HitlistConsumer(
                fabric.hitlist,
                interaction_oracle=fabric.interaction_level,
                icmp_weight=1 if is_scanner else None,
                peak_rate=float(rng.uniform(150, 1_300)) * scale,
                floor_rate=float(rng.uniform(30, 260)) * scale,
                alias_probe_rate=float(rng.uniform(150, 1_000)) * scale,
            ))
        _agent(
            ScannerIdentity(
                asn=asn, as_name=f"TAIL-AS{asn}",
                category=category, country=country,
                source_prefix=prefix, allocation=allocation, pool_size=pool,
            ),
            strategies,
            prefix,
        )

    # A handful of curious low-visibility probers: they do notice
    # hyper-specific announcements (seen at only ~5 collectors) but send
    # just a trickle — Fig 10's low mode.
    for j in range(6):
        asn = 410_000 + j
        prefix = spec.tail_base.subnet_at(2_000 + j, 32)
        _agent(
            ScannerIdentity(
                asn=asn, as_name=f"CURIOUS-AS{asn}",
                category=AsCategory.RESEARCH_EDUCATION, country="DE",
                source_prefix=prefix, allocation=AllocationMode.FIXED,
            ),
            [BgpWatcher(
                fabric.collectors,
                CATEGORY_PROFILES[AsCategory.RESEARCH_EDUCATION],
                min_collectors=1,
                attention_probability=0.7,
                peak_rate=float(rng.uniform(2_000, 10_000)) * scale,
                floor_rate=float(rng.uniform(100, 400)) * scale,
                decay_tau=float(rng.uniform(2, 6)) * DAY,
                reaction_delay=float(rng.uniform(6, 96)) * 3_600.0,
            )],
            prefix,
        )
