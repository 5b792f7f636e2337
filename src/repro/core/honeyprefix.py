"""Honeyprefix configurations and the canonical Table 2 deployment.

A :class:`HoneyprefixConfig` is the *plan* for one honeyprefix — which
features it gets and how.  A :class:`Honeyprefix` is the *deployed instance*:
a concrete prefix, the concrete addresses each feature landed on, and the
feature timeline used later for scan-tactic attribution (Fig. 11).

``standard_configs()`` reproduces the paper's Table 2: 27 honeyprefixes —
8 feature prefixes, 16 hyper-specific BGP-only prefixes (/49../64), and
3 identical plain BGP-only /48s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import make_rng
from repro.core.features import Feature
from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6, TCP, UDP

#: Web-service ports (Table 2 footnote).
WEB_PORTS = (80, 443, 8080, 8443)
#: Remote-control ports (Table 2 footnote).
REMOTE_PORTS = (22, 23, 2323, 3389)
#: UDP service ports used by Twinklenet honeyprefixes.
UDP_PORTS = (53, 123)


class IcmpMode(enum.Enum):
    """How a honeyprefix answers ICMPv6 echo requests."""

    #: Nothing answers.
    NONE = "none"
    #: ::1 plus a couple of random addresses answer (Table 2 half-circle).
    ADDRESSES = "addresses"
    #: The whole prefix answers (aliased, Table 2 full circle).
    FULL = "full"


@dataclass(frozen=True, slots=True)
class HoneyprefixConfig:
    """The feature plan for one honeyprefix (a row of Table 2)."""

    name: str
    announce_length: int = 48
    #: The H_TCP mishap: BIRD announced it but it never reached the Internet.
    announce_fails: bool = False
    aliased: bool = False
    icmp_mode: IcmpMode = IcmpMode.NONE
    #: service label -> TCP ports opened on one random address each.
    tcp_services: tuple[tuple[str, tuple[int, ...]], ...] = ()
    #: UDP ports opened on one random address.
    udp_ports: tuple[int, ...] = ()
    #: TLDs of domains registered for this prefix, e.g. ("com", "com").
    domains: tuple[str, ...] = ()
    #: Deploy common-subdomain AAAA records (for the last domain only, as in
    #: H_Org/net where only the .net domain got subdomains)?
    subdomains: bool = False
    #: Open web ports on every AAAA-pointed address?
    web_on_domain_ips: bool = False
    #: Issue TLS certificates (root / subdomain) as later triggers?
    tls_root: bool = False
    tls_sub: bool = False
    #: T-Pot instance number (1 or 2) when this prefix fronts a T-Pot.
    tpot: int | None = None
    #: Manual hitlist insertion planned (paper §4.3.6)?
    hitlist_manual: bool = False
    #: Deploy PTR records for a few addresses (the H_RDNS variant)?
    rdns: bool = False

    def __post_init__(self) -> None:
        if not 48 <= self.announce_length <= 64:
            raise ValueError(
                f"honeyprefixes are announced at /48../64, got "
                f"/{self.announce_length}"
            )
        if self.aliased and self.icmp_mode is not IcmpMode.FULL:
            raise ValueError("aliased prefixes answer ICMP everywhere")
        if self.subdomains and not self.domains:
            raise ValueError("subdomain records require a registered domain")
        if self.tls_sub and not self.subdomains:
            raise ValueError("subdomain TLS requires subdomain records")
        if self.tpot not in (None, 1, 2):
            raise ValueError(f"tpot must be 1, 2, or None, got {self.tpot}")

    @property
    def planned_features(self) -> frozenset[Feature]:
        """The full feature set this config will eventually activate."""
        features = {Feature.BGP} if not self.announce_fails else set()
        if self.aliased:
            features.add(Feature.ALIASED)
        if self.icmp_mode is not IcmpMode.NONE:
            features.add(Feature.ICMP)
        if self.tcp_services or self.web_on_domain_ips or self.tpot:
            features.add(Feature.TCP)
        if self.udp_ports or self.tpot:
            features.add(Feature.UDP)
        if self.domains:
            features.add(Feature.DOMAIN)
        if self.subdomains:
            features.add(Feature.SUBDOMAIN)
        if self.tls_root:
            features.add(Feature.TLS_ROOT)
        if self.tls_sub:
            features.add(Feature.TLS_SUB)
        if self.hitlist_manual or self.aliased:
            features.add(Feature.HITLIST)
        return frozenset(features)


@dataclass
class Honeyprefix:
    """A deployed honeyprefix: concrete prefix + concrete feature addresses."""

    config: HoneyprefixConfig
    prefix: IPv6Prefix
    #: address -> set of (proto, port|None) it answers.
    responsive: dict[int, set[tuple[int, int | None]]] = field(default_factory=dict)
    #: domain name -> AAAA target address.
    domain_targets: dict[str, int] = field(default_factory=dict)
    #: subdomain name -> AAAA target address.
    subdomain_targets: dict[str, int] = field(default_factory=dict)
    #: addresses manually inserted into the hitlist.
    manual_hitlist_addresses: list[int] = field(default_factory=list)
    #: (time, feature, detail) activation log, for Fig 11 attribution.
    timeline: list[tuple[float, Feature, str]] = field(default_factory=list)
    deployed_at: float | None = None
    withdrawn_at: float | None = None

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def announced_prefix(self) -> IPv6Prefix:
        """The prefix actually announced (may be longer than the /48)."""
        if self.config.announce_length == self.prefix.length:
            return self.prefix
        return self.prefix.subnet_at(0, self.config.announce_length)

    def record(self, at: float, feature: Feature, detail: str = "") -> None:
        """Append a feature activation to the timeline."""
        self.timeline.append((at, feature, detail))

    def active_features(self, at: float) -> frozenset[Feature]:
        """Features activated on this prefix at or before ``at``."""
        return frozenset(f for t, f, _ in self.timeline if t <= at)

    def feature_time(self, feature: Feature) -> float | None:
        """First activation time of ``feature``, or None."""
        times = [t for t, f, _ in self.timeline if f is feature]
        return min(times) if times else None

    def add_responsive(self, address: int, proto: int, port: int | None) -> None:
        """Mark ``address`` as answering ``proto``/``port``."""
        if address not in self.prefix:
            raise ValueError(
                f"{address:#x} is outside honeyprefix {self.prefix}"
            )
        self.responsive.setdefault(address, set()).add((proto, port))

    def responds(self, address: int, proto: int, port: int | None) -> bool:
        """Does ``address`` answer ``proto``/``port``?

        Aliased prefixes answer ICMP for every address.  TCP/UDP answers
        require an exact (address, port) binding.
        """
        if self.config.aliased and proto == ICMPV6 and address in self.prefix:
            return True
        bindings = self.responsive.get(address)
        if not bindings:
            return False
        if proto == ICMPV6:
            return (ICMPV6, None) in bindings
        return (proto, port) in bindings

    def icmp_addresses(self) -> list[int]:
        """Addresses with an individual ICMP binding."""
        return [a for a, b in self.responsive.items() if (ICMPV6, None) in b]


def deploy_addresses(
    config: HoneyprefixConfig,
    prefix: IPv6Prefix,
    rng: np.random.Generator | int | None = 0,
) -> Honeyprefix:
    """Instantiate a honeyprefix: pick the concrete feature addresses.

    Address assignment follows §4.3: ICMP on ``::1`` plus two random
    addresses (one random address in H_Combined-style configs), one random
    address per TCP service label, one for the UDP services.  Domain/
    subdomain AAAA targets are assigned later, when the proactive telescope
    registers the names.
    """
    rng = make_rng(rng)
    hp = Honeyprefix(config=config, prefix=prefix)

    if config.icmp_mode is IcmpMode.FULL:
        # Aliasing: the whole prefix answers; ::1 also gets an explicit
        # binding so it shows up in icmp_addresses().
        hp.add_responsive(prefix.network | 1, ICMPV6, None)
    elif config.icmp_mode is IcmpMode.ADDRESSES:
        hp.add_responsive(prefix.network | 1, ICMPV6, None)
        n_random = 1 if config.tcp_services and config.udp_ports else 2
        for _ in range(n_random):
            hp.add_responsive(prefix.random_address(rng).value, ICMPV6, None)

    for _, ports in config.tcp_services:
        addr = prefix.random_address(rng).value
        for port in ports:
            hp.add_responsive(addr, TCP, port)

    if config.udp_ports:
        addr = prefix.random_address(rng).value
        for port in config.udp_ports:
            hp.add_responsive(addr, UDP, port)

    return hp


def standard_configs(include_rdns: bool = False) -> list[HoneyprefixConfig]:
    """The paper's Table 2: the 27 honeyprefix configurations.

    With ``include_rdns=True`` the H_RDNS variant from §4.3.4 (three
    ICMP-responsive addresses plus PTR records) is appended as a 28th.
    """
    configs = [
        HoneyprefixConfig(
            name="H_Alias", aliased=True, icmp_mode=IcmpMode.FULL,
        ),
        HoneyprefixConfig(
            name="H_TCP", announce_fails=True, icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", WEB_PORTS), ("remote", REMOTE_PORTS)),
        ),
        HoneyprefixConfig(
            name="H_UDP", icmp_mode=IcmpMode.ADDRESSES, udp_ports=UDP_PORTS,
            hitlist_manual=True,
        ),
        HoneyprefixConfig(
            name="H_Com", tcp_services=(("web", WEB_PORTS),),
            domains=("com", "com"), web_on_domain_ips=True, tls_root=True,
        ),
        HoneyprefixConfig(
            name="H_Org/net", tcp_services=(("web", WEB_PORTS),),
            domains=("org", "net"), subdomains=True, web_on_domain_ips=True,
            tls_root=True, tls_sub=True,
        ),
        HoneyprefixConfig(
            name="H_Combined", icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", WEB_PORTS), ("remote", REMOTE_PORTS)),
            udp_ports=UDP_PORTS, domains=("net",), subdomains=True,
            web_on_domain_ips=True, tls_root=True, tls_sub=True,
        ),
        HoneyprefixConfig(
            name="H_TPot1", aliased=True, icmp_mode=IcmpMode.FULL,
            domains=("com", "com"), subdomains=True, tpot=1,
            hitlist_manual=True, tls_root=True, tls_sub=True,
        ),
        HoneyprefixConfig(
            name="H_TPot2", aliased=True, icmp_mode=IcmpMode.FULL,
            domains=("com", "com"), subdomains=True, tpot=2,
            hitlist_manual=True, tls_root=True, tls_sub=True,
        ),
    ]
    configs.extend(
        HoneyprefixConfig(
            name=f"H_Specific/{length}", announce_length=length,
        )
        for length in range(49, 65)
    )
    configs.extend(
        HoneyprefixConfig(name=f"H_BGP{i}") for i in range(1, 4)
    )
    if include_rdns:
        configs.append(
            HoneyprefixConfig(
                name="H_RDNS", icmp_mode=IcmpMode.ADDRESSES, rdns=True,
            )
        )
    return configs
