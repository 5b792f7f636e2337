"""The proactive telescope orchestrator.

Owns the whole deployment from Figure 4: the BGP speaker (BIRD), the
registrar/ACME clients driving the attraction features, the T-Pot
gateways, and the packet capturer.  ``deploy()`` turns a
:class:`~repro.core.honeyprefix.HoneyprefixConfig` into a live honeyprefix
and records every feature activation on the honeyprefix's timeline — the
ground truth that the tactic-attribution analysis (Fig. 11) joins against.

The telescope also implements the hitlist prober's responsiveness oracle,
so the public hitlist discovers honeyprefix addresses exactly the way the
real one did.  The oracles (:meth:`ProactiveTelescope.responds`,
:meth:`ProactiveTelescope.interaction_level`) are how scanners learn what
answers; the data plane only captures.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._util import make_rng
from repro.core.capture import PacketCapturer
from repro.core.features import Feature
from repro.core.honeyprefix import (
    Honeyprefix,
    HoneyprefixConfig,
    WEB_PORTS,
    deploy_addresses,
)
from repro.core.tpot import (
    DnatGateway,
    TPOT1_CONTAINERS,
    TPOT2_CONTAINERS,
    TPotInstance,
)
from repro.core.wordlists import common_subdomains
from repro.dns.registry import Registrar
from repro.dns.reverse import ReverseZone
from repro.hitlist.categories import HitlistCategory
from repro.hitlist.service import HitlistService
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.net.packet import TCP, UDP
from repro.obs import get_journal, stage
from repro.routing.speaker import BgpSpeaker
from repro.tlsca.acme import AcmeClient
from repro.tlsca.ca import RateLimitExceeded

#: Let's Encrypt weekly limit kept 50 subdomain certificates per paper §4.3.2.
MAX_SUBDOMAIN_CERTS = 50


class ProactiveTelescope:
    """The full proactive telescope deployed inside an ISP's /32."""

    def __init__(
        self,
        name: str,
        covering_prefix: IPv6Prefix,
        speaker: BgpSpeaker,
        registrar: Registrar | None = None,
        acme: AcmeClient | None = None,
        hitlist: HitlistService | None = None,
        reverse_zone: ReverseZone | None = None,
        rng: np.random.Generator | int | None = 0,
        subdomain_count: int = 374,
    ):
        self.name = name
        self.covering_prefix = covering_prefix
        self.speaker = speaker
        self.registrar = registrar
        self.acme = acme
        self.hitlist = hitlist
        self.reverse_zone = reverse_zone
        self._rng = make_rng(rng)
        self.subdomain_names = common_subdomains(subdomain_count)
        self.capturer = PacketCapturer(name=f"{name}-capture")
        self.honeyprefixes: list[Honeyprefix] = []
        #: fast lookup: /48 network int -> honeyprefix (every honeyprefix
        #: occupies a distinct /48 container).
        self._hp_by_48: dict[int, Honeyprefix] = {}
        self.gateways: dict[str, DnatGateway] = {}
        self._domain_counter = itertools.count(1)

    # -- deployment ------------------------------------------------------

    def deploy(
        self,
        config: HoneyprefixConfig,
        prefix: IPv6Prefix,
        at: float,
    ) -> Honeyprefix:
        """Deploy one honeyprefix at time ``at``.

        Performs the initial feature set: ROA + BGP announcement, domain and
        subdomain registration, honeypot wiring, reverse-DNS records.  TLS
        issuance and manual hitlist insertion are separate triggers — call
        :meth:`issue_tls` / :meth:`insert_hitlist` on the paper's schedule.
        """
        if not self.covering_prefix.contains_prefix(prefix):
            raise ValueError(
                f"{prefix} is outside the telescope's {self.covering_prefix}"
            )
        if prefix.length != 48:
            # honeyprefix_for resolves whole /48s.
            raise ValueError(f"a honeyprefix is one /48, got {prefix}")
        hp = deploy_addresses(config, prefix, self._rng)
        hp.deployed_at = at
        self.honeyprefixes.append(hp)
        key = (prefix.network >> 80) << 80
        if key in self._hp_by_48:
            raise ValueError(f"a honeyprefix already occupies {prefix}")
        self._hp_by_48[key] = hp

        self._deploy_bgp(hp, at)
        if config.domains:
            self._deploy_domains(hp, at)
        if config.tpot:
            self._deploy_tpot(hp, at)
        if config.rdns:
            self._deploy_rdns(hp, at)

        # Reaction features are active from deployment.
        if config.aliased:
            hp.record(at, Feature.ALIASED)
        if hp.icmp_addresses() or config.aliased:
            hp.record(at, Feature.ICMP)
        if config.tcp_services or config.web_on_domain_ips or config.tpot:
            hp.record(at, Feature.TCP)
        if config.udp_ports or config.tpot:
            hp.record(at, Feature.UDP)
        get_journal().emit("deploy", name=hp.name, prefix=str(prefix), at=at)
        return hp

    def _deploy_bgp(self, hp: Honeyprefix, at: float) -> None:
        announced = hp.announced_prefix
        if self.speaker.roa_registry is not None:
            self.speaker.register_roa(announced, at=at)
        if hp.config.announce_fails:
            # H_TCP: configured in BIRD but never propagated.  Keep it in
            # the local RIB only; no BGP feature ever activates.
            from repro.routing.rib import Route

            self.speaker.local_rib.insert(Route(
                prefix=announced, origin_asn=self.speaker.asn,
                as_path=(self.speaker.asn,), installed_at=at,
            ))
            return
        self.speaker.announce(announced, at=at)
        visible = [
            event.visible_at
            for collector in self.speaker.collectors.collectors
            for event in collector.events()
            if not event.is_withdrawal and event.update.prefix == announced
        ]
        # Experiment start = first visibility at a public collector (§3.2).
        hp.record(min(visible) if visible else at, Feature.BGP)

    def _deploy_domains(self, hp: Honeyprefix, at: float) -> None:
        if self.registrar is None:
            raise RuntimeError("domain features require a registrar")
        for tld in hp.config.domains:
            n = next(self._domain_counter)
            domain = f"hp{n:02d}-{hp.prefix.network >> 80 & 0xFFFF:04x}.{tld}"
            self.registrar.register_domain(domain, at=at, registrant=self.name)
            target = hp.prefix.random_address(self._rng).value
            self.registrar.set_aaaa(domain, target, at=at)
            hp.domain_targets[domain] = target
            if hp.config.web_on_domain_ips:
                for port in WEB_PORTS:
                    hp.add_responsive(target, TCP, port)
        publication = self.registrar.tld(
            hp.config.domains[0]
        ).publication_time(at)
        hp.record(publication, Feature.DOMAIN)

        if hp.config.subdomains:
            # Subdomains go on the last registered domain (H_Org/net gave
            # them only to its .net domain).
            domain = list(hp.domain_targets)[-1]
            for sub in self.subdomain_names:
                fqdn = f"{sub}.{domain}"
                target = hp.prefix.random_address(self._rng).value
                self.registrar.set_aaaa(fqdn, target, at=at)
                hp.subdomain_targets[fqdn] = target
                if hp.config.web_on_domain_ips:
                    for port in WEB_PORTS:
                        hp.add_responsive(target, TCP, port)
            hp.record(publication, Feature.SUBDOMAIN)

    def _deploy_tpot(self, hp: Honeyprefix, at: float) -> None:
        containers = TPOT1_CONTAINERS if hp.config.tpot == 1 else TPOT2_CONTAINERS
        tpot = TPotInstance(f"tpot{hp.config.tpot}", containers)
        gateway = DnatGateway(hp.prefix, tpot)
        self.gateways[hp.name] = gateway
        # Mirror the T-Pot port surface onto the honeyprefix's responsive
        # map so hitlist probing and tactic attribution see it.
        for port in tpot.open_ports(TCP):
            hp.add_responsive(gateway.target_address, TCP, port)
        for port in tpot.open_ports(UDP):
            hp.add_responsive(gateway.target_address, UDP, port)

    def _deploy_rdns(self, hp: Honeyprefix, at: float) -> None:
        if self.reverse_zone is None:
            raise RuntimeError("rDNS feature requires a reverse zone")
        for i, addr in enumerate(hp.icmp_addresses()):
            self.reverse_zone.add_ptr(addr, f"host{i}.{self.name}.example", at=at)

    # -- later triggers ----------------------------------------------------

    def issue_tls(self, hp: Honeyprefix, at: float) -> list:
        """Issue TLS certificates for the honeyprefix's names (trigger).

        Root certificates for every registered domain, then subdomain
        certificates up to the CA's weekly rate limit (the paper stopped at
        50).  Returns the issued certificates.
        """
        if self.acme is None:
            raise RuntimeError("TLS features require an ACME client")
        if not hp.domain_targets:
            raise ValueError(f"{hp.name} has no domains to certify")
        certs = []
        for domain in hp.domain_targets:
            certs.append(self.acme.obtain([domain], at=at))
        hp.record(at, Feature.TLS_ROOT)
        if hp.config.tls_sub and hp.subdomain_targets:
            issued = 0
            for fqdn in hp.subdomain_targets:
                if issued >= MAX_SUBDOMAIN_CERTS:
                    break
                try:
                    certs.append(self.acme.obtain([fqdn], at=at))
                    issued += 1
                except RateLimitExceeded:
                    break
            if issued:
                hp.record(at, Feature.TLS_SUB)
        return certs

    def insert_hitlist(self, hp: Honeyprefix, at: float) -> list:
        """Manually insert honeyprefix addresses into the hitlist (trigger).

        Per §4.3.6: two addresses per applicable category — the first
        address of the prefix and one random address.
        """
        if self.hitlist is None:
            raise RuntimeError("hitlist insertion requires a hitlist service")
        entries = []
        first = hp.prefix.network | 1
        rand = hp.prefix.random_address(self._rng).value
        hp.manual_hitlist_addresses.extend([first, rand])
        categories = [HitlistCategory.ICMP]
        if hp.config.tpot:
            categories += [HitlistCategory.TCP80, HitlistCategory.TCP443,
                           HitlistCategory.UDP53]
            entries.append(self.hitlist.insert_manual(
                HitlistCategory.ALIASED, at=at, prefix=hp.prefix,
            ))
        for category in categories:
            for addr in (first, rand):
                entries.append(self.hitlist.insert_manual(
                    category, at=at, address=addr,
                ))
        hp.record(at, Feature.HITLIST)
        return entries

    def withdraw(self, hp: Honeyprefix, at: float) -> None:
        """Retract the honeyprefix's BGP announcement (§5.3.1's experiment)."""
        self.speaker.withdraw(hp.announced_prefix, at=at)
        hp.withdrawn_at = at
        get_journal().emit("retract", name=hp.name,
                           prefix=str(hp.announced_prefix), at=at)

    # -- data plane --------------------------------------------------------

    def honeyprefix_for(self, address: int) -> Honeyprefix | None:
        """The honeyprefix containing ``address``, or None."""
        return self._hp_by_48.get((address >> 80) << 80)

    def handle_batch(self, batch: PacketBatch) -> None:
        """Receive a batch of unsolicited packets: capture it.

        Nothing is answered here.  Scanners learn what responds from the
        oracles below, so no record, journal line or report depends on a
        reply.
        """
        if len(batch) == 0:
            return
        with stage("telescope.capture", telescope=self.name,
                   packets=len(batch)):
            self.capturer.capture_batch(batch)

    # -- hitlist oracle ------------------------------------------------------

    def interaction_level(self, address: int, at: float) -> int:
        """How rich the service behind ``address`` is at time ``at``.

        0 = dark, 1 = low interaction (Twinklenet), 2 = high interaction
        (T-Pot).  Scanner strategies use this to modulate engagement — the
        paper's key operational finding is that high-interaction honeypots
        amplify scanner attention by an order of magnitude.
        """
        hp = self.honeyprefix_for(address)
        if hp is None or hp.deployed_at is None or hp.deployed_at > at:
            return 0
        if hp.withdrawn_at is not None and at >= hp.withdrawn_at:
            return 0
        if hp.config.tpot:
            return 2
        if hp.config.aliased or address in hp.responsive:
            return 1
        return 0

    def responds(self, address: int, proto: int, port: int | None,
                 at: float) -> bool:
        """Responsiveness oracle for the hitlist prober."""
        hp = self.honeyprefix_for(address)
        if hp is None or hp.deployed_at is None or hp.deployed_at > at:
            return False
        if hp.withdrawn_at is not None and at >= hp.withdrawn_at:
            return False
        if hp.config.tpot:
            gateway = self.gateways[hp.name]
            return gateway.responds(address, proto, port)
        return hp.responds(address, proto, port)
