"""The Internet fabric: every public substrate wired together.

One object owning the observable Internet the scanners watch and the
telescope publishes into: route collectors + RPKI, the DNS hierarchy with
TLD registries and a shared resolver, CT logs behind an ACME CA, the public
hitlist service, the reverse-DNS tree, and the metadata datasets
(prefix2as / ASdb / geolocation) that the analysis pipeline joins against.
"""

from __future__ import annotations

import numpy as np

from repro._util import DAY, make_rng, spawn_rngs
from repro.datasets.asdb import AsDatabase
from repro.datasets.geodb import GeoDatabase
from repro.datasets.prefix2as import Prefix2As
from repro.dns.registry import Registrar, TldRegistry
from repro.dns.resolver import Resolver
from repro.dns.reverse import ReverseZone
from repro.hitlist.prober import CallableOracle, Prober
from repro.hitlist.service import HitlistService
from repro.routing.collectors import CollectorSystem
from repro.routing.rpki import RoaRegistry
from repro.tlsca.acme import AcmeClient
from repro.tlsca.ca import CertificateAuthority
from repro.tlsca.ctlog import CtLog

#: TLDs the registrar serves (the paper bought .com/.net/.org names).
DEFAULT_TLDS = ("com", "net", "org")


class InternetFabric:
    """All public substrates, constructed and wired in one place."""

    def __init__(
        self,
        rng: np.random.Generator | int | None = 0,
        tlds: tuple[str, ...] = DEFAULT_TLDS,
        hitlist_cycle: float = 14 * DAY,
    ):
        root = make_rng(rng)
        (rng_collectors, rng_prober, self.rng_population,
         self.rng_agents) = spawn_rngs(root, 4)

        # Routing.
        self.roa_registry = RoaRegistry()
        self.collectors = CollectorSystem(
            rng=rng_collectors, roa_registry=self.roa_registry
        )

        # DNS.
        self.registrar = Registrar()
        for tld in tlds:
            self.registrar.add_tld(TldRegistry(tld))
        self.reverse_zone = ReverseZone()
        self.resolver = Resolver([self.registrar], self.reverse_zone)

        # TLS / CT.
        self.ct_log = CtLog()
        self.ca = CertificateAuthority(ct_logs=[self.ct_log])
        self.acme = AcmeClient(self.ca, self.registrar, self.resolver)

        # Hitlist: its oracle is bound later, once telescopes exist.
        self._oracles = []
        self._interaction_fns = []
        self.prober = Prober(
            CallableOracle(self._dispatch_oracle), rng=rng_prober
        )
        self.hitlist = HitlistService(self.prober, cycle_period=hitlist_cycle)
        self.hitlist.add_candidate_source(self._zone_candidates)
        self.hitlist.add_candidate_source(self._ct_candidates)
        self.hitlist.add_prefix_source(self._announced_prefixes)

        # Metadata datasets.
        self.prefix2as = Prefix2As()
        self.asdb = AsDatabase(rng=self.rng_population)
        self.geodb = GeoDatabase()

    # -- oracle plumbing -----------------------------------------------------

    def register_oracle(self, oracle) -> None:
        """Register a responsiveness oracle (a telescope's ``responds``)."""
        self._oracles.append(oracle)

    def register_interaction(self, fn) -> None:
        """Register an interaction-level oracle (a telescope's
        ``interaction_level``)."""
        self._interaction_fns.append(fn)

    def interaction_level(self, address: int, at: float) -> int:
        """Max interaction level any telescope reports for ``address``."""
        level = 0
        for fn in self._interaction_fns:
            level = max(level, fn(address, at))
            if level >= 2:
                break
        return level

    def _dispatch_oracle(self, address: int, proto: int, port: int | None,
                         at: float) -> bool:
        return any(oracle(address, proto, port, at) for oracle in self._oracles)

    # -- hitlist candidate sources ---------------------------------------------

    def _zone_candidates(self, since: float, until: float):
        """AAAA targets of newly published domains (all TLDs).

        TLD zone files expose only the registered names themselves, so only
        the root AAAA is a candidate here — subdomains surface exclusively
        through CT (the paper's "s always came with S" finding depends on
        this asymmetry).
        """
        for domain in self.registrar.new_domains(since, until):
            yield from self.resolver.resolve_aaaa(domain, at=until)

    def _ct_candidates(self, since: float, until: float):
        """AAAA targets of names newly appearing in CT logs."""
        for name, logged_at in self.ct_log.names_between(since, until).items():
            for addr in self.resolver.resolve_aaaa(name, at=logged_at):
                yield addr

    def _announced_prefixes(self, since: float, until: float):
        """Newly announced prefixes (alias-detection candidates)."""
        return list(self.collectors.new_prefixes(since, until))
