"""TLD registries and the registrar.

``TldRegistry`` owns a TLD (``com``, ``net``, ``org``, ...) and publishes a
daily zone-file snapshot (ICANN CZDS-style).  Scanner agents diff successive
snapshots to discover newly registered domains — the channel the paper's
domain-name feature exercised.

``Registrar`` is the GoDaddy stand-in: it registers domains into the right
TLD registry and hosts their DNS zones, exposing the record-management API
the telescope (and its certbot plugin, for ACME DNS-01 TXT records) uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro._util import DAY, WindowView
from repro.dns.records import ResourceRecord, RRType, validate_name
from repro.dns.zone import Zone


@dataclass(frozen=True, slots=True)
class DomainRegistration:
    """Registry-side record of one registered domain."""

    domain: str
    registered_at: float
    registrant: str


class TldRegistry:
    """A top-level-domain registry with daily zone-file publication."""

    def __init__(self, tld: str, publication_period: float = DAY):
        self.tld = validate_name(tld)
        if "." in self.tld:
            raise ValueError(f"TLD must be a single label: {tld!r}")
        if publication_period <= 0:
            raise ValueError("publication period must be positive")
        self.publication_period = publication_period
        self._registrations: dict[str, DomainRegistration] = {}

    def __len__(self) -> int:
        """Registrations; they are only ever added."""
        return len(self._registrations)

    def register(self, domain: str, at: float, registrant: str) -> DomainRegistration:
        """Register an eTLD+1 domain under this TLD."""
        domain = validate_name(domain)
        labels = domain.split(".")
        if len(labels) != 2 or labels[-1] != self.tld:
            raise ValueError(f"{domain!r} is not an eTLD+1 under .{self.tld}")
        if domain in self._registrations:
            raise ValueError(f"{domain!r} is already registered")
        registration = DomainRegistration(domain, at, registrant)
        self._registrations[domain] = registration
        return registration

    def registrations(self) -> tuple[DomainRegistration, ...]:
        return tuple(self._registrations.values())

    def publication_time(self, registered_at: float) -> float:
        """When a registration first appears in a published zone file.

        Zone files are cut at integer multiples of the publication period;
        a domain registered at time t appears in the next cut after t.
        """
        return (math.floor(registered_at / self.publication_period) + 1) * (
            self.publication_period
        )

    def zone_file_at(self, at: float) -> set[str]:
        """Domains visible in the most recent zone file published by ``at``."""
        return {
            reg.domain
            for reg in self._registrations.values()
            if self.publication_time(reg.registered_at) <= at
        }

    def new_domains(self, since: float, until: float) -> dict[str, float]:
        """Domains whose first zone-file appearance fell in ``(since, until]``.

        Returns domain -> publication time.  This is what a zone-file-diffing
        scanner consumes.
        """
        out: dict[str, float] = {}
        for reg in self._registrations.values():
            published = self.publication_time(reg.registered_at)
            if since < published <= until:
                out[reg.domain] = published
        return out


class Registrar:
    """Registers domains and hosts their DNS zones (registrar-provided DNS)."""

    def __init__(self, name: str = "registrar"):
        self.name = name
        self._tlds: dict[str, TldRegistry] = {}
        self._zones: dict[str, Zone] = {}
        self._window = WindowView()

    def add_tld(self, registry: TldRegistry) -> None:
        self._tlds[registry.tld] = registry

    def tld(self, tld: str) -> TldRegistry:
        try:
            return self._tlds[tld]
        except KeyError:
            raise KeyError(f"registrar does not serve TLD {tld!r}") from None

    @property
    def tlds(self) -> tuple[str, ...]:
        return tuple(self._tlds)

    @property
    def mutations(self) -> int:
        """A counter that grows with every registration and record change.

        TLDs, registrations and zones are only ever added, and a zone's
        serial grows with each of its changes, so their sum never repeats.
        """
        return (len(self._tlds) + sum(len(t) for t in self._tlds.values())
                + len(self._zones)
                + sum(zone.serial for zone in self._zones.values()))

    def new_domains(self, since: float, until: float) -> Mapping[str, float]:
        """The merged zone-file diff of every TLD: domain -> publication
        time for first appearances in ``(since, until]``, in TLD order.

        The read-only map is built once per window and shared by every
        zone-file watcher until the window or the registrar changes.
        """

        def merge() -> Mapping[str, float]:
            out: dict[str, float] = {}
            for registry in self._tlds.values():
                out.update(registry.new_domains(since, until))
            return MappingProxyType(out)

        return self._window.get((since, until, self.mutations), merge)

    def register_domain(self, domain: str, at: float, registrant: str = "") -> Zone:
        """Register ``domain`` and create its hosted zone."""
        domain = validate_name(domain)
        tld = domain.rsplit(".", 1)[-1]
        self.tld(tld).register(domain, at, registrant)
        zone = Zone(domain, created_at=at)
        self._zones[domain] = zone
        return zone

    def zone_for(self, name: str) -> Zone | None:
        """The hosted zone containing ``name``, or None."""
        name = validate_name(name)
        labels = name.split(".")
        for i in range(len(labels) - 1):
            candidate = ".".join(labels[i:])
            if candidate in self._zones:
                return self._zones[candidate]
        return None

    def set_aaaa(self, name: str, address: int, at: float, ttl: int = 3600) -> None:
        """Create an AAAA record for ``name`` in its hosted zone."""
        zone = self.zone_for(name)
        if zone is None:
            raise KeyError(f"no hosted zone contains {name!r}")
        zone.add(ResourceRecord(name, RRType.AAAA, address, ttl=ttl, created_at=at))

    def set_txt(self, name: str, text: str, at: float, ttl: int = 120) -> None:
        """Create a TXT record (used by the ACME DNS-01 challenge flow)."""
        zone = self.zone_for(name)
        if zone is None:
            raise KeyError(f"no hosted zone contains {name!r}")
        zone.add(ResourceRecord(name, RRType.TXT, text, ttl=ttl, created_at=at))

    def remove_txt(self, name: str) -> int:
        """Delete TXT records at ``name`` (challenge cleanup)."""
        zone = self.zone_for(name)
        if zone is None:
            raise KeyError(f"no hosted zone contains {name!r}")
        return zone.remove(name, RRType.TXT)

    def zones(self) -> tuple[Zone, ...]:
        return tuple(self._zones.values())
