"""Recursive resolver over the simulated DNS hierarchy.

Resolution semantics are time-aware: a record is resolvable only at or after
its ``created_at`` (and, for names under a registered domain, only after the
domain exists).  Scanner agents resolve through this class, so discovery
timing is consistent with the registration timeline.
"""

from __future__ import annotations

from repro._util import WindowView
from repro.dns.records import ResourceRecord, RRType, validate_name
from repro.dns.registry import Registrar
from repro.dns.reverse import ReverseZone


class Resolver:
    """Resolves names against one or more registrars plus the reverse tree."""

    def __init__(self, registrars: list[Registrar] | None = None,
                 reverse_zone: ReverseZone | None = None):
        self._registrars = list(registrars or [])
        self._reverse = reverse_zone
        self.query_count = 0
        #: Holds the per-window AAAA answers that every agent resolving
        #: through this resolver shares
        #: (:class:`repro.scanners.strategies.AddressWindow`).
        self.view = WindowView()

    @property
    def mutations(self) -> int:
        """Grows whenever a forward answer could change."""
        return len(self._registrars) + sum(
            r.mutations for r in self._registrars)

    def add_registrar(self, registrar: Registrar) -> None:
        self._registrars.append(registrar)

    def resolve(self, name: str, rtype: RRType, at: float) -> list[ResourceRecord]:
        """Resolve ``name``/``rtype`` as of simulation time ``at``."""
        self.query_count += 1
        name = validate_name(name)
        for registrar in self._registrars:
            zone = registrar.zone_for(name)
            if zone is None or zone.created_at > at:
                continue
            return [r for r in zone.lookup(name, rtype) if r.created_at <= at]
        return []

    def resolve_aaaa(self, name: str, at: float) -> list[int]:
        """Convenience: the AAAA addresses for ``name`` at time ``at``."""
        return [r.value for r in self.resolve(name, RRType.AAAA, at)]

    def resolve_ptr(self, address: int, at: float) -> list[str]:
        """Reverse-resolve an address through the ip6.arpa tree."""
        self.query_count += 1
        if self._reverse is None:
            return []
        return self._reverse.lookup_ptr(address, at)
