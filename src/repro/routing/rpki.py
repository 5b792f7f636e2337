"""RPKI: Route Origin Authorizations and route-origin validation.

The paper's ISP registered honeyprefixes on APNIC's RPKI portal before
upstreams would accept the routes, and NT-C's upstream rejected honeyprefix
announcements until ROAs existed.  ``RoaRegistry`` models the portal and the
validator the upstreams run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.net.addr import IPv6Prefix


class RpkiValidity(enum.Enum):
    """RFC 6811 route-origin validation states."""

    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not_found"


@dataclass(frozen=True, slots=True)
class Roa:
    """A Route Origin Authorization.

    Authorizes ``asn`` to originate ``prefix`` and any more-specific up to
    ``max_length``.
    """

    prefix: IPv6Prefix
    asn: int
    max_length: int
    registered_at: float = 0.0

    def __post_init__(self) -> None:
        if self.max_length < self.prefix.length or self.max_length > 128:
            raise ValueError(
                f"max_length {self.max_length} invalid for {self.prefix}"
            )
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive: {self.asn}")

    def covers(self, prefix: IPv6Prefix) -> bool:
        """True when ``prefix`` falls under this ROA's prefix/max-length."""
        return (
            self.prefix.contains_prefix(prefix)
            and prefix.length <= self.max_length
        )


class RoaRegistry:
    """The RPKI portal: register ROAs, validate announcements against them."""

    def __init__(self) -> None:
        self._roas: list[Roa] = []

    def register(self, roa: Roa) -> None:
        self._roas.append(roa)

    def validate(
        self, prefix: IPv6Prefix, origin_asn: int, at: float | None = None
    ) -> RpkiValidity:
        """Validate an announcement per RFC 6811 semantics.

        ``at`` restricts validation to ROAs registered no later than that
        simulation time (a ROA cannot protect a route before it exists).
        """
        covered = False
        for roa in self._roas:
            if at is not None and roa.registered_at > at:
                continue
            if roa.prefix.contains_prefix(prefix):
                covered = True
                if roa.covers(prefix) and roa.asn == origin_asn:
                    return RpkiValidity.VALID
        return RpkiValidity.INVALID if covered else RpkiValidity.NOT_FOUND
