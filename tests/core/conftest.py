"""Fixtures shared by the honeypot tests."""

import pytest

from repro.core.proactive import ProactiveTelescope
from repro.net.addr import IPv6Prefix
from repro.routing.collectors import CollectorSystem
from repro.routing.rpki import RoaRegistry
from repro.routing.speaker import BgpSpeaker


@pytest.fixture
def bgp_only_telescope():
    """A telescope over 2001:db8::/32 with a BGP speaker and nothing
    else: enough to deploy honeyprefixes without domains or rDNS and
    to route packets to their honeypots."""
    roa = RoaRegistry()
    speaker = BgpSpeaker(64500, CollectorSystem(rng=0, roa_registry=roa), roa)
    return ProactiveTelescope(
        "NT-T", IPv6Prefix.parse("2001:db8::/32"), speaker, rng=5)
