"""Tests for the proactive telescope orchestrator."""

import dataclasses

import pytest

from repro._util import DAY
from repro.core.features import Feature
from repro.core.honeyprefix import standard_configs
from repro.core.proactive import MAX_SUBDOMAIN_CERTS, ProactiveTelescope
from repro.core.tpot import DnatGateway
from repro.core.twinklenet import Twinklenet
from repro.dns.registry import Registrar, TldRegistry
from repro.dns.resolver import Resolver
from repro.hitlist.categories import HitlistCategory
from repro.hitlist.prober import CallableOracle, Prober
from repro.hitlist.service import HitlistService
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.net.packet import ICMPV6, TCP, TcpFlags, icmp_echo_request, tcp_segment
from repro.routing.collectors import CollectorSystem
from repro.routing.rpki import RoaRegistry
from repro.routing.speaker import BgpSpeaker
from repro.tlsca.acme import AcmeClient
from repro.tlsca.ca import CertificateAuthority
from repro.tlsca.ctlog import CtLog

COVERING = IPv6Prefix.parse("2001:db8::/32")
SRC = IPv6Prefix.parse("2620:99::/32").network | 7


@pytest.fixture
def telescope():
    roa = RoaRegistry()
    collectors = CollectorSystem(rng=0, roa_registry=roa)
    speaker = BgpSpeaker(64500, collectors, roa)
    registrar = Registrar()
    for tld in ("com", "net", "org"):
        registrar.add_tld(TldRegistry(tld))
    resolver = Resolver([registrar])
    log = CtLog()
    ca = CertificateAuthority(ct_logs=[log])
    acme = AcmeClient(ca, registrar, resolver)
    tel = ProactiveTelescope("NT-A", COVERING, speaker, registrar, acme,
                             rng=5)
    prober = Prober(CallableOracle(tel.responds), rng=6)
    tel.hitlist = HitlistService(prober)
    return tel


@pytest.fixture
def configs():
    return {c.name: c for c in standard_configs()}


def _slot(i: int) -> IPv6Prefix:
    return COVERING.subnet_at(0x8000 + i, 48)


class TestDeploy:
    def test_bgp_feature_time_is_collector_visibility(self, telescope, configs):
        hp = telescope.deploy(configs["H_BGP1"], _slot(1), at=1000.0)
        t = hp.feature_time(Feature.BGP)
        assert t is not None and t > 1000.0

    def test_announce_fails_never_activates_bgp(self, telescope, configs):
        hp = telescope.deploy(configs["H_TCP"], _slot(2), at=1000.0)
        assert hp.feature_time(Feature.BGP) is None
        # But the route sits in the local RIB (BIRD had it configured).
        assert hp.announced_prefix in [
            r.prefix for r in telescope.speaker.local_rib.routes()
        ]

    def test_domains_registered_with_aaaa(self, telescope, configs):
        hp = telescope.deploy(configs["H_Com"], _slot(3), at=1000.0)
        assert len(hp.domain_targets) == 2
        for domain, target in hp.domain_targets.items():
            assert domain.endswith(".com")
            assert target in hp.prefix
            # web ports opened on AAAA targets
            assert hp.responds(target, TCP, 80)

    def test_subdomains_deployed(self, telescope, configs):
        hp = telescope.deploy(configs["H_Org/net"], _slot(4), at=1000.0)
        assert len(hp.subdomain_targets) == 374
        # subdomains only on the .net domain (the last registered)
        assert all(name.endswith(".net") for name in hp.subdomain_targets)

    def test_duplicate_slot_rejected(self, telescope, configs):
        telescope.deploy(configs["H_BGP1"], _slot(5), at=1000.0)
        with pytest.raises(ValueError):
            telescope.deploy(configs["H_BGP2"], _slot(5), at=2000.0)

    def test_outside_covering_rejected(self, telescope, configs):
        with pytest.raises(ValueError):
            telescope.deploy(configs["H_BGP1"],
                             IPv6Prefix.parse("2002::/48"), at=0.0)

    def test_non_48_prefix_rejected(self, telescope, configs):
        """The /48 is the unit of routing: a longer prefix would have its
        whole /48 answered by its honeypot."""
        with pytest.raises(ValueError):
            telescope.deploy(
                dataclasses.replace(configs["H_Alias"], announce_length=56),
                COVERING.subnet_at(0x8000 << 8, 56), at=1000.0)

    def test_tpot_deploys_gateway(self, telescope, configs):
        hp = telescope.deploy(configs["H_TPot1"], _slot(6), at=1000.0)
        assert "H_TPot1" in telescope.gateways
        gateway = telescope.gateways["H_TPot1"]
        assert gateway.responds(hp.prefix.network | 9, ICMPV6, None)


class TestTriggers:
    def test_tls_issuance_records_features(self, telescope, configs):
        hp = telescope.deploy(configs["H_Org/net"], _slot(1), at=1000.0)
        certs = telescope.issue_tls(hp, at=5 * DAY)
        assert hp.feature_time(Feature.TLS_ROOT) == 5 * DAY
        assert hp.feature_time(Feature.TLS_SUB) == 5 * DAY
        # 2 roots + subdomain certs up to the CA's weekly limit (the root
        # of the subdomain-bearing domain consumes one slot, exactly the
        # Let's Encrypt constraint that capped the paper at 50 names).
        assert 2 + 45 <= len(certs) <= 2 + MAX_SUBDOMAIN_CERTS

    def test_tls_requires_domains(self, telescope, configs):
        hp = telescope.deploy(configs["H_BGP1"], _slot(2), at=1000.0)
        with pytest.raises(ValueError):
            telescope.issue_tls(hp, at=5 * DAY)

    def test_hitlist_insertion(self, telescope, configs):
        hp = telescope.deploy(configs["H_TPot1"], _slot(3), at=1000.0)
        entries = telescope.insert_hitlist(hp, at=10 * DAY)
        categories = {e.category for e in entries}
        assert HitlistCategory.ALIASED in categories
        assert HitlistCategory.ICMP in categories
        assert len(hp.manual_hitlist_addresses) == 2
        assert hp.feature_time(Feature.HITLIST) == 10 * DAY

    def test_udp_hitlist_insertion_icmp_only(self, telescope, configs):
        hp = telescope.deploy(configs["H_UDP"], _slot(4), at=1000.0)
        entries = telescope.insert_hitlist(hp, at=10 * DAY)
        assert {e.category for e in entries} == {HitlistCategory.ICMP}

    def test_withdrawal(self, telescope, configs):
        hp = telescope.deploy(configs["H_BGP1"], _slot(5), at=1000.0)
        telescope.withdraw(hp, at=30 * DAY)
        assert hp.withdrawn_at == 30 * DAY
        assert telescope.speaker.collectors.visibility_count(
            hp.announced_prefix, 40 * DAY
        ) == 0


def _send(telescope, pkt):
    """Deliver one packet as a one-row batch."""
    telescope.handle_batch(PacketBatch.from_packets([pkt]))


class TestDataPlane:
    def test_capture_everything_in_covering(self, telescope, configs):
        telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        _send(telescope, icmp_echo_request(2000.0, SRC, COVERING.network | 1))
        _send(telescope, icmp_echo_request(2001.0, SRC, _slot(1).network | 5))
        assert len(telescope.capturer) == 2

    def test_twinklenet_answers_for_aliased(self, telescope, configs):
        """An aliased Twinklenet prefix answers ICMP anywhere in it: its
        probe is captured, and the oracle scanners read says yes."""
        hp = telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        dst = hp.prefix.network | 5
        _send(telescope, icmp_echo_request(2000.0, SRC, dst))
        assert len(telescope.capturer) == 1
        assert telescope.responds(dst, ICMPV6, None, at=2000.0)
        assert telescope.interaction_level(dst, 2000.0) == 1

    def test_tpot_path(self, telescope, configs):
        """A SYN to a T-Pot port is captured, and the gateway's surface
        answers it at the high interaction level."""
        hp = telescope.deploy(configs["H_TPot1"], _slot(2), at=1000.0)
        dst = hp.prefix.network | 3
        _send(telescope, tcp_segment(2000.0, SRC, dst, 4000, 22,
                                     TcpFlags.SYN))
        assert len(telescope.capturer) == 1
        assert telescope.responds(dst, TCP, 22, at=2000.0)
        assert not telescope.responds(dst, TCP, 9999, at=2000.0)
        assert telescope.interaction_level(dst, 2000.0) == 2

    def test_control_space_is_silent(self, telescope):
        dst = COVERING.network | 1
        _send(telescope, icmp_echo_request(2000.0, SRC, dst))
        assert len(telescope.capturer) == 1
        assert not telescope.responds(dst, ICMPV6, None, at=2000.0)
        assert telescope.interaction_level(dst, 2000.0) == 0

    def test_honeypots_see_no_rows(self, telescope, configs, monkeypatch):
        """The data plane hands no row to a honeypot, inside a
        honeyprefix or outside: every row is captured, and only the
        oracles speak for the honeypots."""
        alias = telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        tpot = telescope.deploy(configs["H_TPot1"], _slot(2), at=1000.0)

        def refuse(*args, **kwargs):
            raise AssertionError("a honeypot was handed a row")

        for owner in (Twinklenet, DnatGateway):
            monkeypatch.setattr(owner, "handle", refuse)
            monkeypatch.setattr(owner, "handle_batch", refuse)
        for dst in (COVERING.network | 1, _slot(3).network | 1,
                    alias.prefix.network | 5, tpot.prefix.network | 5):
            _send(telescope, icmp_echo_request(2000.0, SRC, dst))
        assert len(telescope.capturer) == 4


class TestRouting:
    def test_control_space_only_routes_nothing(self, telescope, configs):
        telescope.deploy(configs["H_TPot1"], _slot(5), at=1000.0)
        batch = PacketBatch.from_packets([
            tcp_segment(2000.0, SRC, COVERING.network | 1, 4000, 22,
                        TcpFlags.SYN),
            tcp_segment(2001.0, SRC, _slot(9).network | 1, 4000, 22,
                        TcpFlags.SYN),
        ])
        telescope.handle_batch(batch)
        assert len(telescope.capturer) == 2
        for dst in (COVERING.network | 1, _slot(9).network | 1):
            assert telescope.honeyprefix_for(dst) is None
            assert not telescope.responds(dst, TCP, 22, at=2001.0)


class TestOracles:
    def test_responds_time_gated(self, telescope, configs):
        hp = telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        addr = hp.prefix.network | 77
        assert not telescope.responds(addr, ICMPV6, None, at=500.0)
        assert telescope.responds(addr, ICMPV6, None, at=1500.0)

    def test_control_space_never_responds(self, telescope, configs):
        telescope.deploy(configs["H_TPot1"], _slot(1), at=1000.0)
        telescope.deploy(configs["H_Alias"], _slot(2), at=1000.0)
        for addr in (COVERING.network | 9, _slot(3).network | 9):
            assert not telescope.responds(addr, ICMPV6, None, at=2000.0)
            assert not telescope.responds(addr, TCP, 22, at=2000.0)

    def test_responds_after_withdrawal(self, telescope, configs):
        hp = telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        telescope.withdraw(hp, at=2000.0)
        assert not telescope.responds(hp.prefix.network | 77, ICMPV6, None,
                                      at=3000.0)

    def test_interaction_levels(self, telescope, configs):
        tpot = telescope.deploy(configs["H_TPot1"], _slot(1), at=1000.0)
        alias = telescope.deploy(configs["H_Alias"], _slot(2), at=1000.0)
        bgp = telescope.deploy(configs["H_BGP1"], _slot(3), at=1000.0)
        at = 2000.0
        assert telescope.interaction_level(tpot.prefix.network | 9, at) == 2
        assert telescope.interaction_level(alias.prefix.network | 9, at) == 1
        assert telescope.interaction_level(bgp.prefix.network | 9, at) == 0
        assert telescope.interaction_level(COVERING.network | 9, at) == 0
