"""Tests for the proactive telescope orchestrator."""

import dataclasses

import numpy as np
import pytest

from repro._util import DAY
from repro.core.features import Feature
from repro.core.honeyprefix import standard_configs
from repro.core.proactive import MAX_SUBDOMAIN_CERTS, ProactiveTelescope
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
        hp = telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        _send(telescope, icmp_echo_request(2000.0, SRC,
                                           hp.prefix.network | 5))
        assert telescope.response_count == 1

    def test_tpot_path(self, telescope, configs):
        hp = telescope.deploy(configs["H_TPot1"], _slot(2), at=1000.0)
        _send(telescope, tcp_segment(2000.0, SRC, hp.prefix.network | 3,
                                     4000, 22, TcpFlags.SYN))
        assert telescope.gateways["H_TPot1"].tx_count == 1

    def test_control_space_is_silent(self, telescope):
        _send(telescope, icmp_echo_request(2000.0, SRC, COVERING.network | 1))
        assert telescope.response_count == 0

    def test_honeypots_see_only_their_own_prefix(self, telescope, configs):
        """The telescope is the one router: Twinklenet and the gateways
        never receive a row outside the honeyprefix it is routed to."""
        alias = telescope.deploy(configs["H_Alias"], _slot(1), at=1000.0)
        tpot = telescope.deploy(configs["H_TPot1"], _slot(2), at=1000.0)
        for dst in (COVERING.network | 1, _slot(3).network | 1):
            _send(telescope, icmp_echo_request(2000.0, SRC, dst))
        assert telescope.twinklenet.rx_count == 0
        assert telescope.gateways["H_TPot1"].rx_count == 0
        _send(telescope, icmp_echo_request(2001.0, SRC,
                                           alias.prefix.network | 5))
        _send(telescope, icmp_echo_request(2002.0, SRC,
                                           tpot.prefix.network | 5))
        assert telescope.twinklenet.rx_count == 1
        assert telescope.gateways["H_TPot1"].rx_count == 1
        assert telescope.response_count == 2


def _route_reference(telescope, batch):
    """Per-key mask loop: each deployed /48's rows, in ascending key
    order, as ``(honeyprefix name, sub-batch)``."""
    hi48 = (batch.dst_hi >> np.uint64(16)) << np.uint64(16)
    by_key = {key >> 64: hp for key, hp in telescope._hp_by_48.items()}
    routed = []
    for key in sorted(by_key):
        mask = hi48 == np.uint64(key)
        if mask.any():
            routed.append((by_key[key].name, batch.select(mask)))
    return routed


def _columns(batch):
    return [getattr(batch, f.name) for f in dataclasses.fields(batch)]


class TestRouting:
    def test_sub_batches_match_per_key_masks(self, telescope, configs):
        """One mixed batch — T-Pot and Twinklenet honeyprefixes deployed
        out of key order, plus control space below, between and above
        them — reaches each honeyprefix as the rows a per-key mask
        selects, in ascending key order and arrival order."""
        slots = {"H_TPot2": 9, "H_Alias": 1, "H_TPot1": 5, "H_TCP": 3,
                 "H_Com": 7}
        for name, i in slots.items():
            telescope.deploy(configs[name], _slot(i), at=1000.0)
        routed = []

        def recorder(name=None):
            def handle_batch(sub, hp=None):
                routed.append((name or hp.name, sub))
                return ()  # no replies
            return handle_batch

        for name, gateway in telescope.gateways.items():
            gateway.handle_batch = recorder(name)
        telescope.twinklenet.handle_batch = recorder()

        rng = np.random.default_rng(4)
        n = 600
        # Deployed slots plus control space: below every key (slot 0 of
        # the covering prefix), between keys and above every key.
        nets = [COVERING.network, *(_slot(i).network for i in range(12))]
        pick = rng.integers(0, len(nets), n)
        dst_hi = np.array([nets[k] >> 64 for k in pick.tolist()],
                          dtype=np.uint64)
        dst_hi |= rng.integers(0, 1 << 16, n).astype(np.uint64)
        batch = PacketBatch.from_columns(
            ts=np.sort(rng.uniform(2000.0, 3000.0, n)),
            src_hi=np.full(n, SRC >> 64, dtype=np.uint64),
            src_lo=rng.integers(1, 1 << 32, n).astype(np.uint64),
            dst_hi=dst_hi, dst_lo=rng.integers(0, 1 << 62, n),
            proto=np.full(n, TCP), sport=rng.integers(1024, 65536, n),
            dport=rng.choice([22, 80, 443], n), origin=np.arange(n))
        expected = _route_reference(telescope, batch)
        telescope.handle_batch(batch)

        assert [name for name, _ in routed] == [
            name for name, _ in expected]
        assert {name for name, _ in routed} == set(slots)
        for (_, got), (_, want) in zip(routed, expected):
            for col_got, col_want in zip(_columns(got), _columns(want)):
                assert col_got.dtype == col_want.dtype
                assert np.array_equal(col_got, col_want)
        assert len(telescope.capturer) == n

    def test_control_space_only_routes_nothing(self, telescope, configs):
        telescope.deploy(configs["H_TPot1"], _slot(5), at=1000.0)
        routed = []
        telescope.gateways["H_TPot1"].handle_batch = routed.append
        batch = PacketBatch.from_packets([
            tcp_segment(2000.0, SRC, COVERING.network | 1, 4000, 22,
                        TcpFlags.SYN),
            tcp_segment(2001.0, SRC, _slot(9).network | 1, 4000, 22,
                        TcpFlags.SYN),
        ])
        telescope.handle_batch(batch)
        assert routed == []
        assert len(telescope.capturer) == 2


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
