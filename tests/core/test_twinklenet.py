"""Tests for the Twinklenet low-interaction honeypot (Table 7 semantics)."""

import pytest

from repro.core.honeyprefix import HoneyprefixConfig, IcmpMode, deploy_addresses
from repro.core.twinklenet import (
    DNS_SERVFAIL_PAYLOAD,
    NTP_KOD_PAYLOAD,
    Twinklenet,
    TwinklenetConfig,
)
from repro.net.addr import IPv6Prefix
from repro.net.packet import (
    ICMPV6,
    TCP,
    UDP,
    IcmpType,
    TcpFlags,
    icmp_echo_request,
    tcp_segment,
    udp_datagram,
)

PREFIX = IPv6Prefix.parse("2001:db8:200::/48")
SRC = IPv6Prefix.parse("2001:db8:f00::/48").network | 3


@pytest.fixture
def pot(rng):
    config = HoneyprefixConfig(
        name="hp", icmp_mode=IcmpMode.ADDRESSES,
        tcp_services=(("web", (80, 443)),), udp_ports=(53, 123),
    )
    hp = deploy_addresses(config, PREFIX, rng)
    return Twinklenet(TwinklenetConfig()), hp, []


def _tcp_addr(hp):
    return next(a for a, b in hp.responsive.items() if (TCP, 80) in b)


def _udp_addr(hp):
    return next(a for a, b in hp.responsive.items() if (UDP, 53) in b)


class TestIcmp:
    def test_echo_reply_for_responsive(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            icmp_echo_request(1.0, SRC, PREFIX.network | 1), hp)
        assert len(responses) == 1
        assert responses[0].sport == int(IcmpType.ECHO_REPLY)
        assert responses[0].dst == SRC

    def test_silence_for_dark_address(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            icmp_echo_request(1.0, SRC, PREFIX.network | 0xF00), hp)
        assert responses == []

    def test_silence_outside_honeyprefixes(self, bgp_only_telescope):
        """An aliased honeyprefix answers ICMP anywhere in its /48, yet
        the telescope's oracles, which are what scanners learn from, say
        no just outside it, outside the telescope, before the deploy and
        after the withdrawal."""
        telescope = bgp_only_telescope
        config = HoneyprefixConfig(name="hp", aliased=True,
                                   icmp_mode=IcmpMode.FULL)
        inside = PREFIX.network | 0xF00
        assert not telescope.responds(inside, ICMPV6, None, at=1.0)
        assert telescope.interaction_level(inside, 1.0) == 0
        hp = telescope.deploy(config, PREFIX, at=10.0)
        assert not telescope.responds(inside, ICMPV6, None, at=5.0)
        for dst in (PREFIX.network - 1, PREFIX.network + (1 << 80), 42):
            assert not telescope.responds(dst, ICMPV6, None, at=20.0)
            assert telescope.interaction_level(dst, 20.0) == 0
        assert telescope.responds(inside, ICMPV6, None, at=20.0)
        assert telescope.interaction_level(inside, 20.0) == 1
        telescope.withdraw(hp, at=30.0)
        assert not telescope.responds(inside, ICMPV6, None, at=30.0)
        assert telescope.interaction_level(inside, 30.0) == 0


class TestTcp:
    def test_full_handshake_capture_and_fin(self, pot):
        twinklenet, hp, responses = pot
        addr = _tcp_addr(hp)
        responses += twinklenet.handle(
            tcp_segment(1.0, SRC, addr, 5000, 80, TcpFlags.SYN, seq=100), hp)
        assert TcpFlags(responses[-1].flags) == TcpFlags.SYN | TcpFlags.ACK
        assert responses[-1].ack == 101
        responses += twinklenet.handle(
            tcp_segment(1.1, SRC, addr, 5000, 80,
                        TcpFlags.ACK, seq=101, ack=1), hp)
        responses += twinklenet.handle(
            tcp_segment(1.2, SRC, addr, 5000, 80,
                        TcpFlags.PSH | TcpFlags.ACK, seq=101,
                        payload=b"GET /"), hp)
        assert TcpFlags(responses[-1].flags) & TcpFlags.FIN
        assert twinklenet.sessions_completed[0].first_data == b"GET /"

    def test_midstream_gets_rst(self, pot):
        twinklenet, hp, responses = pot
        addr = _tcp_addr(hp)
        responses += twinklenet.handle(
            tcp_segment(1.0, SRC, addr, 6000, 80, TcpFlags.ACK, ack=55), hp)
        assert TcpFlags(responses[-1].flags) == TcpFlags.RST
        assert responses[-1].seq == 55

    def test_closed_port_silence(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            tcp_segment(1.0, SRC, _tcp_addr(hp), 7000, 8080, TcpFlags.SYN), hp)
        assert responses == []


class TestUdp:
    def test_dns_servfail(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            udp_datagram(1.0, SRC, _udp_addr(hp), 9000, 53,
                         b"\xab\xcdquery"), hp)
        assert responses[-1].payload[:2] == b"\xab\xcd"
        assert DNS_SERVFAIL_PAYLOAD in responses[-1].payload

    def test_ntp_kiss_of_death(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            udp_datagram(1.0, SRC, _udp_addr(hp), 9000, 123,
                         b"\x23" + b"\x00" * 47), hp)
        assert responses[-1].payload == NTP_KOD_PAYLOAD
        assert b"DENY" in responses[-1].payload

    def test_unbound_udp_silence(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            udp_datagram(1.0, SRC, _udp_addr(hp), 9000, 161), hp)
        assert responses == []


class TestSessionLifecycle:
    """The session table must stay bounded under scanner load."""

    def _tcp_pot(self, rng, session_timeout=600.0, max_sessions=4096):
        config = HoneyprefixConfig(
            name="hp", icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", (80,)),),
        )
        hp = deploy_addresses(config, PREFIX, rng)
        pot = Twinklenet(TwinklenetConfig(session_timeout=session_timeout,
                                          max_sessions=max_sessions))
        return pot, hp, _tcp_addr(hp), []

    def test_syn_sweep_leaves_table_bounded(self, rng):
        """10k SYN-only probes (the classic scanner pattern) must not grow
        the session table past the configured cap."""
        pot, hp, addr, responses = self._tcp_pot(rng, max_sessions=512)
        for i in range(10_000):
            src = (0x2620 << 112) | i
            responses += pot.handle(
                tcp_segment(i * 0.01, src, addr, 5000, 80, TcpFlags.SYN), hp)
        assert len(pot._sessions) <= 512
        assert pot.sessions_evicted >= 10_000 - 512

    def test_idle_sessions_evicted_by_timestamp(self, rng):
        pot, hp, addr, responses = self._tcp_pot(
            rng, session_timeout=600.0)
        responses += pot.handle(
            tcp_segment(0.0, SRC, addr, 5000, 80, TcpFlags.SYN), hp)
        assert len(pot._sessions) == 1
        # A later packet (any TCP traffic) drives the idle sweep.
        responses += pot.handle(
            tcp_segment(1200.0, SRC + 1, addr, 5001, 80, TcpFlags.SYN), hp)
        assert len(pot._sessions) == 1  # only the fresh session remains
        assert pot.sessions_evicted == 1

    def test_fin_tears_down_session_with_ack(self, rng):
        pot, hp, addr, responses = self._tcp_pot(rng)
        responses += pot.handle(
            tcp_segment(1.0, SRC, addr, 5000, 80, TcpFlags.SYN, seq=100), hp)
        responses += pot.handle(
            tcp_segment(1.1, SRC, addr, 5000, 80, TcpFlags.ACK,
                        seq=101, ack=1), hp)
        responses += pot.handle(
            tcp_segment(1.2, SRC, addr, 5000, 80,
                        TcpFlags.FIN | TcpFlags.ACK, seq=101), hp)
        assert pot._sessions == {}
        assert TcpFlags(responses[-1].flags) == TcpFlags.ACK
        assert responses[-1].ack == 102

    def test_rst_tears_down_session_silently(self, rng):
        pot, hp, addr, responses = self._tcp_pot(rng)
        responses += pot.handle(
            tcp_segment(1.0, SRC, addr, 5000, 80, TcpFlags.SYN), hp)
        n_before = len(responses)
        responses += pot.handle(
            tcp_segment(1.1, SRC, addr, 5000, 80, TcpFlags.RST, seq=1), hp)
        assert pot._sessions == {}
        assert len(responses) == n_before  # no reply to the RST

    def test_syn_ack_fin_no_payload_leaves_no_session(self, rng):
        """The SYN -> ACK -> FIN pattern (connect scan, no data) used to
        leak one TcpSession forever."""
        pot, hp, addr, responses = self._tcp_pot(rng)
        responses += pot.handle(
            tcp_segment(1.0, SRC, addr, 5000, 80, TcpFlags.SYN), hp)
        responses += pot.handle(
            tcp_segment(1.1, SRC, addr, 5000, 80, TcpFlags.ACK,
                        seq=1, ack=1), hp)
        responses += pot.handle(
            tcp_segment(1.2, SRC, addr, 5000, 80,
                        TcpFlags.FIN | TcpFlags.ACK, seq=1), hp)
        assert pot._sessions == {}

    def test_data_capture_still_works_after_eviction_plumbing(self, rng):
        """The Table 7 capture-then-FIN path is unchanged."""
        pot, hp, addr, responses = self._tcp_pot(rng)
        responses += pot.handle(
            tcp_segment(1.0, SRC, addr, 5000, 80, TcpFlags.SYN, seq=100), hp)
        responses += pot.handle(
            tcp_segment(1.1, SRC, addr, 5000, 80, TcpFlags.ACK,
                        seq=101, ack=1), hp)
        responses += pot.handle(
            tcp_segment(1.2, SRC, addr, 5000, 80,
                        TcpFlags.PSH | TcpFlags.ACK, seq=101,
                        payload=b"GET /"), hp)
        assert TcpFlags(responses[-1].flags) & TcpFlags.FIN
        assert pot.sessions_completed[0].first_data == b"GET /"
        assert pot._sessions == {}


class TestDnsReply:
    def test_reply_is_wellformed_12_byte_header(self, pot):
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            udp_datagram(1.0, SRC, _udp_addr(hp), 9000, 53,
                         b"\xab\xcdquery"), hp)
        reply = responses[-1].payload
        assert len(reply) == 12
        assert reply[:2] == b"\xab\xcd"
        assert reply[2:4] == DNS_SERVFAIL_PAYLOAD
        assert reply[4:] == b"\x00" * 8  # QD/AN/NS/AR counts all zero

    @pytest.mark.parametrize("query", [b"", b"\xab"])
    def test_short_query_txid_zero_padded(self, pot, query):
        """Queries shorter than two bytes used to produce a truncated /
        garbage transaction id."""
        twinklenet, hp, responses = pot
        responses += twinklenet.handle(
            udp_datagram(1.0, SRC, _udp_addr(hp), 9000, 53, query), hp)
        reply = responses[-1].payload
        assert len(reply) == 12
        assert reply[:2] == query.ljust(2, b"\x00")
        assert reply[2:4] == DNS_SERVFAIL_PAYLOAD


class TestAliasing:
    def test_multiple_prefixes_one_instance(self, rng):
        """IP aliasing: one instance serves non-contiguous subnets."""
        prefix_a = IPv6Prefix.parse("2001:db8:200::/48")
        prefix_b = IPv6Prefix.parse("2001:db8:999::/48")
        config = HoneyprefixConfig(name="a", aliased=True,
                                   icmp_mode=IcmpMode.FULL)
        hp_a = deploy_addresses(config, prefix_a, rng)
        hp_b = deploy_addresses(
            HoneyprefixConfig(name="b", aliased=True,
                              icmp_mode=IcmpMode.FULL),
            prefix_b, rng,
        )
        pot = Twinklenet(TwinklenetConfig())
        responses = pot.handle(
            icmp_echo_request(1.0, SRC, prefix_a.network | 77), hp_a)
        responses += pot.handle(
            icmp_echo_request(2.0, SRC, prefix_b.network | 88), hp_b)
        assert len(responses) == 2

    def test_counters(self, pot):
        twinklenet, hp, _ = pot
        twinklenet.handle(icmp_echo_request(1.0, SRC, PREFIX.network | 1), hp)
        assert twinklenet.rx_count == 1
        assert twinklenet.tx_count == 1
