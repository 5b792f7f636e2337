"""Tests for the T-Pot stack: containers, DNAT gateway, reply translation."""

import pytest

from repro.core.honeyprefix import HoneyprefixConfig
from repro.core.tpot import (
    DnatGateway,
    TPOT1_CONTAINERS,
    TPOT2_CONTAINERS,
    TPotInstance,
)
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
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
from repro.obs import MetricsRegistry, use_registry

PREFIX = IPv6Prefix.parse("2001:db8:300::/48")
SRC = IPv6Prefix.parse("2001:db8:f00::/48").network | 5


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry


def _count(registry, name):
    return registry.snapshot()["counters"].get(name, 0)


@pytest.fixture
def stack(registry):
    tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
    return DnatGateway(PREFIX, tpot), tpot, []


class TestContainers:
    def test_table5_tpot1_ports(self):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        for port in (22, 23, 25, 80, 443, 6379, 5555, 1433, 27017):
            assert tpot.listens(TCP, port)
        for port in (19, 53, 123, 161, 1900, 69, 5000):
            assert tpot.listens(UDP, port)
        assert not tpot.listens(TCP, 9200)  # elasticpot is TPot2-only

    def test_table5_tpot2_differs(self):
        tpot = TPotInstance("tpot2", TPOT2_CONTAINERS)
        assert tpot.listens(TCP, 9200)       # elasticpot
        assert tpot.listens(TCP, 11112)      # dicompot
        assert tpot.listens(UDP, 5060)       # sentrypeer
        assert not tpot.listens(TCP, 22)     # no cowrie on TPot2
        assert not tpot.listens(TCP, 6379)   # no redis honeypot

    def test_open_ports_sorted(self):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        ports = tpot.open_ports(TCP)
        assert list(ports) == sorted(ports)


class TestTPotInteraction:
    def test_handshake_then_banner(self, registry):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        target = PREFIX.network | 1
        synack = tpot.handle(tcp_segment(1.0, SRC, target, 4000, 22,
                                         TcpFlags.SYN, seq=9))
        assert TcpFlags(synack[0].flags) == TcpFlags.SYN | TcpFlags.ACK
        assert _count(registry, "tpot.interactions") == 0
        banner = tpot.handle(tcp_segment(1.1, SRC, target, 4000, 22,
                                         TcpFlags.ACK, seq=10))
        assert banner and banner[0].payload.startswith(b"SSH-2.0")
        assert _count(registry, "tpot.interactions") == 1

    def test_data_logged(self, registry):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        target = PREFIX.network | 1
        ack = tpot.handle(tcp_segment(1.0, SRC, target, 4000, 80,
                                      TcpFlags.PSH | TcpFlags.ACK, seq=3,
                                      payload=b"GET / HTTP/1.1"))
        assert TcpFlags(ack[0].flags) == TcpFlags.ACK
        assert ack[0].ack == 3 + len(b"GET / HTTP/1.1")
        assert _count(registry, "tpot.interactions") == 1

    def test_udp_interaction(self, registry):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        out = tpot.handle(udp_datagram(1.0, SRC, PREFIX.network | 1,
                                       4000, 53, b"q"))
        assert out
        assert _count(registry, "tpot.interactions") == 1

    def test_closed_port_no_response(self):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        assert tpot.handle(tcp_segment(1.0, SRC, PREFIX.network | 1,
                                       4000, 9999, TcpFlags.SYN)) == []


class TestDnatGateway:
    def test_icmp_whole_prefix(self, stack):
        gateway, _, out = stack
        out += gateway.handle(
            icmp_echo_request(1.0, SRC, PREFIX.network | 0xBEEF))
        assert out[-1].sport == int(IcmpType.ECHO_REPLY)
        assert out[-1].src == PREFIX.network | 0xBEEF

    def test_dnat_translates_and_logs(self, stack, registry):
        gateway, _, out = stack
        original = PREFIX.network | 0x1234
        out += gateway.handle(
            tcp_segment(5.0, SRC, original, 4000, 22, TcpFlags.SYN))
        assert _count(registry, "tpot.gateway.nat_entries") == 1
        assert out[-1].src == original  # reply un-translated

    def test_reply_restores_scanner_port(self, stack):
        gateway, _, out = stack
        out += gateway.handle(
            tcp_segment(5.0, SRC, PREFIX.network | 7, 4321, 22, TcpFlags.SYN))
        assert out[-1].dport == 4321
        assert out[-1].dst == SRC

    def test_flow_reuses_nat_port(self, stack, registry):
        gateway, _, out = stack
        target = PREFIX.network | 7
        out += gateway.handle(
            tcp_segment(5.0, SRC, target, 4321, 22, TcpFlags.SYN))
        out += gateway.handle(
            tcp_segment(5.1, SRC, target, 4321, 22, TcpFlags.ACK, seq=1))
        assert _count(registry, "tpot.gateway.nat_entries") == 1
        assert len(gateway._flows) == 1
        assert gateway._next_port == 32_769

    def test_closed_port_captured_but_silent(self, stack, registry):
        gateway, _, out = stack
        out += gateway.handle(
            tcp_segment(5.0, SRC, PREFIX.network | 1, 4000, 9999,
                        TcpFlags.SYN))
        assert out == []
        assert gateway.rx_count == 1
        assert _count(registry, "tpot.gateway.nat_entries") == 0

    def test_out_of_prefix_ignored(self, bgp_only_telescope):
        """The gateway answers ICMP across its whole prefix, yet the
        telescope's oracles say no outside it, before the deploy and
        after the withdrawal."""
        telescope = bgp_only_telescope
        inside = PREFIX.network | 0xBEEF
        assert not telescope.responds(inside, TCP, 22, at=1.0)
        hp = telescope.deploy(HoneyprefixConfig(name="tp", tpot=1), PREFIX,
                              at=10.0)
        assert not telescope.responds(inside, ICMPV6, None, at=5.0)
        assert telescope.interaction_level(inside, 5.0) == 0
        for dst in (PREFIX.network - 1, PREFIX.network + (1 << 80), 42):
            assert not telescope.responds(dst, ICMPV6, None, at=20.0)
            assert not telescope.responds(dst, TCP, 22, at=20.0)
            assert telescope.interaction_level(dst, 20.0) == 0
        assert telescope.responds(inside, TCP, 22, at=20.0)
        assert telescope.interaction_level(inside, 20.0) == 2
        telescope.withdraw(hp, at=30.0)
        assert not telescope.responds(inside, ICMPV6, None, at=30.0)
        assert telescope.interaction_level(inside, 30.0) == 0

    def test_responds_oracle(self, stack):
        gateway, _, _ = stack
        assert gateway.responds(PREFIX.network | 5, ICMPV6, None)
        assert gateway.responds(PREFIX.network | 5, TCP, 22)
        assert not gateway.responds(PREFIX.network | 5, TCP, 9999)


class TestNatPortWrap:
    """The NAT port counter wraps after 28,232 flows, so two live flows
    can share a port; a reply must still come from its own flow's
    destination, not from whichever flow took the port last."""

    DST1 = PREFIX.network | 0x11
    DST2 = PREFIX.network | 0x22

    def _wrap(self, gateway):
        gateway.handle(tcp_segment(1.0, SRC, self.DST1, 4000, 22,
                                   TcpFlags.SYN))
        # Enough distinct flows from the same scanner to bring the port
        # counter back to flow 1's port (one probe batch).
        n = (61_000 - 32_768) - 1
        gateway.handle_batch(PacketBatch.from_packets(
            tcp_segment(2.0, SRC, PREFIX.network | 0x33, 10_000 + i, 80,
                        TcpFlags.SYN)
            for i in range(n)))
        assert gateway._next_port == 32_768
        gateway.handle(tcp_segment(3.0, SRC, self.DST2, 5000, 22,
                                   TcpFlags.SYN))
        assert gateway._next_port == 32_769  # DST2's flow reuses the port

    def _ack(self):
        return tcp_segment(4.0, SRC, self.DST1, 4000, 22, TcpFlags.ACK, seq=1)

    def test_scalar_reply_sourced_from_own_flow(self, stack):
        gateway, _, out = stack
        self._wrap(gateway)
        out += gateway.handle(self._ack())
        assert out[-1].payload.startswith(b"SSH-2.0")
        assert out[-1].src == self.DST1
        assert out[-1].dport == 4000

    def test_batch_fallback_reply_sourced_from_own_flow(self, stack):
        """The same through ``handle_batch``: a probe re-SYN on flow 1
        is answered from flow 1's destination, back to its port."""
        gateway, _, _ = stack
        self._wrap(gateway)
        (synack,) = gateway.handle_batch(PacketBatch.from_packets([
            tcp_segment(4.0, SRC, self.DST1, 4000, 22, TcpFlags.SYN)]))
        assert TcpFlags(synack.flags) == TcpFlags.SYN | TcpFlags.ACK
        assert synack.src == self.DST1
        assert synack.dport == 4000
