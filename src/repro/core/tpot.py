"""T-Pot high-interaction honeypots behind a DNAT + 6-to-4 gateway.

The paper's Appendix B setup, reproduced stage by stage:

1. an access router forwards honeyprefix traffic to a **DNAT gateway**,
   which rewrites every destination to the prefix's first address (``::1``)
   plus a source port allocated per distinct flow, and reverse-translates
   each reply so it appears to come from the address the scanner probed;
2. a **reverse proxy** performs static 6-to-4 translation to the T-Pot
   instance's IPv4 address and routes by protocol/port to the right
   container;
3. the **T-Pot instance** runs the containers of Table 5 (cowrie, snare,
   dionaea, ...), each answering on its ports with a service banner and
   counting the interaction (``tpot.interactions``).

Each T-Pot instance can only bind a single IPv4 address — the constraint
that forced the two-stage design in the first place.

The scenario's day loop never relays a packet: NT-A captures its
traffic, and scanners learn what answers from the gateway's stateless
:meth:`DnatGateway.responds` (through the telescope's hitlist oracle),
which reads T-Pot's port surface.  :meth:`DnatGateway.handle` still runs
the relay packet by packet.  Unlike the paper's gateway it keeps no NAT
log: replies are sourced from the probed destination itself, and no
output needs original destinations recovered from T-Pot's logs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.obs import get_registry
from repro.net.packet import (
    ICMPV6,
    TCP,
    UDP,
    Packet,
    TcpFlags,
    icmp_echo_reply,
    tcp_segment,
    udp_datagram,
)

#: The NAT source ports the gateway hands out, in order: 32768-60999,
#: then around again.
_FIRST_NAT_PORT = 32_768
_NAT_PORT_SPAN = 61_000 - _FIRST_NAT_PORT


@dataclass(frozen=True, slots=True)
class Container:
    """One honeypot container: name plus its TCP/UDP port surface."""

    name: str
    tcp_ports: tuple[int, ...] = ()
    udp_ports: tuple[int, ...] = ()
    banner: bytes = b""

    def listens(self, proto: int, port: int) -> bool:
        if proto == TCP:
            return port in self.tcp_ports
        if proto == UDP:
            return port in self.udp_ports
        return False


#: Table 5, H_TPot1 column.
TPOT1_CONTAINERS: tuple[Container, ...] = (
    Container("cowrie", tcp_ports=(22, 23), banner=b"SSH-2.0-OpenSSH_8.2\r\n"),
    Container("mailoney", tcp_ports=(25,), banner=b"220 mail ESMTP\r\n"),
    Container("snare", tcp_ports=(80,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("citrixhoneypot", tcp_ports=(443,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("ciscoasa", tcp_ports=(8443,), udp_ports=(5000,)),
    Container("redishoneypot", tcp_ports=(6379,), banner=b"-ERR unknown\r\n"),
    Container("adbhoney", tcp_ports=(5555,)),
    Container(
        "dionaea",
        tcp_ports=(20, 21, 42, 81, 135, 443, 445, 1433, 1723, 1883, 3306, 27017),
        udp_ports=(69,),
    ),
    Container("ddospot", udp_ports=(19, 53, 123, 161, 1900)),
)

#: Table 5, H_TPot2 column.
TPOT2_CONTAINERS: tuple[Container, ...] = (
    Container("mailoney", tcp_ports=(25,), banner=b"220 mail ESMTP\r\n"),
    Container("snare", tcp_ports=(80,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("citrixhoneypot", tcp_ports=(443,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("ciscoasa", tcp_ports=(8443,), udp_ports=(5000,)),
    Container("adbhoney", tcp_ports=(5555,)),
    Container("sentrypeer", udp_ports=(5060,)),
    Container(
        "dionaea",
        tcp_ports=(20, 21, 42, 81, 135, 443, 445, 1433, 1723, 1883, 3306, 27017),
        udp_ports=(69,),
    ),
    Container("ddospot", udp_ports=(19, 53, 123, 161, 1900)),
    Container("conpot", tcp_ports=(1025, 50100), udp_ports=(161,)),
    Container("elasticpot", tcp_ports=(9200,), banner=b'{"name":"es"}'),
    Container("dicompot", tcp_ports=(11112,)),
)


class TPotInstance:
    """One T-Pot: a single-address honeypot running Table 5 containers."""

    def __init__(self, name: str, containers: tuple[Container, ...],
                 ipv4_address: int = 0x0A00_0001):
        self.name = name
        self.containers = containers
        self.ipv4_address = ipv4_address
        self._m_interactions = get_registry().counter("tpot.interactions")
        surface: dict[tuple[int, int], Container] = {}
        for container in containers:
            for port in container.tcp_ports:
                surface.setdefault((TCP, port), container)
            for port in container.udp_ports:
                surface.setdefault((UDP, port), container)
        self._surface = surface

    def listens(self, proto: int, port: int) -> bool:
        return (proto, port) in self._surface

    def open_ports(self, proto: int) -> tuple[int, ...]:
        return tuple(sorted(p for pr, p in self._surface if pr == proto))

    def handle(self, pkt: Packet) -> list[Packet]:
        """Process a (translated) packet; return the response packets."""
        container = self._surface.get((pkt.proto, pkt.dport))
        if container is None:
            return []
        if pkt.proto == TCP:
            if pkt.is_tcp_syn:
                return [tcp_segment(
                    pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                    TcpFlags.SYN | TcpFlags.ACK, seq=0, ack=pkt.seq + 1,
                )]
            if pkt.flags & TcpFlags.ACK and not pkt.payload:
                # Handshake completion: high-interaction pots speak first.
                self._m_interactions.inc()
                if container.banner:
                    return [tcp_segment(
                        pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                        TcpFlags.PSH | TcpFlags.ACK, seq=1, ack=pkt.seq,
                        payload=container.banner,
                    )]
                return []
            if pkt.payload:
                self._m_interactions.inc()
                return [tcp_segment(
                    pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                    TcpFlags.ACK, seq=1, ack=pkt.seq + len(pkt.payload),
                )]
            return []
        # UDP: answer with a generic service response.
        self._m_interactions.inc()
        return [udp_datagram(
            pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
            payload=b"\x00",
        )]


class DnatGateway:
    """The access-router DNAT stage fronting one T-Pot honeyprefix.

    Rewrites every destination to ``prefix::1`` with a source port
    allocated per flow, answers ICMP for the whole (aliased) prefix
    itself, and reverse-translates T-Pot responses on the way out.  It
    does not check membership: callers hand it only its own prefix's
    packets.
    """

    def __init__(self, prefix: IPv6Prefix, tpot: TPotInstance):
        self.prefix = prefix
        self.tpot = tpot
        self._next_port = _FIRST_NAT_PORT
        #: ``(src, dst, sport, is_tcp)`` -> NAT source port, in allocation
        #: order, so every packet of one flow reuses the same translation.
        self._flows: dict[tuple[int, int, int, bool], int] = {}
        self.rx_count = 0
        self.tx_count = 0
        registry = get_registry()
        self._m_rx = registry.counter("tpot.gateway.rx")
        self._m_tx = registry.counter("tpot.gateway.tx")
        self._m_nat = registry.counter("tpot.gateway.nat_entries")

    @property
    def target_address(self) -> int:
        """The ``::1`` address all flows are translated to."""
        return self.prefix.network | 1

    def responds(self, address: int, proto: int, port: int | None) -> bool:
        """Responsiveness oracle for an ``address`` in the prefix: aliased
        ICMP + T-Pot's port surface."""
        if proto == ICMPV6:
            return True
        return port is not None and self.tpot.listens(proto, port)

    def handle(self, pkt: Packet) -> list[Packet]:
        """Process one packet arriving for the honeyprefix; return the
        replies."""
        self.rx_count += 1
        self._m_rx.inc()
        replies = []  # a closed port is captured upstream, never answered
        if pkt.proto == ICMPV6:
            if pkt.is_icmp_echo_request:
                replies = [icmp_echo_reply(pkt)]
        elif self.tpot.listens(pkt.proto, pkt.dport):
            replies = self._relay(pkt)
        if replies:
            self.tx_count += len(replies)
            self._m_tx.inc(len(replies))
        return replies

    def handle_batch(self, batch: PacketBatch) -> list[Packet]:
        """:meth:`handle` over every row of ``batch`` (probe semantics, see
        :meth:`~repro.net.batch.PacketBatch.packet_at`); the replies.

        The day loop never calls this.  It stays only because the
        benchmark's traced repeat times it by name (``bench/layers.py``,
        ``TIMED_CALLS``), and goes once that row is dropped.
        """
        return [reply for pkt in batch.iter_packets()
                for reply in self.handle(pkt)]

    def _relay(self, pkt: Packet) -> list[Packet]:
        """DNAT-forward one open-port packet to T-Pot; return its replies.

        A flow's first packet takes the next NAT source port, 32768-60999
        and then around again.
        """
        key = (pkt.src, pkt.dst, pkt.sport, pkt.proto == TCP)
        nat_port = self._flows.get(key)
        if nat_port is None:
            nat_port = self._flows[key] = self._next_port
            self._next_port = ((nat_port - _FIRST_NAT_PORT + 1)
                               % _NAT_PORT_SPAN + _FIRST_NAT_PORT)
            self._m_nat.inc()
        translated = Packet(
            timestamp=pkt.timestamp, src=pkt.src, dst=self.target_address,
            proto=pkt.proto, sport=nat_port, dport=pkt.dport,
            flags=pkt.flags, payload=pkt.payload, seq=pkt.seq, ack=pkt.ack,
        )
        # Reverse translation: the reply appears to come from the address
        # the scanner probed, back to its real source port.  Taken from
        # the packet itself, not looked up by NAT port, which wraps and
        # gets reused.
        return [Packet(
            timestamp=response.timestamp,
            src=pkt.dst,
            dst=response.dst,
            proto=response.proto,
            sport=response.sport,
            dport=pkt.sport,
            flags=response.flags,
            payload=response.payload,
            seq=response.seq,
            ack=response.ack,
        ) for response in self.tpot.handle(translated)]
