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

The gateway has two entry points sharing one NAT state: per-packet
:meth:`DnatGateway.handle` (the reference path) and columnar
:meth:`DnatGateway.handle_batch`, which rewrites destinations, allocates
source ports per distinct flow and emits all container replies as one
batch.  Unlike the paper's gateway it keeps no NAT log: replies are
sourced from the probed destination itself, and no output needs original
destinations recovered from T-Pot's logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.addr import IPv6Prefix, KeyIndex, group_keys, key_hashes
from repro.net.batch import PacketBatch, WireBatch, WireBuilder, as_wire
from repro.obs import get_registry
from repro.net.packet import (
    ICMPV6,
    TCP,
    UDP,
    IcmpType,
    Packet,
    TcpFlags,
    icmp_echo_reply,
    icmp_echo_request_mask,
    tcp_segment,
    tcp_syn_mask,
    udp_datagram,
)

_U64 = 0xFFFFFFFFFFFFFFFF

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
        self._port_luts: dict[int, np.ndarray] = {}

    def listens(self, proto: int, port: int) -> bool:
        return (proto, port) in self._surface

    def open_ports(self, proto: int) -> tuple[int, ...]:
        return tuple(sorted(p for pr, p in self._surface if pr == proto))

    def port_lut(self, proto: int) -> np.ndarray:
        """Full 64K port lookup table: container index, -1 when closed.

        Turns the batch path's open-port test and container routing into
        one fancy-index — ``lut[dport]`` — per column.
        """
        lut = self._port_luts.get(proto)
        if lut is None:
            lut = np.full(65536, -1, dtype=np.int32)
            for i, container in enumerate(self.containers):
                ports = (container.tcp_ports if proto == TCP
                         else container.udp_ports)
                for port in ports:
                    if lut[port] < 0:  # first container wins, as _surface
                        lut[port] = i
            self._port_luts[proto] = lut
        return lut

    def count_interactions(self, n: int) -> None:
        """Count ``n`` interactions answered by the gateway's columnar path."""
        self._m_interactions.inc(n)

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


class NatTable:
    """The gateway's NAT flows as packed columns, in allocation order.

    A flow is ``(src, dst, sport, is-TCP)``: four uint64 address words and
    one uint32 word ``sport << 1 | is_tcp`` (only TCP and UDP reach the
    relay, so one protocol bit suffices).  Its NAT source port is a
    uint16.  A :class:`~repro.net.addr.KeyIndex` keeps the keys' hashes
    sorted between calls, so each lookup is a binary search over the
    flows already allocated.  One row per distinct flow keeps
    ``tpot.gateway.nat_entries`` exact.
    """

    #: The key columns' dtypes, then the NAT port's.
    _DTYPES = (np.uint64, np.uint64, np.uint64, np.uint64, np.uint32,
               np.uint16)

    def __init__(self):
        #: The five key columns, then the ports; the first ``_size`` rows
        #: are flows.
        self._columns = [np.empty(0, dtype=dtype) for dtype in self._DTYPES]
        self._size = 0
        self._index = KeyIndex()

    def __len__(self) -> int:
        return self._size

    def keys(self) -> tuple[np.ndarray, ...]:
        """The allocated flows' key columns."""
        return tuple(col[:self._size] for col in self._columns[:-1])

    def items(self) -> list[tuple[tuple[int, int, int, bool], int]]:
        """``((src, dst, sport, is_tcp), nat_port)`` per flow, in
        allocation order."""
        src_hi, src_lo, dst_hi, dst_lo, word, port = (
            col[:self._size].tolist() for col in self._columns)
        return [(((sh << 64) | sl, (dh << 64) | dl, w >> 1, bool(w & 1)), p)
                for sh, sl, dh, dl, w, p in zip(
                    src_hi, src_lo, dst_hi, dst_lo, word, port)]

    def allocate(self, cols, next_port: int) -> tuple[np.ndarray, int]:
        """NAT ports of the distinct flows ``cols``, in the given order.

        Flows not in the table yet are added in that order, with
        sequential ports from ``next_port`` that wrap from 60999 back to
        32768.  Returns ``(ports, n_new)``.
        """
        hashes = key_hashes(cols)
        rows = self._index.find(self.keys(), cols, hashes)
        new = np.flatnonzero(rows < 0)
        if len(new):
            start = self._size
            ports = ((next_port - _FIRST_NAT_PORT + np.arange(len(new)))
                     % _NAT_PORT_SPAN + _FIRST_NAT_PORT)
            self._append([col[new] for col in cols] + [ports])
            rows[new] = np.arange(start, self._size)
            self._index.add(hashes[new], rows[new])
        return self._columns[-1][rows], len(new)

    def _append(self, values) -> None:
        """Append rows, one array per column, growing the columns by at
        least an eighth: in place, unless a view of one is alive."""
        end = self._size + len(values[0])
        columns = self._columns
        if end > len(columns[0]):
            capacity = max(end, len(columns[0]) * 9 // 8)
            for i in range(len(columns)):
                try:
                    columns[i].resize(capacity)
                except ValueError:
                    grown = np.empty(capacity, dtype=columns[i].dtype)
                    grown[:self._size] = columns[i][:self._size]
                    columns[i] = grown
        for col, column_values in zip(columns, values):
            col[self._size:end] = column_values
        self._size = end


class DnatGateway:
    """The access-router DNAT stage fronting one T-Pot honeyprefix.

    Rewrites every destination to ``prefix::1`` with a source port
    allocated per flow, answers ICMP for the whole (aliased) prefix
    itself, and reverse-translates T-Pot responses on the way out.  The
    proactive telescope hands it only its own prefix's rows, so it does
    not check membership again.
    """

    def __init__(self, prefix: IPv6Prefix, tpot: TPotInstance):
        self.prefix = prefix
        self.tpot = tpot
        self._next_port = _FIRST_NAT_PORT
        #: Every flow's NAT source port, so every packet of one flow
        #: reuses the same translation.
        self._flows = NatTable()
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

    def _nat_ports(self, cols) -> np.ndarray:
        """NAT ports of distinct flows in first-packet order, allocating
        the new ones: the one NAT state machine of both paths."""
        ports, n_new = self._flows.allocate(cols, self._next_port)
        if n_new:
            self._next_port = ((self._next_port - _FIRST_NAT_PORT + n_new)
                               % _NAT_PORT_SPAN + _FIRST_NAT_PORT)
            self._m_nat.inc(n_new)
        return ports

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

    def _relay(self, pkt: Packet) -> list[Packet]:
        """DNAT-forward one open-port packet to T-Pot; return its replies.

        One implementation serves the scalar path and the batch path's
        per-row fallback — there is exactly one NAT state machine.
        """
        nat_port = int(self._nat_ports((
            np.array([pkt.src >> 64], dtype=np.uint64),
            np.array([pkt.src & _U64], dtype=np.uint64),
            np.array([pkt.dst >> 64], dtype=np.uint64),
            np.array([pkt.dst & _U64], dtype=np.uint64),
            np.array([pkt.sport << 1 | (pkt.proto == TCP)],
                     dtype=np.uint32)))[0])
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

    # -- columnar path ---------------------------------------------------

    def handle_batch(self, batch: PacketBatch | WireBatch) -> WireBatch:
        """Process a whole batch; returns the reply batch (row order =
        input row order, matching the per-packet reference exactly)."""
        wire = as_wire(batch)
        n = len(wire)
        self.rx_count += n
        self._m_rx.inc(n)
        out = WireBuilder()
        if n:
            self._react_batch(wire, out)
        replies = out.build()
        if len(replies):
            self.tx_count += len(replies)
            self._m_tx.inc(len(replies))
        return replies

    def _react_batch(self, wire: WireBatch, out: WireBuilder) -> None:
        # ICMP: the gateway answers echo everywhere in the aliased prefix.
        echo = np.flatnonzero(icmp_echo_request_mask(wire.proto, wire.sport))
        if len(echo):
            out.append_block(
                echo, wire.ts[echo],
                wire.dst_hi[echo], wire.dst_lo[echo],
                wire.src_hi[echo], wire.src_lo[echo],
                ICMPV6, int(IcmpType.ECHO_REPLY), wire.dport[echo],
                payload_id=out.translate_ids(wire.payloads,
                                             wire.payload_id[echo]),
            )
        tcp_lut = self.tpot.port_lut(TCP)
        udp_lut = self.tpot.port_lut(UDP)
        is_tcp = wire.proto == np.uint8(TCP)
        is_udp = wire.proto == np.uint8(UDP)
        rows = np.flatnonzero((is_tcp & (tcp_lut[wire.dport] >= 0))
                              | (is_udp & (udp_lut[wire.dport] >= 0)))
        if len(rows) == 0:
            return
        tcp_sel = is_tcp[rows]
        if bool((tcp_sel & ~tcp_syn_mask(wire.flags[rows])).any()):
            # Handshake completions / data segments in the batch (test
            # traffic, not probes): run the shared NAT relay row by row.
            for i in rows.tolist():
                for reply in self._relay(wire.packet_at(i)):
                    out.append_packet(i, reply)
            return
        # Flow allocation over distinct (src, dst, sport, is-TCP) keys.
        cols = (wire.src_hi[rows], wire.src_lo[rows],
                wire.dst_hi[rows], wire.dst_lo[rows],
                (wire.sport[rows].astype(np.uint32) << 1) | tcp_sel)
        ids, rep = group_keys(cols)
        first = np.full(len(rep), len(rows), dtype=np.int64)
        np.minimum.at(first, ids, np.arange(len(rows), dtype=np.int64))
        # The first row of each distinct flow, in first-appearance order:
        # the order the scalar path would assign ports in.
        first.sort()
        self._nat_ports(tuple(col[first] for col in cols))
        # Replies are NAT-invisible: sourced from the address the scanner
        # probed, back to its real port, as in the scalar relay.
        tcp_idx = rows[tcp_sel]
        if len(tcp_idx):
            out.append_block(
                tcp_idx, wire.ts[tcp_idx],
                wire.dst_hi[tcp_idx], wire.dst_lo[tcp_idx],
                wire.src_hi[tcp_idx], wire.src_lo[tcp_idx],
                TCP, wire.dport[tcp_idx], wire.sport[tcp_idx],
                flags=int(TcpFlags.SYN | TcpFlags.ACK),
                seq=0, ack=wire.seq[tcp_idx] + 1,
            )
        udp_idx = rows[~tcp_sel]
        if len(udp_idx):
            self.tpot.count_interactions(len(udp_idx))
            out.append_block(
                udp_idx, wire.ts[udp_idx],
                wire.dst_hi[udp_idx], wire.dst_lo[udp_idx],
                wire.src_hi[udp_idx], wire.src_lo[udp_idx],
                UDP, wire.dport[udp_idx], wire.sport[udp_idx],
                payload_id=out.intern(b"\x00"),
            )

