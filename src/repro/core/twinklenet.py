"""Twinklenet: the low-interaction multi-protocol IP-aliasing honeypot.

Python port of the paper's Go implementation (Appendix D).  A single
instance handles packets for any number of non-contiguous subnets and
addresses (IP aliasing).  It keeps no prefix table of its own: each
packet comes with the honeyprefix that owns it.  Interactions follow
Table 7:

=============== =============================== ===============================
protocol        request                         response
=============== =============================== ===============================
ICMPv6          Echo request                    Echo reply
TCP             SYN to an open port             complete the three-way
                                                handshake, capture the first
                                                data, close with FIN
TCP             other segment to an open port   RST
NTP (UDP)       any client packet               kiss-of-death (RefID "DENY")
DNS (UDP)       any query                       SERVFAIL
=============== =============================== ===============================

Anything else — closed ports, unclaimed addresses — is silently captured
but never answered, preserving darknet semantics.

:meth:`Twinklenet.handle` is the one state machine; ``table7`` drives it.
The scenario's day loop never calls it: NT-A captures its traffic, and
scanners learn what answers from the telescope's stateless oracles
(:meth:`~repro.core.proactive.ProactiveTelescope.responds` and
``interaction_level``), which read the same honeyprefix bindings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.honeyprefix import Honeyprefix
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

#: NTP kiss-of-death payload: stratum 0 with reference identifier "DENY".
NTP_KOD_PAYLOAD = b"\x24\x00\x00\x00DENY"
#: DNS header flag bytes with QR=1, RCODE=2 (SERVFAIL).
DNS_SERVFAIL_PAYLOAD = b"\x80\x02"
#: Zeroed QDCOUNT/ANCOUNT/NSCOUNT/ARCOUNT words of the SERVFAIL header.
_DNS_ZERO_COUNTS = b"\x00\x00" * 4

#: UDP ports Twinklenet understands as DNS / NTP.
DNS_PORT = 53
NTP_PORT = 123


@dataclass
class TcpSession:
    """State of one half-open/open TCP conversation."""

    peer: int
    peer_port: int
    local: int
    local_port: int
    state: str = "syn_received"
    first_data: bytes | None = None
    opened_at: float = 0.0
    last_seen: float = 0.0


@dataclass
class TwinklenetConfig:
    """Session-table limits of one instance."""

    #: TCP sessions idle longer than this (by packet timestamp) are evicted
    #: — a SYN-only sweep must not grow the session table forever.
    session_timeout: float = 600.0
    #: Hard cap on concurrently tracked TCP sessions; the oldest-inserted
    #: session is dropped to admit a new one once the cap is reached.
    max_sessions: int = 4096


class Twinklenet:
    """The responder for every honeyprefix it is handed.  Feed packets in
    via :meth:`handle`, each with the honeyprefix that owns it; it returns
    the replies."""

    def __init__(self, config: TwinklenetConfig):
        self.config = config
        #: TCP sessions keyed ``(peer, peer_port, local, local_port)``, in
        #: insertion order: a re-SYN reopens a session in place, so the
        #: first key is always the oldest-inserted one.
        self._sessions: dict[tuple[int, int, int, int], TcpSession] = {}
        self.sessions_completed: list[TcpSession] = []
        self.sessions_evicted = 0
        self.rx_count = 0
        self.tx_count = 0
        self._last_sweep = float("-inf")
        registry = get_registry()
        self._m_rx = registry.counter("twinklenet.rx")
        self._m_opened = registry.counter("twinklenet.sessions.opened")
        self._m_evicted = registry.counter("twinklenet.sessions.evicted")
        self._m_completed = registry.counter("twinklenet.sessions.completed")
        self._m_torn_down = registry.counter("twinklenet.sessions.torn_down")
        self._m_reply_icmp = registry.counter("twinklenet.replies.icmp")
        self._m_reply_tcp = registry.counter("twinklenet.replies.tcp")
        self._m_reply_dns = registry.counter("twinklenet.replies.dns")
        self._m_reply_ntp = registry.counter("twinklenet.replies.ntp")

    def handle(self, pkt: Packet, hp: Honeyprefix) -> list[Packet]:
        """Process one packet for its honeyprefix ``hp``; return the
        replies (at most one)."""
        self.rx_count += 1
        self._m_rx.inc()
        reply = None
        if pkt.proto == ICMPV6:
            reply = self._handle_icmp(pkt, hp)
        elif pkt.proto == TCP:
            reply = self._handle_tcp(pkt, hp)
        elif pkt.proto == UDP:
            reply = self._handle_udp(pkt, hp)
        if reply is None:
            return []
        self.tx_count += 1
        return [reply]

    def handle_batch(self, batch: PacketBatch,
                     hp: Honeyprefix) -> list[Packet]:
        """:meth:`handle` over every row of ``batch`` (probe semantics, see
        :meth:`~repro.net.batch.PacketBatch.packet_at`); the replies.

        The day loop never calls this.  It stays only because the
        benchmark's traced repeat times it by name (``bench/layers.py``,
        ``TIMED_CALLS``), and goes once that row is dropped.
        """
        return [reply for pkt in batch.iter_packets()
                for reply in self.handle(pkt, hp)]

    # -- ICMP ------------------------------------------------------------

    def _handle_icmp(self, pkt: Packet, hp: Honeyprefix) -> Packet | None:
        if pkt.is_icmp_echo_request and hp.responds(pkt.dst, ICMPV6, None):
            self._m_reply_icmp.inc()
            return icmp_echo_reply(pkt)
        return None

    # -- TCP -------------------------------------------------------------

    def _evict_stale_sessions(self, now: float) -> None:
        """Drop sessions idle longer than the configured timeout.

        Driven by packet timestamps and amortized: a full sweep runs at
        most once per timeout interval, so per-packet cost stays O(1).
        """
        timeout = self.config.session_timeout
        if now - self._last_sweep < timeout:
            return
        self._last_sweep = now
        stale = [key for key, session in self._sessions.items()
                 if now - session.last_seen > timeout]
        for key in stale:
            del self._sessions[key]
        self.sessions_evicted += len(stale)
        self._m_evicted.inc(len(stale))

    def _handle_tcp(self, pkt: Packet, hp: Honeyprefix) -> Packet | None:
        self._evict_stale_sessions(pkt.timestamp)
        if not hp.responds(pkt.dst, TCP, pkt.dport):
            return None  # closed port: darknet silence
        reply = self._tcp_step(pkt)
        if reply is None:
            return None
        rflags, rseq, rack = reply
        return tcp_segment(
            pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
            rflags, seq=rseq, ack=rack,
        )

    def _tcp_step(self, pkt: Packet) -> tuple | None:
        """One TCP state-machine step; returns the reply's (flags, seq,
        ack) or None."""
        sessions = self._sessions
        key = (pkt.src, pkt.sport, pkt.dst, pkt.dport)
        session = sessions.get(key)
        flags = pkt.flags
        if flags & TcpFlags.SYN and not flags & TcpFlags.ACK:
            if (session is None
                    and len(sessions) >= self.config.max_sessions):
                # Table full: recycle the oldest-inserted session (a
                # SYN-only scanner never touches a session twice, so
                # insertion order is idle order).
                del sessions[next(iter(sessions))]
                self.sessions_evicted += 1
                self._m_evicted.inc()
            # A re-SYN on a tracked key starts it afresh in place.
            sessions[key] = TcpSession(
                peer=pkt.src, peer_port=pkt.sport, local=pkt.dst,
                local_port=pkt.dport, opened_at=pkt.timestamp,
                last_seen=pkt.timestamp)
            self._m_opened.inc()
            self._m_reply_tcp.inc()
            return (TcpFlags.SYN | TcpFlags.ACK, 0, pkt.seq + 1)
        if session is None:
            # Mid-stream segment with no session: RST per Table 7.
            self._m_reply_tcp.inc()
            return (TcpFlags.RST, pkt.ack, 0)
        session.last_seen = pkt.timestamp
        if session.state == "syn_received" and flags & TcpFlags.ACK:
            session.state = "established"
        if session.state == "established" and pkt.payload:
            # Capture the first data, then close gracefully with FIN.
            session.state = "closing"
            session.first_data = pkt.payload
            self._m_completed.inc()
            self._m_reply_tcp.inc()
            self.sessions_completed.append(session)
            del sessions[key]
            return (TcpFlags.FIN | TcpFlags.ACK, 1,
                    pkt.seq + len(pkt.payload))
        if flags & (TcpFlags.FIN | TcpFlags.RST):
            # Peer teardown: forget the session.  A FIN gets its ACK; an
            # RST is dropped silently.
            del sessions[key]
            self._m_torn_down.inc()
            if flags & TcpFlags.FIN and not flags & TcpFlags.RST:
                self._m_reply_tcp.inc()
                return (TcpFlags.ACK, 1, pkt.seq + 1)
        return None

    # -- UDP -------------------------------------------------------------

    def _handle_udp(self, pkt: Packet, hp: Honeyprefix) -> Packet | None:
        if not hp.responds(pkt.dst, UDP, pkt.dport):
            return None
        if pkt.dport == DNS_PORT:
            # SERVFAIL instead of implementing a resolver an attacker could
            # abuse for reflection.  The reply is a well-formed 12-byte DNS
            # header: TXID (zero-padded when the query is shorter than two
            # bytes), SERVFAIL flags, and zeroed section counts.
            txid = pkt.payload[:2].ljust(2, b"\x00")
            payload = txid + DNS_SERVFAIL_PAYLOAD + _DNS_ZERO_COUNTS
            self._m_reply_dns.inc()
            return udp_datagram(
                pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport, payload
            )
        if pkt.dport == NTP_PORT:
            self._m_reply_ntp.inc()
            return udp_datagram(
                pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                NTP_KOD_PAYLOAD,
            )
        return None  # other UDP ports bound in future configs: mute
