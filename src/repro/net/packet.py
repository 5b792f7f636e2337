"""Packet model: IPv6 header plus ICMPv6 / TCP / UDP payloads.

Packets are small frozen dataclasses.  Only the fields the telescope and
analysis pipeline actually inspect are modeled (addresses, protocol, ports,
flags, ICMP type, payload bytes, hop limit) — this is the packet surface the
paper's capture infrastructure records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

# IANA protocol numbers.
ICMPV6 = 58
TCP = 6
UDP = 17

_PROTO_NAMES = {ICMPV6: "icmpv6", TCP: "tcp", UDP: "udp"}


class IcmpType(enum.IntEnum):
    """ICMPv6 message types used by the telescope."""

    DEST_UNREACHABLE = 1
    PACKET_TOO_BIG = 2
    TIME_EXCEEDED = 3
    ECHO_REQUEST = 128
    ECHO_REPLY = 129


class TcpFlags(enum.IntFlag):
    """TCP flag bits (subset)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


@dataclass(frozen=True, slots=True)
class Packet:
    """A single captured/emitted packet.

    ``src`` and ``dst`` are 128-bit ints (see :mod:`repro.net.addr`).
    ``timestamp`` is simulation seconds.  For ICMPv6 packets the ports carry
    (type, code); for TCP/UDP they are the transport ports.
    """

    timestamp: float
    src: int
    dst: int
    proto: int
    sport: int = 0
    dport: int = 0
    flags: int = 0
    hop_limit: int = 64
    payload: bytes = b""
    seq: int = 0
    ack: int = 0

    def __post_init__(self) -> None:
        if self.proto not in _PROTO_NAMES:
            raise ValueError(f"unsupported protocol number: {self.proto}")
        if not 0 <= self.sport <= 0xFFFF or not 0 <= self.dport <= 0xFFFF:
            raise ValueError(
                f"ports must fit in 16 bits: sport={self.sport} dport={self.dport}"
            )
        if not 0 <= self.hop_limit <= 255:
            raise ValueError(f"hop limit must fit in 8 bits: {self.hop_limit}")

    @property
    def proto_name(self) -> str:
        return _PROTO_NAMES[self.proto]

    @property
    def is_icmp_echo_request(self) -> bool:
        return self.proto == ICMPV6 and self.sport == IcmpType.ECHO_REQUEST

    @property
    def is_tcp_syn(self) -> bool:
        """True for a bare SYN (no ACK) — the start of a connection attempt."""
        return (
            self.proto == TCP
            and bool(self.flags & TcpFlags.SYN)
            and not self.flags & TcpFlags.ACK
        )

    def reply_template(self) -> "Packet":
        """Return a packet with src/dst (and ports) swapped, same timestamp.

        Honeypot responders start from this and then adjust protocol fields.
        """
        return replace(
            self,
            src=self.dst,
            dst=self.src,
            sport=self.dport,
            dport=self.sport,
            payload=b"",
        )


def icmp_echo_request(
    timestamp: float, src: int, dst: int, ident: int = 0, payload: bytes = b""
) -> Packet:
    """Build an ICMPv6 Echo Request.  ``ident`` rides in the dport field."""
    return Packet(
        timestamp=timestamp,
        src=src,
        dst=dst,
        proto=ICMPV6,
        sport=int(IcmpType.ECHO_REQUEST),
        dport=ident & 0xFFFF,
        payload=payload,
    )


def icmp_echo_reply(request: Packet, timestamp: float | None = None) -> Packet:
    """Build the Echo Reply matching ``request``."""
    if not request.is_icmp_echo_request:
        raise ValueError("icmp_echo_reply requires an ICMPv6 Echo Request")
    return Packet(
        timestamp=request.timestamp if timestamp is None else timestamp,
        src=request.dst,
        dst=request.src,
        proto=ICMPV6,
        sport=int(IcmpType.ECHO_REPLY),
        dport=request.dport,
        payload=request.payload,
    )


def tcp_segment(
    timestamp: float,
    src: int,
    dst: int,
    sport: int,
    dport: int,
    flags: TcpFlags,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
) -> Packet:
    """Build a TCP segment."""
    return Packet(
        timestamp=timestamp,
        src=src,
        dst=dst,
        proto=TCP,
        sport=sport,
        dport=dport,
        flags=int(flags),
        seq=seq,
        ack=ack,
        payload=payload,
    )


def udp_datagram(
    timestamp: float,
    src: int,
    dst: int,
    sport: int,
    dport: int,
    payload: bytes = b"",
) -> Packet:
    """Build a UDP datagram."""
    return Packet(
        timestamp=timestamp,
        src=src,
        dst=dst,
        proto=UDP,
        sport=sport,
        dport=dport,
        payload=payload,
    )
