"""Standard libpcap interop: export/import captures as real ``.pcap`` files.

This module serializes :class:`~repro.net.packet.Packet` objects as genuine
Ethernet/IPv6/{ICMPv6,TCP,UDP} frames — correct header layouts and real
one's-complement checksums over the IPv6 pseudo-header — inside a classic
libpcap container, so simulated telescope captures open directly in
Wireshark, tcpdump, or Zeek.  The reader parses such files back into
:class:`~repro.net.packet.Packet` objects (and tolerates/ignores non-IPv6
frames in foreign captures).
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator

from repro.net.packet import ICMPV6, TCP, UDP, Packet

#: Classic pcap magic (microsecond timestamps, little-endian).
PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
ETHERTYPE_IPV6 = 0x86DD

#: Locally administered placeholder MACs for the synthetic ethernet layer.
_SRC_MAC = bytes.fromhex("020000000001")
_DST_MAC = bytes.fromhex("020000000002")

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_IPV6_HEADER = struct.Struct("!IHBB16s16s")


def _checksum(data: bytes) -> int:
    """RFC 1071 one's-complement sum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _pseudo_header(src: bytes, dst: bytes, length: int,
                   next_header: int) -> bytes:
    return src + dst + struct.pack("!II", length, next_header)


def _transport_bytes(pkt: Packet) -> bytes:
    """Serialize the transport layer with a valid checksum."""
    src = pkt.src.to_bytes(16, "big")
    dst = pkt.dst.to_bytes(16, "big")
    if pkt.proto == ICMPV6:
        # Echo-style layout: type, code, checksum, identifier, sequence.
        header = struct.pack("!BBHHH", pkt.sport & 0xFF, 0, 0,
                             pkt.dport, pkt.seq & 0xFFFF)
        body = header + pkt.payload
        checksum = _checksum(
            _pseudo_header(src, dst, len(body), ICMPV6) + body
        )
        return body[:2] + struct.pack("!H", checksum) + body[4:]
    if pkt.proto == TCP:
        offset_flags = (5 << 12) | (pkt.flags & 0x3F)
        header = struct.pack("!HHIIHHHH", pkt.sport, pkt.dport,
                             pkt.seq & 0xFFFFFFFF, pkt.ack & 0xFFFFFFFF,
                             offset_flags, 0xFFFF, 0, 0)
        body = header + pkt.payload
        checksum = _checksum(_pseudo_header(src, dst, len(body), TCP) + body)
        return body[:16] + struct.pack("!H", checksum) + body[18:]
    # UDP
    length = 8 + len(pkt.payload)
    header = struct.pack("!HHHH", pkt.sport, pkt.dport, length, 0)
    body = header + pkt.payload
    checksum = _checksum(_pseudo_header(src, dst, length, UDP) + body)
    if checksum == 0:
        checksum = 0xFFFF  # UDP: zero means "no checksum"
    return body[:6] + struct.pack("!H", checksum) + body[8:]


def serialize_frame(pkt: Packet) -> bytes:
    """One packet as a full Ethernet/IPv6 frame."""
    transport = _transport_bytes(pkt)
    ipv6 = _IPV6_HEADER.pack(
        6 << 28,                     # version 6, tc 0, flow label 0
        len(transport),
        pkt.proto,
        pkt.hop_limit,
        pkt.src.to_bytes(16, "big"),
        pkt.dst.to_bytes(16, "big"),
    )
    ethernet = _DST_MAC + _SRC_MAC + struct.pack("!H", ETHERTYPE_IPV6)
    return ethernet + ipv6 + transport


def write_pcap(path_or_stream, packets: Iterable[Packet]) -> int:
    """Write packets as a classic libpcap file; returns the packet count."""
    stream: BinaryIO
    owns = False
    if hasattr(path_or_stream, "write"):
        stream = path_or_stream
    else:
        stream = open(path_or_stream, "wb")
        owns = True
    try:
        stream.write(_GLOBAL_HEADER.pack(
            PCAP_MAGIC, 2, 4, 0, 0, 65_535, LINKTYPE_ETHERNET
        ))
        count = 0
        for pkt in packets:
            frame = serialize_frame(pkt)
            seconds = int(pkt.timestamp)
            micros = int(round((pkt.timestamp - seconds) * 1e6))
            stream.write(_RECORD_HEADER.pack(
                seconds, micros, len(frame), len(frame)
            ))
            stream.write(frame)
            count += 1
        return count
    finally:
        if owns:
            stream.close()


def parse_frame(frame: bytes, timestamp: float) -> Packet | None:
    """Parse one Ethernet frame back into a Packet (None for non-IPv6 or
    unsupported transports)."""
    if len(frame) < 14 + 40:
        return None
    ethertype = struct.unpack_from("!H", frame, 12)[0]
    if ethertype != ETHERTYPE_IPV6:
        return None
    (_vtf, payload_len, next_header, hop_limit,
     src, dst) = _IPV6_HEADER.unpack_from(frame, 14)
    body = frame[14 + 40: 14 + 40 + payload_len]
    src_int = int.from_bytes(src, "big")
    dst_int = int.from_bytes(dst, "big")
    if next_header == ICMPV6 and len(body) >= 8:
        icmp_type, _code, _ck, ident, seq = struct.unpack_from("!BBHHH",
                                                               body)
        return Packet(
            timestamp=timestamp, src=src_int, dst=dst_int, proto=ICMPV6,
            sport=icmp_type, dport=ident, seq=seq,
            hop_limit=hop_limit, payload=body[8:],
        )
    if next_header == TCP and len(body) >= 20:
        (sport, dport, seq, ack, offset_flags, _win, _ck,
         _urg) = struct.unpack_from("!HHIIHHHH", body)
        data_offset = (offset_flags >> 12) * 4
        return Packet(
            timestamp=timestamp, src=src_int, dst=dst_int, proto=TCP,
            sport=sport, dport=dport, seq=seq, ack=ack,
            flags=offset_flags & 0x3F, hop_limit=hop_limit,
            payload=body[data_offset:],
        )
    if next_header == UDP and len(body) >= 8:
        sport, dport, length, _ck = struct.unpack_from("!HHHH", body)
        return Packet(
            timestamp=timestamp, src=src_int, dst=dst_int, proto=UDP,
            sport=sport, dport=dport, hop_limit=hop_limit,
            payload=body[8:length] if length >= 8 else b"",
        )
    return None


def read_pcap(path_or_stream) -> Iterator[Packet]:
    """Read a classic libpcap file, yielding the parseable IPv6 packets."""
    stream: BinaryIO
    owns = False
    if hasattr(path_or_stream, "read"):
        stream = path_or_stream
    else:
        stream = open(path_or_stream, "rb")
        owns = True
    try:
        header = stream.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError("truncated pcap global header")
        magic = struct.unpack_from("<I", header)[0]
        if magic != PCAP_MAGIC:
            raise ValueError(f"unsupported pcap magic: {magic:#x}")
        linktype = _GLOBAL_HEADER.unpack(header)[6]
        if linktype != LINKTYPE_ETHERNET:
            raise ValueError(f"unsupported link type: {linktype}")
        while True:
            record = stream.read(_RECORD_HEADER.size)
            if not record:
                return
            if len(record) < _RECORD_HEADER.size:
                raise ValueError("truncated pcap record header")
            seconds, micros, caplen, _origlen = _RECORD_HEADER.unpack(record)
            frame = stream.read(caplen)
            if len(frame) < caplen:
                raise ValueError("truncated pcap frame")
            pkt = parse_frame(frame, seconds + micros / 1e6)
            if pkt is not None:
                yield pkt
    finally:
        if owns:
            stream.close()


def verify_checksums(frame: bytes) -> bool:
    """Validate the transport checksum of a serialized IPv6 frame."""
    if len(frame) < 54 or struct.unpack_from("!H", frame, 12)[0] != \
            ETHERTYPE_IPV6:
        return False
    (_vtf, payload_len, next_header, _hop,
     src, dst) = _IPV6_HEADER.unpack_from(frame, 14)
    body = frame[54: 54 + payload_len]
    pseudo = _pseudo_header(src, dst, len(body), next_header)
    if next_header == UDP:
        # Zero out the checksum field and recompute.
        stored = struct.unpack_from("!H", body, 6)[0]
        cleared = body[:6] + b"\x00\x00" + body[8:]
        computed = _checksum(pseudo + cleared)
        if computed == 0:
            computed = 0xFFFF
        return stored == computed
    if next_header == TCP:
        stored = struct.unpack_from("!H", body, 16)[0]
        cleared = body[:16] + b"\x00\x00" + body[18:]
        return stored == _checksum(pseudo + cleared)
    if next_header == ICMPV6:
        stored = struct.unpack_from("!H", body, 2)[0]
        cleared = body[:2] + b"\x00\x00" + body[4:]
        return stored == _checksum(pseudo + cleared)
    return False
