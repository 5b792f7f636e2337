"""IPv6 data-plane substrate: addresses, packets, packet batches and
libpcap capture files.

The telescope and scanner ecosystem are built on this package.  Addresses
are int-backed (128-bit Python ints) with helpers to aggregate to the /48
and /64 granularities the paper uses throughout, packets are lightweight
frozen dataclasses, and captures export as standard libpcap files.
"""

from repro.net.addr import (
    IPv6Address,
    IPv6Prefix,
    aggregate,
    aggregate_sources,
    parse_address,
    parse_prefix,
)
from repro.net.packet import (
    ICMPV6,
    TCP,
    UDP,
    IcmpType,
    Packet,
    TcpFlags,
    icmp_echo_reply,
    icmp_echo_request,
    tcp_segment,
    udp_datagram,
)
from repro.net.realpcap import read_pcap, write_pcap

__all__ = [
    "IPv6Address",
    "IPv6Prefix",
    "aggregate",
    "aggregate_sources",
    "parse_address",
    "parse_prefix",
    "Packet",
    "ICMPV6",
    "TCP",
    "UDP",
    "IcmpType",
    "TcpFlags",
    "icmp_echo_request",
    "icmp_echo_reply",
    "tcp_segment",
    "udp_datagram",
    "write_pcap",
    "read_pcap",
]
