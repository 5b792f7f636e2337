"""Configuration tables: Table 2 (honeyprefixes), Table 5 (T-Pot), and
Table 7 (Twinklenet behavior, validated by actually exercising the
responder)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.features import Feature
from repro.core.honeyprefix import (
    HoneyprefixConfig,
    IcmpMode,
    deploy_addresses,
    standard_configs,
)
from repro.core.tpot import TPOT1_CONTAINERS, TPOT2_CONTAINERS
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


@dataclass(frozen=True)
class Table2Result:
    """The 27 honeyprefix configurations."""

    configs: list[HoneyprefixConfig]

    @property
    def count(self) -> int:
        return len(self.configs)

    def by_name(self, name: str) -> HoneyprefixConfig:
        for config in self.configs:
            if config.name == name:
                return config
        raise KeyError(name)

    def render(self) -> str:
        lines = ["Table 2 — honeyprefix configurations "
                 f"({self.count} prefixes)"]
        lines.append(f"  {'name':16s} {'len':>4s} {'alias':>5s} "
                     f"{'icmp':>9s} {'domains':>8s} {'features'}")
        for c in self.configs:
            lines.append(
                f"  {c.name:16s} /{c.announce_length:<3d} "
                f"{'yes' if c.aliased else 'no':>5s} "
                f"{c.icmp_mode.value:>9s} "
                f"{','.join(c.domains) or '-':>8s} "
                f"{sorted(f.value for f in c.planned_features)}"
            )
        return "\n".join(lines)


def table2() -> Table2Result:
    """Table 2: the canonical honeyprefix configuration set."""
    return Table2Result(configs=standard_configs())


@dataclass(frozen=True)
class Table5Result:
    """T-Pot container/port matrices."""

    tpot1_ports: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    tpot2_ports: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]

    def render(self) -> str:
        lines = ["Table 5 — T-Pot containers and ports"]
        names = sorted(set(self.tpot1_ports) | set(self.tpot2_ports))
        for name in names:
            one = "x" if name in self.tpot1_ports else " "
            two = "x" if name in self.tpot2_ports else " "
            ports = self.tpot1_ports.get(name) or self.tpot2_ports.get(name)
            lines.append(
                f"  {name:16s} TPot1[{one}] TPot2[{two}] "
                f"tcp={list(ports[0])} udp={list(ports[1])}"
            )
        return "\n".join(lines)


def table5() -> Table5Result:
    """Table 5: the deployed container port surfaces."""
    return Table5Result(
        tpot1_ports={
            c.name: (c.tcp_ports, c.udp_ports) for c in TPOT1_CONTAINERS
        },
        tpot2_ports={
            c.name: (c.tcp_ports, c.udp_ports) for c in TPOT2_CONTAINERS
        },
    )


@dataclass(frozen=True)
class Table7Result:
    """Twinklenet request->response behavior, observed by exercising it."""

    interactions: dict[str, str]

    def render(self) -> str:
        lines = ["Table 7 — Twinklenet protocol interactions (observed)"]
        for request, response in self.interactions.items():
            lines.append(f"  {request:34s} -> {response}")
        return "\n".join(lines)


def table7() -> Table7Result:
    """Table 7: drive a Twinklenet instance through every interaction."""
    prefix = IPv6Prefix.parse("2001:db8:77::/48")
    config = HoneyprefixConfig(
        name="probe", icmp_mode=IcmpMode.ADDRESSES,
        tcp_services=(("web", (80,)),), udp_ports=(53, 123),
    )
    hp = deploy_addresses(config, prefix, rng=7)
    hp.record(0.0, Feature.BGP)
    twinklenet = Twinklenet(TwinklenetConfig())
    src = IPv6Prefix.parse("2001:db8:aaaa::/48").network | 9

    interactions: dict[str, str] = {}

    def observe(label: str, pkt) -> None:
        replies = twinklenet.handle(pkt, hp)
        if not replies:
            interactions[label] = "(silence)"
            return
        out = replies[-1]
        if out.proto == ICMPV6 and out.sport == int(IcmpType.ECHO_REPLY):
            interactions[label] = "ICMPv6 Echo reply"
        elif out.proto == TCP:
            flags = TcpFlags(out.flags)
            interactions[label] = f"TCP {flags!s}".replace("TcpFlags.", "")
        elif out.proto == UDP and out.payload.endswith(NTP_KOD_PAYLOAD):
            interactions[label] = "NTP kiss-of-death (DENY)"
        elif out.proto == UDP and DNS_SERVFAIL_PAYLOAD in out.payload:
            interactions[label] = "DNS SERVFAIL"
        else:
            interactions[label] = f"{out.proto_name} response"

    icmp_addr = hp.prefix.network | 1
    tcp_addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)
    udp_addr = next(a for a, b in hp.responsive.items() if (UDP, 53) in b)

    observe("ICMPv6 echo request",
            icmp_echo_request(1.0, src, icmp_addr))
    observe("TCP SYN to open port",
            tcp_segment(2.0, src, tcp_addr, 5000, 80, TcpFlags.SYN))
    observe("TCP data on open connection",
            tcp_segment(3.0, src, tcp_addr, 5000, 80,
                        TcpFlags.PSH | TcpFlags.ACK, seq=1,
                        payload=b"GET / HTTP/1.1\r\n"))
    observe("other TCP packet to open port",
            tcp_segment(4.0, src, tcp_addr, 6000, 80, TcpFlags.ACK))
    observe("any DNS query (UDP/53)",
            udp_datagram(5.0, src, udp_addr, 7000, 53, b"\x12\x34query"))
    observe("any NTP client packet (UDP/123)",
            udp_datagram(6.0, src, udp_addr, 8000, 123, b"\x23" + b"\x00" * 47))
    observe("TCP SYN to closed port",
            tcp_segment(7.0, src, tcp_addr, 9000, 8080, TcpFlags.SYN))
    observe("ICMPv6 echo to dark address",
            icmp_echo_request(8.0, src, hp.prefix.network | 0xDEAD))
    return Table7Result(interactions=interactions)
