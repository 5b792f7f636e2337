"""The honeypots' ``handle_batch`` against ``handle``, and their state
machines under probe traffic.

``Twinklenet.handle_batch`` and ``DnatGateway.handle_batch`` are what the
benchmark's traced repeat times; the day loop calls neither.  Each runs
``handle`` over the rows of a probe batch, so both must leave replies,
state and counters exactly as feeding the same probes one by one
through ``handle`` does.  Twinklenet gets each packet's honeyprefix with
it.  Traffic is randomized per test (addresses, ports, protocols, batch
boundaries), every comparison is exact (replies as full ``Packet``
values in order, session tables, NAT flow tables, metric snapshots), and
the session table's FIFO and idle eviction are checked on the way.
"""

import itertools

import numpy as np
import pytest

from repro.core.honeyprefix import HoneyprefixConfig, IcmpMode, deploy_addresses
from repro.core.tpot import DnatGateway, TPOT1_CONTAINERS, TPotInstance
from repro.core.twinklenet import (
    DNS_SERVFAIL_PAYLOAD,
    NTP_KOD_PAYLOAD,
    Twinklenet,
    TwinklenetConfig,
)
from repro.net.addr import IPv6Prefix
from repro.net.batch import PROBE_UDP_PAYLOAD, PacketBatch
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

PREFIX = IPv6Prefix.parse("2001:db8:200::/48")
ALIASED_PREFIX = IPv6Prefix.parse("2001:db8:201::/48")
SECOND_PREFIX = IPv6Prefix.parse("2001:db8:202::/48")
TPOT_PREFIX = IPv6Prefix.parse("2001:db8:300::/48")
SRC_NET = IPv6Prefix.parse("2001:db8:f00::/48").network


def _honeyprefixes(**config_kwargs):
    """One bound and one aliased honeyprefix, as one Twinklenet serves
    them."""
    defaults = dict(
        name="hp", icmp_mode=IcmpMode.ADDRESSES,
        tcp_services=(("web", (80, 443)),), udp_ports=(53, 123, 9999),
    )
    defaults.update(config_kwargs)
    bound = deploy_addresses(
        HoneyprefixConfig(**defaults), PREFIX, np.random.default_rng(99))
    aliased = deploy_addresses(
        HoneyprefixConfig(name="hp_alias", aliased=True,
                          icmp_mode=IcmpMode.FULL),
        ALIASED_PREFIX, np.random.default_rng(99))
    return bound, aliased


def _make_pot():
    """A Twinklenet and its private metrics registry."""
    registry = MetricsRegistry()
    with use_registry(registry):
        pot = Twinklenet(TwinklenetConfig(session_timeout=50.0,
                                          max_sessions=64))
    return pot, registry


def _probes(pkts):
    """``pkts`` under probe semantics: what a batch row materializes to."""
    return list(PacketBatch.from_packets(pkts).iter_packets())


def _route(hps, dst):
    return next(hp for hp in hps if dst in hp.prefix)


def _run_scalar(pot, hps, pkts):
    """Every probe through ``handle`` with its honeyprefix; the replies."""
    return [reply for pkt in _probes(pkts)
            for reply in pot.handle(pkt, _route(hps, pkt.dst))]


def _run_batch(pot, hps, pkts):
    """Each maximal run of packets under one honeyprefix through
    ``handle_batch``, in arrival order; the replies."""
    replies = []
    for hp, run in itertools.groupby(pkts, lambda p: _route(hps, p.dst)):
        replies += pot.handle_batch(PacketBatch.from_packets(list(run)), hp)
    return replies


def _random_traffic(rng, hp, n):
    """A randomized probe mix: echo requests, SYNs to open, re-used and
    closed ports, DNS / NTP / mute-port / closed-port UDP, dark
    addresses, both prefixes."""
    tcp_addrs = [a for a, b in hp.responsive.items() if (TCP, 80) in b]
    udp_addrs = [a for a, b in hp.responsive.items() if (UDP, 53) in b]
    icmp_addrs = hp.icmp_addresses()
    pkts = []
    ts = 0.0
    for _ in range(n):
        ts += float(rng.exponential(0.5))
        src = SRC_NET | int(rng.integers(1, 40))
        kind = int(rng.integers(0, 8))
        if kind == 0:
            dst = int(rng.choice(icmp_addrs)) if icmp_addrs else PREFIX.network | 7
            pkts.append(icmp_echo_request(ts, src, dst))
        elif kind == 1:
            pkts.append(icmp_echo_request(
                ts, src, ALIASED_PREFIX.network | int(rng.integers(0, 1 << 20))))
        elif kind == 2:
            pkts.append(icmp_echo_request(ts, src, PREFIX.network | 0xDEAD))
        elif kind in (3, 4):
            dst = int(rng.choice(tcp_addrs))
            sport = 5000 + int(rng.integers(0, 6))
            pkts.append(tcp_segment(ts, src, dst, sport, 80, TcpFlags.SYN))
        elif kind == 5:
            dst = int(rng.choice(udp_addrs))
            port = int(rng.choice([53, 123, 9999, 4444]))
            pkts.append(udp_datagram(ts, src, dst, 3333, port))
        elif kind == 6:
            pkts.append(udp_datagram(ts, src, PREFIX.network | 0xBEEF, 3333,
                                     53))
        else:
            pkts.append(tcp_segment(ts, src, PREFIX.network | 0xC0DE,
                                    6000, 81, TcpFlags.SYN))
    return pkts


def _state(pot):
    return (pot._sessions, pot.sessions_completed, pot.sessions_evicted,
            pot.rx_count, pot.tx_count, pot._last_sweep)


class TestTwinklenetEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_mixed_traffic(self, seed):
        rng = np.random.default_rng(seed)
        hps = _honeyprefixes()
        pot_s, reg_s = _make_pot()
        pot_b, reg_b = _make_pot()
        pkts = _random_traffic(rng, hps[0], 400)
        out_s = _run_scalar(pot_s, hps, pkts)
        assert {p.proto for p in out_s} == {ICMPV6, TCP, UDP}
        assert _run_batch(pot_b, hps, pkts) == out_s
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    @pytest.mark.parametrize("seed", [10, 11])
    def test_split_into_many_batches(self, seed):
        """Cutting the same stream into arbitrary batch boundaries changes
        nothing: state carries across handle_batch calls."""
        rng = np.random.default_rng(seed)
        hps = _honeyprefixes()
        pot_s, reg_s = _make_pot()
        pot_b, reg_b = _make_pot()
        pkts = _random_traffic(rng, hps[0], 300)
        out_s = _run_scalar(pot_s, hps, pkts)
        out_b = []
        i = 0
        while i < len(pkts):
            step = int(rng.integers(1, 40))
            out_b += _run_batch(pot_b, hps, pkts[i:i + step])
            i += step
        assert out_b == out_s
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_idle_eviction_straddles_batch_gap(self):
        """Sessions opened in one batch are sweep-evicted by a later batch
        exactly when the scalar path would evict them."""
        hps = _honeyprefixes()
        pot_s, _ = _make_pot()
        pot_b, _ = _make_pot()
        addr = next(a for a, b in hps[0].responsive.items() if (TCP, 80) in b)
        early = [tcp_segment(1.0 + i, SRC_NET | (i + 1), addr, 5000, 80,
                             TcpFlags.SYN) for i in range(5)]
        # timeout is 50.0: the late packets trip a sweep that evicts the
        # early sessions (idle > timeout) mid-stream.
        late = [tcp_segment(200.0 + i, SRC_NET | 99, addr, 6000 + i, 80,
                            TcpFlags.SYN) for i in range(3)]
        out_s = _run_scalar(pot_s, hps, early + late)
        out_b = _run_batch(pot_b, hps, early) + _run_batch(pot_b, hps, late)
        assert pot_b.sessions_evicted == pot_s.sessions_evicted == 5
        assert _state(pot_b) == _state(pot_s)
        assert out_b == out_s

    def test_max_sessions_cap_preserves_eviction_order(self):
        """Overflowing the cap recycles oldest-inserted sessions in the
        same order on both paths, and a re-SYN keeps its key's place."""
        hps = _honeyprefixes()
        pot_s, _ = _make_pot()
        pot_b, _ = _make_pot()
        pot_s.config.max_sessions = 8
        pot_b.config.max_sessions = 8
        addr = next(a for a, b in hps[0].responsive.items() if (TCP, 80) in b)
        pkts = [tcp_segment(1.0 + 0.01 * i, SRC_NET | (i % 20 + 1), addr,
                            7000 + i % 3, 80, TcpFlags.SYN)
                for i in range(40)]
        out_s = _run_scalar(pot_s, hps, pkts)
        out_b = _run_batch(pot_b, hps, pkts)
        assert list(pot_b._sessions) == list(pot_s._sessions)  # key order
        assert _state(pot_b) == _state(pot_s)
        assert out_b == out_s
        # 60 distinct keys cycle through: only the last eight inserted
        # stay, oldest first.
        assert [(peer & 0xFF, port) for peer, port, _, _ in pot_b._sessions] \
            == [(i % 20 + 1, 7000 + i % 3) for i in range(32, 40)]

    def test_cap_flood_overflow_segment(self):
        """A single all-SYN batch with more distinct new keys than the
        whole table holds (scanner flood) leaves only the flood's last
        keys, and the next batch recycles the oldest of those."""
        hps = _honeyprefixes()
        pot_s, reg_s = _make_pot()
        pot_b, reg_b = _make_pot()
        pot_s.config.max_sessions = 16
        pot_b.config.max_sessions = 16
        addr = next(a for a, b in hps[0].responsive.items() if (TCP, 80) in b)

        def syn(ts, host, sport):
            return tcp_segment(ts, SRC_NET | host, addr, sport, 80,
                               TcpFlags.SYN)

        prefill = [syn(1.0 + 0.01 * i, i + 1, 5000) for i in range(10)]
        flood = [syn(2.0 + 0.001 * i, 500 + i, 5000) for i in range(50)]
        # The follow-up batch evicts by insertion sequence, so it can only
        # match if the flood left the exact scalar bookkeeping behind.
        after = [syn(3.0 + 0.01 * i, 900 + i, 5000) for i in range(4)]
        out_s, out_b = [], []
        hosts = []
        for chunk in (prefill, flood, after):
            out_s += _run_scalar(pot_s, hps, chunk)
            out_b += _run_batch(pot_b, hps, chunk)
            assert list(pot_b._sessions) == list(pot_s._sessions)
            assert _state(pot_b) == _state(pot_s)
            hosts.append([peer & 0xFFFF for peer, _, _, _ in pot_b._sessions])
        assert hosts[1] == list(range(534, 550))
        assert hosts[2] == [*range(538, 550), *range(900, 904)]
        assert pot_b.sessions_evicted == 10 + 34 + 4
        assert out_b == out_s
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_cap_churn_randomized(self, seed):
        """Sustained all-SYN churn at a small cap with recycled keys,
        split at random batch boundaries, stays state- and reply-exact."""
        rng = np.random.default_rng(seed)
        hps = _honeyprefixes()
        pot_s, reg_s = _make_pot()
        pot_b, reg_b = _make_pot()
        pot_s.config.max_sessions = 12
        pot_b.config.max_sessions = 12
        addr = next(a for a, b in hps[0].responsive.items() if (TCP, 80) in b)
        pkts = [
            tcp_segment(1.0 + 0.01 * i, SRC_NET | int(rng.integers(1, 30)),
                        addr, 5000 + int(rng.integers(0, 2)), 80,
                        TcpFlags.SYN)
            for i in range(400)
        ]
        out_s = _run_scalar(pot_s, hps, pkts)
        out_b = []
        i = 0
        while i < len(pkts):
            step = int(rng.integers(1, 60))
            out_b += _run_batch(pot_b, hps, pkts[i:i + step])
            i += step
        assert list(pot_b._sessions) == list(pot_s._sessions)
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]
        assert out_b == out_s

    def test_two_honeyprefixes_share_one_session_table(self):
        """One Twinklenet serves two bound honeyprefixes in turn.  Their
        sessions share one table and one ``max_sessions`` FIFO: the second
        prefix's SYNs recycle the first's oldest sessions, a later re-SYN
        on the first re-inserts an evicted key and reopens a live one, and
        rows that alternate between the prefixes interleave their inserts
        — identically on both paths."""
        first, _ = _honeyprefixes()
        second = deploy_addresses(
            HoneyprefixConfig(name="hp2", icmp_mode=IcmpMode.ADDRESSES,
                              tcp_services=(("web", (80,)),)),
            SECOND_PREFIX, np.random.default_rng(98))
        hps = (first, second)
        pot_s, reg_s = _make_pot()
        pot_b, reg_b = _make_pot()
        pot_s.config.max_sessions = 12
        pot_b.config.max_sessions = 12
        addr_a = next(a for a, b in first.responsive.items() if (TCP, 80) in b)
        addr_b = next(a for a, b in second.responsive.items()
                      if (TCP, 80) in b)

        def syn(ts, host, addr):
            return tcp_segment(ts, SRC_NET | host, addr, 5000, 80,
                               TcpFlags.SYN)

        fill_a = [syn(1.0 + 0.01 * i, i + 1, addr_a) for i in range(10)]
        # Eight keys on the second prefix: the table holds 12, so hosts
        # 1..6 of the first prefix are recycled.
        fill_b = [syn(2.0 + 0.01 * i, i + 1, addr_b) for i in range(8)]
        # Host 1 was evicted (re-insert, recycling again); host 9 is live
        # (reopen in place).
        back_a = [syn(3.0, 1, addr_a), syn(3.01, 9, addr_a)]
        alternating = [syn(4.0 + 0.01 * i, 40 + i,
                           addr_a if i % 3 else addr_b) for i in range(9)]
        out_s, out_b = [], []
        for chunk in (fill_a, fill_b, back_a, alternating):
            out_s += _run_scalar(pot_s, hps, chunk)
            out_b += _run_batch(pot_b, hps, chunk)
            assert list(pot_b._sessions) == list(pot_s._sessions)
            assert _state(pot_b) == _state(pot_s)
        locals_ = {local for (_, _, local, _) in pot_b._sessions}
        assert locals_ == {addr_a, addr_b}
        assert len(pot_b._sessions) == 12
        assert pot_b.sessions_evicted == pot_s.sessions_evicted > 0
        assert out_b == out_s
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_dns_servfail_exact_bytes(self):
        """A probe query's two payload bytes come back as the TXID of a
        12-byte SERVFAIL header."""
        hp, _ = _honeyprefixes()
        pot_b, _ = _make_pot()
        addr = next(a for a, b in hp.responsive.items() if (UDP, 53) in b)
        query = udp_datagram(1.0, SRC_NET | 1, addr, 3333, 53)
        (reply,) = pot_b.handle_batch(PacketBatch.from_packets([query]), hp)
        assert reply.payload == (
            PROBE_UDP_PAYLOAD + DNS_SERVFAIL_PAYLOAD + b"\x00\x00" * 4)
        assert (reply.src, reply.dport) == (addr, 3333)

    def test_ntp_kod_exact_bytes(self):
        hp, _ = _honeyprefixes()
        pot_b, _ = _make_pot()
        addr = next(a for a, b in hp.responsive.items() if (UDP, 123) in b)
        probe = udp_datagram(1.0, SRC_NET | 1, addr, 123, 123)
        (reply,) = pot_b.handle_batch(PacketBatch.from_packets([probe]), hp)
        assert reply.payload == NTP_KOD_PAYLOAD == b"\x24\x00\x00\x00DENY"

    def test_aliased_icmp_everywhere_bound_elsewhere(self):
        hps = _honeyprefixes()
        pot_b, _ = _make_pot()
        deep = ALIASED_PREFIX.network | 0xABCDEF
        pkts = _run_batch(pot_b, hps, [
            icmp_echo_request(1.0, SRC_NET | 1, deep),
            icmp_echo_request(1.1, SRC_NET | 1, PREFIX.network | 0xDEAD),
        ])
        assert len(pkts) == 1
        assert pkts[0].src == deep
        assert pkts[0].sport == int(IcmpType.ECHO_REPLY)


def _make_gateway():
    registry = MetricsRegistry()
    with use_registry(registry):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        gateway = DnatGateway(TPOT_PREFIX, tpot)
    return gateway, tpot, registry


def _gateway_scalar(gateway, pkts):
    return [reply for pkt in _probes(pkts) for reply in gateway.handle(pkt)]


def _gateway_batch(gateway, pkts):
    return gateway.handle_batch(PacketBatch.from_packets(pkts))


def _random_tpot_traffic(rng, n):
    pkts = []
    ts = 0.0
    for _ in range(n):
        ts += float(rng.exponential(0.3))
        src = SRC_NET | int(rng.integers(1, 30))
        dst = TPOT_PREFIX.network | int(rng.integers(0, 1 << 16))
        kind = int(rng.integers(0, 6))
        if kind == 0:
            pkts.append(icmp_echo_request(ts, src, dst))
        elif kind in (1, 2, 3):
            port = int(rng.choice([22, 80, 443, 25, 9, 9200]))
            pkts.append(tcp_segment(ts, src, dst, 5000 + int(rng.integers(0, 4)),
                                    port, TcpFlags.SYN))
        else:
            port = int(rng.choice([53, 69, 161, 9, 5000]))
            pkts.append(udp_datagram(ts, src, dst, 4000, port))
    return pkts


def _gateway_state(gw):
    return (list(gw._flows.items()), gw._next_port, gw.rx_count,
            gw.tx_count)


class TestTPotEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_probe_traffic(self, seed):
        rng = np.random.default_rng(seed)
        gw_s, _, reg_s = _make_gateway()
        gw_b, _, reg_b = _make_gateway()
        pkts = _random_tpot_traffic(rng, 300)
        out_s = _gateway_scalar(gw_s, pkts)
        assert _gateway_batch(gw_b, pkts) == out_s
        assert _gateway_state(gw_b) == _gateway_state(gw_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_port_allocation_order(self):
        """Flows get sequential ports in first-packet order."""
        rng = np.random.default_rng(9)
        gw_s, _, _ = _make_gateway()
        gw_b, _, _ = _make_gateway()
        pkts = []
        for i in range(30):
            src = SRC_NET | (i % 5 + 1)
            dst = TPOT_PREFIX.network | (i % 3 + 1)
            pkts.append(tcp_segment(1.0 + i * 0.1, src, dst, 5000 + i % 2,
                                    22, TcpFlags.SYN))
        _gateway_scalar(gw_s, pkts)
        _gateway_batch(gw_b, pkts)
        flows = list(gw_b._flows.items())
        assert flows == list(gw_s._flows.items())
        assert gw_b._next_port == gw_s._next_port
        assert [port for _, port in flows] == list(
            range(32_768, 32_768 + len(gw_b._flows)))
        # First-packet order: the 30 packets are 30 distinct flows.
        assert [(src & 0xFF, dst & 0xFF, sport, tcp)
                for (src, dst, sport, tcp), _ in flows] == [
            (i % 5 + 1, i % 3 + 1, 5000 + i % 2, True) for i in range(30)]

    def test_port_wrap_reuses_shared_ports(self):
        """Allocation wraps from 60999 back to 32768."""
        gw_s, _, _ = _make_gateway()
        gw_b, _, _ = _make_gateway()
        gw_s._next_port = gw_b._next_port = 60_995
        pkts = [tcp_segment(1.0 + i * 0.1, SRC_NET | (i + 1),
                            TPOT_PREFIX.network | 1, 5000, 22, TcpFlags.SYN)
                for i in range(10)]
        _gateway_scalar(gw_s, pkts)
        _gateway_batch(gw_b, pkts)
        expected = [*range(60_995, 61_000), *range(32_768, 32_773)]
        for gw in (gw_s, gw_b):
            assert list(gw._flows.values()) == expected
            assert gw._next_port == 32_773
        assert list(gw_b._flows.items()) == list(gw_s._flows.items())
