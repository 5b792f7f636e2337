"""Tests for the struct-of-arrays PacketBatch emission format."""

import numpy as np
import pytest

from repro.analysis.records import PacketRecords
from repro.net.addr import IPv6Prefix, aggregate
from repro.net.batch import PROBE_UDP_PAYLOAD, PacketBatch, probe_batch
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

PREFIX = IPv6Prefix.parse("2001:db8:40::/48")


def _sample_packets():
    src = 0x2620_0000 << 96 | 0xABCD
    return [
        icmp_echo_request(1.0, src, PREFIX.network | 1),
        tcp_segment(2.0, src, PREFIX.network | 2, 40_000, 443, TcpFlags.SYN),
        udp_datagram(3.0, src, PREFIX.network | 3, 40_001, 53,
                     payload=PROBE_UDP_PAYLOAD),
    ]


class TestConstruction:
    def test_from_packets_roundtrip(self):
        packets = _sample_packets()
        batch = PacketBatch.from_packets(packets)
        assert len(batch) == 3
        for original, materialized in zip(packets, batch.iter_packets()):
            assert materialized == original

    def test_from_columns_coerces_dtypes(self):
        batch = PacketBatch.from_columns(
            [1.0], [2], [3], [4], [5], [ICMPV6], [128], [0]
        )
        assert batch.ts.dtype == np.float64
        assert batch.src_hi.dtype == np.uint64
        assert batch.dst_lo.dtype == np.uint64
        assert batch.proto.dtype == np.uint8
        assert batch.sport.dtype == np.uint16
        assert batch.dport.dtype == np.uint16

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PacketBatch.from_columns(
                [1.0, 2.0], [0], [0], [0], [0], [6], [1], [2]
            )

    def test_empty(self):
        batch = PacketBatch.empty()
        assert len(batch) == 0
        assert list(batch.iter_packets()) == []


class TestConcatSelect:
    def test_concat_preserves_order(self):
        packets = _sample_packets()
        a = PacketBatch.from_packets(packets[:2])
        b = PacketBatch.from_packets(packets[2:])
        merged = PacketBatch.concat([a, b])
        assert [p.timestamp for p in merged.iter_packets()] == [1.0, 2.0, 3.0]

    def test_concat_single_part_is_identity(self):
        a = PacketBatch.from_packets(_sample_packets())
        assert PacketBatch.concat([a]) is a

    def test_concat_empty_list(self):
        assert len(PacketBatch.concat([])) == 0

    def test_select_mask(self):
        batch = PacketBatch.from_packets(_sample_packets())
        tcp_only = batch.select(batch.proto == np.uint8(TCP))
        assert len(tcp_only) == 1
        assert tcp_only.packet_at(0).dport == 443

    def test_mask_dst_in(self):
        packets = _sample_packets() + [
            icmp_echo_request(4.0, 1, IPv6Prefix.parse("2001:db8:41::/48")
                              .network | 9),
        ]
        batch = PacketBatch.from_packets(packets)
        mask = batch.mask_dst_in(PREFIX)
        assert mask.tolist() == [True, True, True, False]

    @pytest.mark.parametrize("table", [PacketBatch, PacketRecords])
    @pytest.mark.parametrize("seed", range(3))
    def test_mask_dst_in_every_length(self, table, seed):
        """Against ``address in prefix`` at every length /0-/128, with
        destinations one bit-flip away from the prefix's base address:
        the one-compare path (/1-/64) and the two-half path alike."""
        rng = np.random.default_rng(seed)
        base = int.from_bytes(rng.bytes(16), "big")
        dsts = [base] + [base ^ (1 << bit) for bit in range(128)]
        batch = table.from_packets(
            [icmp_echo_request(0.0, 1, dst) for dst in dsts])
        for length in range(129):
            prefix = IPv6Prefix(aggregate(base, length), length)
            assert batch.mask_dst_in(prefix).tolist() == [
                dst in prefix for dst in dsts], length


class TestProbeSemantics:
    def test_packet_at_tcp_is_bare_syn(self):
        batch = PacketBatch.from_columns(
            [1.0], [0], [1], [0], [2], [TCP], [40_000], [443]
        )
        pkt = batch.packet_at(0)
        assert pkt.flags == TcpFlags.SYN
        assert pkt.payload == b""

    def test_packet_at_udp_carries_probe_payload(self):
        batch = PacketBatch.from_columns(
            [1.0], [0], [1], [0], [2], [UDP], [40_000], [53]
        )
        assert batch.packet_at(0).payload == PROBE_UDP_PAYLOAD

    def test_packet_at_icmp_is_echo_request(self):
        batch = PacketBatch.from_columns(
            [1.0], [0], [1], [0], [2], [ICMPV6],
            [int(IcmpType.ECHO_REQUEST)], [0]
        )
        assert batch.packet_at(0).is_icmp_echo_request

    def test_probe_batch_normalizes_icmp_ports(self):
        batch = probe_batch(
            ts=[1.0, 2.0], src_hi=[0, 0], src_lo=[1, 1],
            dst_hi=[0, 0], dst_lo=[2, 3],
            proto=[ICMPV6, TCP], sport=[55_555, 40_000], dport=[99, 443],
        )
        # The ICMP row gets the Echo Request type regardless of the draw.
        assert batch.sport[0] == int(IcmpType.ECHO_REQUEST)
        assert batch.dport[0] == 0
        # Non-ICMP rows keep their drawn ports.
        assert batch.sport[1] == 40_000
        assert batch.dport[1] == 443

    def test_probe_batch_does_not_mutate_inputs(self):
        sport = np.array([55_555], dtype=np.uint16)
        dport = np.array([99], dtype=np.uint16)
        probe_batch([1.0], [0], [1], [0], [2], [ICMPV6], sport, dport)
        assert sport[0] == 55_555
        assert dport[0] == 99
