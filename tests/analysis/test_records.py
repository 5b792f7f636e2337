"""Tests for the columnar packet records."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import DAY
from repro.analysis.records import PacketRecords
from repro.net.addr import MAX_ADDRESS, IPv6Prefix, aggregate
from repro.net.packet import ICMPV6, TCP, icmp_echo_request, tcp_segment, TcpFlags
from tests.analysis.reference import sorted_by_time, src_addresses

PREFIX = IPv6Prefix.parse("2001:db8:5::/48")


@pytest.fixture
def records():
    pkts = [
        icmp_echo_request(10.0, 100, PREFIX.network | 1),
        icmp_echo_request(20.0, 100, PREFIX.network | 2),
        tcp_segment(30.0, 200, 999, 4000, 80, TcpFlags.SYN),
        icmp_echo_request(5.0, 300, PREFIX.network | 1),
    ]
    return PacketRecords.from_packets(pkts)


class TestConstruction:
    def test_from_packets_roundtrip(self, records):
        assert len(records) == 4
        assert list(src_addresses(records)) == [100, 100, 200, 300]
        assert list(records.dst_addresses())[0] == PREFIX.network | 1

    def test_empty(self):
        empty = PacketRecords.empty()
        assert len(empty) == 0
        assert empty.unique_sources() == 0
        assert empty.unique_destinations() == 0
        assert empty.source_set() == set()

    def test_concat(self, records):
        double = PacketRecords.concat([records, records])
        assert len(double) == 8
        assert PacketRecords.concat([]).ts.shape == (0,)

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError):
            PacketRecords.from_columns([1.0], [], [], [], [], [], [], [])


class TestSelection:
    def test_mask_time(self, records):
        sub = records.select(records.mask_time(10.0, 25.0))
        assert len(sub) == 2

    def test_mask_proto(self, records):
        assert int(records.mask_proto(TCP).sum()) == 1
        assert int(records.mask_proto(ICMPV6).sum()) == 3

    def test_mask_dst_in(self, records):
        assert int(records.mask_dst_in(PREFIX).sum()) == 3

    def test_sorted_by_time(self, records):
        ordered = sorted_by_time(records)
        assert list(ordered.ts) == sorted(records.ts)


class TestAggregation:
    def test_unique_sources(self, records):
        assert records.unique_sources(128) == 3
        assert records.unique_sources(0) == 1

    def test_unique_destinations(self, records):
        assert records.unique_destinations(128) == 3
        assert records.unique_destinations(48) == 2

    def test_source_set_values(self, records):
        assert records.source_set(128) == {100, 200, 300}

    def test_source_groups_alignment(self, records):
        groups = records.source_groups(128)
        srcs = list(src_addresses(records))
        for g, s in zip(groups, srcs):
            same = [x for x, gg in zip(srcs, groups) if gg == g]
            assert all(x == s for x in same)

    @given(
        st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS),
                 min_size=1, max_size=30),
        st.integers(min_value=0, max_value=128),
    )
    def test_unique_sources_matches_python(self, sources, length):
        pkts = [icmp_echo_request(float(i), s, 1)
                for i, s in enumerate(sources)]
        records = PacketRecords.from_packets(pkts)
        expected = len({aggregate(s, length) for s in sources})
        assert records.unique_sources(length) == expected


class TestTimeSeries:
    def test_daily_packet_counts(self, records):
        counts = records.daily_packet_counts(0.0, 2 * DAY)
        assert counts.tolist() == [4.0, 0.0]

    def test_daily_packet_counts_empty_window(self, records):
        assert records.daily_packet_counts(10.0, 10.0).shape == (0,)

    def test_daily_unique(self):
        pkts = [icmp_echo_request(0.5 * DAY, 1, 9),
                icmp_echo_request(0.6 * DAY, 1, 9),
                icmp_echo_request(0.7 * DAY, 2, 9),
                icmp_echo_request(1.5 * DAY, 2, 9)]
        records = PacketRecords.from_packets(pkts)
        values = np.array([1, 1, 2, 2])
        uniq = records.daily_unique(0.0, 2 * DAY, values)
        assert uniq.tolist() == [2.0, 1.0]
