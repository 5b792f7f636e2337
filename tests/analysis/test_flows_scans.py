"""Tests for flow aggregation and scan detection."""

import numpy as np
import pytest

from repro.analysis.flows import aggregate_flows
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import detect_scans
from repro.net.packet import icmp_echo_request, tcp_segment, TcpFlags


def _ping_burst(src, n, start=0.0, gap=1.0, dst_base=1 << 80):
    return [icmp_echo_request(start + i * gap, src, dst_base + i)
            for i in range(n)]


class TestFlows:
    def test_same_tuple_one_flow(self):
        pkts = [tcp_segment(i * 1.0, 5, 9, 4000, 80, TcpFlags.ACK)
                for i in range(10)]
        flows = aggregate_flows(PacketRecords.from_packets(pkts))
        assert len(flows) == 1
        assert flows[0].packets == 10
        assert flows[0].duration == pytest.approx(9.0)

    def test_timeout_splits_flow(self):
        pkts = [tcp_segment(0.0, 5, 9, 4000, 80, TcpFlags.ACK),
                tcp_segment(120.0, 5, 9, 4000, 80, TcpFlags.ACK)]
        flows = aggregate_flows(PacketRecords.from_packets(pkts),
                                timeout=60.0)
        assert len(flows) == 2

    def test_different_tuples_different_flows(self):
        pkts = [tcp_segment(0.0, 5, 9, 4000, 80, TcpFlags.ACK),
                tcp_segment(0.1, 5, 9, 4001, 80, TcpFlags.ACK),
                icmp_echo_request(0.2, 5, 9)]
        flows = aggregate_flows(PacketRecords.from_packets(pkts))
        assert len(flows) == 3

    def test_empty(self):
        assert aggregate_flows(PacketRecords.empty()) == []

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            aggregate_flows(PacketRecords.empty(), timeout=0.0)

    def test_flows_sorted_by_start(self):
        pkts = [tcp_segment(5.0, 1, 9, 1, 80, TcpFlags.ACK),
                tcp_segment(1.0, 2, 9, 2, 80, TcpFlags.ACK)]
        flows = aggregate_flows(PacketRecords.from_packets(pkts))
        assert flows[0].first_seen <= flows[1].first_seen


class TestScanDetection:
    def test_scan_requires_min_targets(self):
        records = PacketRecords.from_packets(_ping_burst(7, 99))
        assert detect_scans(records, min_targets=100) == []
        records = PacketRecords.from_packets(_ping_burst(7, 100))
        events = detect_scans(records, min_targets=100)
        assert len(events) == 1
        assert events[0].unique_targets == 100

    def test_repeated_targets_not_counted(self):
        pkts = [icmp_echo_request(i * 1.0, 7, 42) for i in range(200)]
        assert detect_scans(PacketRecords.from_packets(pkts),
                            min_targets=100) == []

    def test_timeout_splits_sessions(self):
        pkts = (_ping_burst(7, 60, start=0.0)
                + _ping_burst(7, 60, start=2 * 3600.0, dst_base=2 << 80))
        events = detect_scans(PacketRecords.from_packets(pkts),
                              min_targets=50, timeout=3600.0)
        assert len(events) == 2

    def test_source_aggregation_catches_rotation(self):
        """A scanner rotating /128s within a /64 evades /128 detection but
        not /64 aggregation — the reason Figs 1/2 aggregate sources."""
        base = 0xABCD << 64
        pkts = [icmp_echo_request(i * 1.0, base + i, (1 << 80) + i)
                for i in range(120)]
        records = PacketRecords.from_packets(pkts)
        assert detect_scans(records, source_length=128,
                            min_targets=100) == []
        events = detect_scans(records, source_length=64, min_targets=100)
        assert len(events) == 1
        assert events[0].source == base

    def test_event_fields(self):
        records = PacketRecords.from_packets(_ping_burst(7, 100, gap=2.0))
        (event,) = detect_scans(records, min_targets=100)
        assert event.start == 0.0
        assert event.end == pytest.approx(198.0)
        assert event.packets == 100
        assert event.duration == pytest.approx(198.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            detect_scans(PacketRecords.empty(), min_targets=0)
        with pytest.raises(ValueError):
            detect_scans(PacketRecords.empty(), timeout=0.0)

