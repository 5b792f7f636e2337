"""Randomized equivalence: vectorized analysis vs. reference loops.

The columnar hot paths (`detect_scans`, `aggregate_flows`, the §5.1
overlap shares, and the packed-key aggregation in `PacketRecords`) must be
byte-identical to the per-packet oracles in `tests/analysis/reference.py`, on
randomized workloads and on the boundary cases the vectorization could
plausibly get wrong: gaps exactly equal to the timeout, empty and
singleton groups, duplicate timestamps, and aggregation lengths on both
sides of the 64-bit packing threshold.
"""

import numpy as np
import pytest

from repro.analysis.flows import aggregate_flows
from repro.analysis.jaccard import _dest_share, _traffic_share, overlap_report
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import detect_scans
from repro.net.addr import aggregate
from repro.net.packet import TCP, UDP, Packet, icmp_echo_request
from tests.analysis.reference import (
    _dest_share_reference,
    _traffic_share_reference,
    aggregate_flows_reference,
    detect_scans_reference,
    src_addresses,
)

#: Lengths on both sides of the packed-uint64 threshold, plus the paper's
#: aggregation levels.
LENGTHS = (0, 32, 48, 64, 65, 100, 128)


def _random_records(rng, n, n_sources=12, n_dests=40, t_max=20_000.0,
                    quantize=None):
    """Records with clustered sources/destinations and random timestamps.

    ``quantize`` snaps timestamps to multiples of that value, forcing
    duplicate timestamps and gaps exactly equal to the timeout.
    """
    base_src = [(int(rng.integers(1 << 40)) << 88)
                | (int(rng.integers(1 << 30)) << 50)
                for _ in range(n_sources)]
    base_dst = [(int(rng.integers(1 << 60)) << 64)
                | int(rng.integers(1 << 62))
                for _ in range(n_dests)]
    pkts = []
    for _ in range(n):
        ts = float(rng.uniform(0, t_max))
        if quantize:
            ts = round(ts / quantize) * quantize
        src = base_src[int(rng.integers(n_sources))] | int(rng.integers(1 << 16))
        dst = base_dst[int(rng.integers(n_dests))]
        proto = (TCP, UDP)[int(rng.integers(2))]
        pkts.append(Packet(
            timestamp=ts, src=src, dst=dst, proto=proto,
            sport=int(rng.integers(1024, 1030)),
            dport=(53, 80, 123, 443)[int(rng.integers(4))],
        ))
    return PacketRecords.from_packets(pkts)


class TestScanEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_randomized(self, seed, source_length):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, 600)
        for timeout in (250.0, 3_600.0):
            assert detect_scans(records, source_length, 5, timeout) == \
                detect_scans_reference(records, source_length, 5, timeout)

    def test_gap_exactly_timeout_stays_in_session(self):
        """A gap of exactly `timeout` must NOT split the session (the
        reference closes only on strictly greater gaps)."""
        pkts = [icmp_echo_request(float(i) * 100.0, 7 << 64, (1 << 80) + i)
                for i in range(10)]
        records = PacketRecords.from_packets(pkts)
        vec = detect_scans(records, 64, 5, timeout=100.0)
        ref = detect_scans_reference(records, 64, 5, timeout=100.0)
        assert vec == ref
        assert len(vec) == 1 and vec[0].packets == 10

    def test_gap_just_over_timeout_splits(self):
        pkts = [icmp_echo_request(float(i) * 100.0, 7 << 64, (1 << 80) + i)
                for i in range(10)]
        records = PacketRecords.from_packets(pkts)
        vec = detect_scans(records, 64, 5, timeout=99.0)
        ref = detect_scans_reference(records, 64, 5, timeout=99.0)
        assert vec == ref == []

    def test_quantized_timestamps(self):
        """Duplicate timestamps and exact-timeout gaps, randomized."""
        rng = np.random.default_rng(99)
        records = _random_records(rng, 500, quantize=500.0)
        for source_length in (48, 64, 128):
            assert detect_scans(records, source_length, 3, 500.0) == \
                detect_scans_reference(records, source_length, 3, 500.0)

    def test_empty_and_singleton(self):
        assert detect_scans(PacketRecords.empty(), 64, 1, 10.0) == []
        one = PacketRecords.from_packets([icmp_echo_request(1.0, 5, 9)])
        assert detect_scans(one, 64, 1, 10.0) == \
            detect_scans_reference(one, 64, 1, 10.0)
        assert len(detect_scans(one, 64, 1, 10.0)) == 1
        assert detect_scans(one, 64, 2, 10.0) == []


class TestFlowEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized(self, seed):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, 600, t_max=4_000.0)
        for timeout in (60.0, 600.0):
            assert aggregate_flows(records, timeout) == \
                aggregate_flows_reference(records, timeout)

    def test_gap_exactly_timeout_extends_flow(self):
        """The reference extends a flow on gaps <= timeout; only strictly
        larger gaps open a new flow."""
        pkts = [Packet(timestamp=float(i) * 60.0, src=5, dst=9, proto=TCP,
                       sport=4000, dport=80) for i in range(5)]
        records = PacketRecords.from_packets(pkts)
        vec = aggregate_flows(records, timeout=60.0)
        ref = aggregate_flows_reference(records, timeout=60.0)
        assert vec == ref
        assert len(vec) == 1 and vec[0].packets == 5

    def test_quantized_timestamps(self):
        rng = np.random.default_rng(7)
        records = _random_records(rng, 400, t_max=2_000.0, quantize=100.0)
        assert aggregate_flows(records, 100.0) == \
            aggregate_flows_reference(records, 100.0)

    def test_empty_and_singleton(self):
        assert aggregate_flows(PacketRecords.empty()) == []
        one = PacketRecords.from_packets([icmp_echo_request(1.0, 5, 9)])
        vec = aggregate_flows(one)
        assert vec == aggregate_flows_reference(one)
        assert len(vec) == 1 and vec[0].packets == 1


class TestOverlapShareEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("prefix_length", (32, 64, 100, 128))
    def test_randomized_shares(self, seed, prefix_length):
        rng = np.random.default_rng(seed)
        records_a = _random_records(rng, 400)
        records_b = _random_records(rng, 400)
        shared = (records_a.source_set(prefix_length)
                  & records_b.source_set(prefix_length))
        assert _traffic_share(records_a, shared, prefix_length) == \
            _traffic_share_reference(records_a, shared, prefix_length)
        assert _dest_share(records_a, shared, prefix_length) == \
            _dest_share_reference(records_a, shared, prefix_length)

    def test_empty_shared_set(self):
        rng = np.random.default_rng(0)
        records = _random_records(rng, 50)
        assert _traffic_share(records, set(), 64) == 0.0
        assert _dest_share(records, set(), 64) == 0.0

    def test_empty_records(self):
        assert _traffic_share(PacketRecords.empty(), {1 << 64}, 64) == 0.0
        assert _dest_share(PacketRecords.empty(), {1 << 64}, 64) == 0.0

    def test_overlap_report_consistency(self):
        """End-to-end: the report's shares equal the reference shares."""
        rng = np.random.default_rng(5)
        records_a = _random_records(rng, 300)
        records_b = _random_records(rng, 300)
        for level in (32, 64, 128):
            rep = overlap_report("a", records_a, "b", records_b, level)
            shared = (records_a.source_set(level)
                      & records_b.source_set(level))
            assert rep.shared_traffic_share_a == \
                _traffic_share_reference(records_a, shared, level)
            assert rep.shared_traffic_share_b == \
                _traffic_share_reference(records_b, shared, level)
            assert rep.shared_dest_share_a == \
                _dest_share_reference(records_a, shared, level)


class TestRecordsAggregationEquivalence:
    """The packed-key fast path must match brute-force Python aggregation."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("length", LENGTHS)
    def test_unique_and_sets(self, seed, length):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, 300)
        srcs = list(src_addresses(records))
        dsts = list(records.dst_addresses())
        expected_src = {aggregate(s, length) for s in srcs}
        expected_dst = {aggregate(d, length) for d in dsts}
        assert records.unique_sources(length) == len(expected_src)
        assert records.unique_destinations(length) == len(expected_dst)
        assert records.source_set(length) == expected_src
        assert records.destination_set(length) == expected_dst

    @pytest.mark.parametrize("length", LENGTHS)
    def test_source_groups_partition(self, length):
        """Group ids partition rows exactly by truncated source, and ids
        are assigned in ascending truncated-source order."""
        rng = np.random.default_rng(11)
        records = _random_records(rng, 300)
        groups = records.source_groups(length)
        srcs = [aggregate(s, length) for s in src_addresses(records)]
        by_group: dict[int, set[int]] = {}
        for gid, src in zip(groups, srcs):
            by_group.setdefault(int(gid), set()).add(src)
        # each group holds exactly one truncated source value...
        assert all(len(v) == 1 for v in by_group.values())
        # ...every distinct value gets a group...
        assert len(by_group) == len(set(srcs))
        # ...and ids are dense and ascending by value.
        assert sorted(by_group) == list(range(len(by_group)))
        values_in_id_order = [next(iter(by_group[g])) for g in sorted(by_group)]
        assert values_in_id_order == sorted(values_in_id_order)
