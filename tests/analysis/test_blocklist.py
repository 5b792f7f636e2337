"""Tests for blocklist recommendations."""

import numpy as np
import pytest

from repro.analysis.blocklist import (
    _covering_prefixes,
    recommend_blocklist,
    render_blocklist,
)
from repro.analysis.asinfo import MetadataJoiner
from repro.analysis.records import PacketRecords
from repro.datasets.asdb import AsCategory, AsDatabase, AsRecord
from repro.datasets.geodb import GeoDatabase
from repro.datasets.prefix2as import Prefix2As
from repro.net.addr import IPv6Prefix
from repro.net.packet import icmp_echo_request
from tests.analysis.reference import recommend_blocklist_reference

STABLE_PREFIX = IPv6Prefix.parse("2620:1::/32")
ROTATING_PREFIX = IPv6Prefix.parse("2a0e:5c00::/30")


@pytest.fixture
def joiner():
    p2a = Prefix2As()
    p2a.add(STABLE_PREFIX, 111)
    p2a.add(ROTATING_PREFIX, 222)
    db = AsDatabase(misclassification_rate=0.0)
    db.register(AsRecord(111, "STABLE", AsCategory.HOSTING_CLOUD, "US"))
    db.register(AsRecord(222, "ROTATOR", AsCategory.INTERNET_SCANNER, "DE"))
    return MetadataJoiner(p2a, db, GeoDatabase())


def _records(rng):
    pkts = []
    # Stable scanner: one address, many packets.
    stable = STABLE_PREFIX.network | 7
    pkts += [icmp_echo_request(float(i), stable, i) for i in range(50)]
    # Rotator: a fresh address per packet across the /30.
    for i in range(50):
        src = ROTATING_PREFIX.random_address(rng).value
        pkts.append(icmp_echo_request(100.0 + i, src, i))
    return PacketRecords.from_packets(pkts)


class TestCoveringPrefixes:
    def test_single_source(self):
        (prefix,) = _covering_prefixes([42], max_entries=16)
        assert prefix.length == 128 and prefix.network == 42

    def test_spread_forces_coarser(self):
        sources = [i << 64 for i in range(100)]  # 100 distinct /64s
        prefixes = _covering_prefixes(sources, max_entries=16)
        assert prefixes[0].length < 64
        assert all(any(s in p for p in prefixes) for s in sources)

    def test_clustered_stays_narrow(self):
        base = STABLE_PREFIX.network
        sources = [base | i for i in range(10)]
        prefixes = _covering_prefixes(sources, max_entries=16)
        assert prefixes[0].length == 128
        assert len(prefixes) == 10


class TestRecommend:
    def test_granularity_tracks_rotation(self, joiner, rng):
        records = _records(rng)
        entries = {e.as_name: e
                   for e in recommend_blocklist(records, joiner)}
        assert entries["STABLE"].granularity == 128
        assert entries["STABLE"].overreach_bits == 0.0
        assert entries["ROTATOR"].granularity < 64
        assert entries["ROTATOR"].overreach_bits > 16

    def test_min_packets_filter(self, joiner, rng):
        records = _records(rng)
        assert recommend_blocklist(records, joiner, min_packets=60) == []

    def test_sorted_by_volume(self, joiner, rng):
        entries = recommend_blocklist(_records(rng), joiner)
        packets = [e.packets for e in entries]
        assert packets == sorted(packets, reverse=True)

    def test_empty(self, joiner):
        assert recommend_blocklist(PacketRecords.empty(), joiner) == []

    def test_render(self, joiner, rng):
        text = render_blocklist(recommend_blocklist(_records(rng), joiner))
        assert "STABLE" in text and "ROTATOR" in text
        assert "HIGH" in text or "medium" in text


#: Four mapped ASes plus dark space no route covers (ASN 0).
AS_PREFIXES = (
    (STABLE_PREFIX, 111),
    (ROTATING_PREFIX, 222),
    (IPv6Prefix.parse("2001:db8:100::/40"), 333),
    (IPv6Prefix.parse("2400:cb00::/32"), 444),
)
UNMAPPED_PREFIX = IPv6Prefix.parse("3fff::/20")


@pytest.fixture
def wide_joiner():
    p2a = Prefix2As()
    db = AsDatabase(misclassification_rate=0.0)
    for prefix, asn in AS_PREFIXES:
        p2a.add(prefix, asn)
        db.register(AsRecord(asn, f"AS{asn}", AsCategory.HOSTING_CLOUD, "US"))
    return MetadataJoiner(p2a, db, GeoDatabase())


def _from(sources):
    """One probe per source, in the given order."""
    return PacketRecords.from_packets(
        [icmp_echo_request(float(i), src, i) for i, src in enumerate(sources)])


def _mixed(rng):
    """Random traffic over every AS and the unmapped space, with repeated
    /128s, in shuffled arrival order."""
    pools = [[prefix.random_address(rng).value
              for _ in range(int(rng.integers(1, 12)))]
             for prefix in [p for p, _ in AS_PREFIXES] + [UNMAPPED_PREFIX]]
    picks = rng.integers(len(pools), size=int(rng.integers(50, 400)))
    return _from([pools[w][int(rng.integers(len(pools[w])))]
                  for w in picks.tolist()])


class TestMatchesReference:
    """The grouped kernel equals the per-row oracle entry for entry."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_traffic(self, wide_joiner, seed):
        records = _mixed(np.random.default_rng(seed))
        for min_packets in (1, 10, 40):
            for max_entries in (1, 4, 16):
                got = recommend_blocklist(records, wide_joiner,
                                          max_entries, min_packets)
                assert got == recommend_blocklist_reference(
                    records, wide_joiner, max_entries, min_packets)

    def test_unmapped_sources_never_listed(self, wide_joiner, rng):
        records = _from([UNMAPPED_PREFIX.random_address(rng).value
                         for _ in range(30)])
        assert recommend_blocklist(records, wide_joiner, min_packets=1) == []
        assert recommend_blocklist_reference(
            records, wide_joiner, min_packets=1) == []

    def test_exactly_min_packets_is_kept(self, wide_joiner):
        records = _from([STABLE_PREFIX.network | i for i in range(10)])
        for min_packets, kept in ((10, 1), (11, 0)):
            got = recommend_blocklist(records, wide_joiner,
                                      min_packets=min_packets)
            assert len(got) == kept
            assert got == recommend_blocklist_reference(
                records, wide_joiner, min_packets=min_packets)

    def test_tied_packets_keep_ascending_asn(self, wide_joiner):
        # AS 444's traffic arrives first; both ASes send 12 packets.
        records = _from([0x2400CB00 << 96 | i for i in range(12)]
                        + [STABLE_PREFIX.network | i for i in range(12)])
        got = recommend_blocklist(records, wide_joiner)
        assert [e.asn for e in got] == [111, 444]
        assert got == recommend_blocklist_reference(records, wide_joiner)

    def test_empty(self, wide_joiner):
        empty = PacketRecords.empty()
        assert recommend_blocklist(empty, wide_joiner) == \
            recommend_blocklist_reference(empty, wide_joiner) == []
