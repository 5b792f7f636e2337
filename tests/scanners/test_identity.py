"""Tests for scanner identities and source allocation."""

import pytest

from repro.datasets.asdb import AsCategory
from repro.net.addr import IPv6Prefix, join_u64
from repro.scanners.identity import (
    AllocationMode,
    ScannerIdentity,
    SourceAllocator,
)

PREFIX = IPv6Prefix.parse("2a0e:5c00::/30")


def _identity(**kwargs):
    defaults = dict(
        asn=64500, as_name="X", category=AsCategory.HOSTING_CLOUD,
        country="US", source_prefix=PREFIX,
        allocation=AllocationMode.FIXED,
    )
    defaults.update(kwargs)
    return ScannerIdentity(**defaults)


def _sources(allocator, n):
    """``n`` source draws from ``sources_batch``, as int addresses."""
    hi, lo = allocator.sources_batch(n)
    assert len(hi) == len(lo) == n
    return join_u64(hi, lo)


class TestValidation:
    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            _identity(asn=0)

    def test_rejects_bad_pool(self):
        with pytest.raises(ValueError):
            _identity(pool_size=0)
        with pytest.raises(ValueError):
            _identity(pool_subnets=-1)


class TestFixed:
    def test_single_stable_source(self):
        allocator = SourceAllocator(_identity(), rng=0)
        sources = set(_sources(allocator, 20))
        assert len(sources) == 1
        assert next(iter(sources)) in PREFIX


class TestSmallPool:
    def test_pool_size_respected(self):
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.SMALL_POOL, pool_size=46),
            rng=0,
        )
        sources = set(_sources(allocator, 2000))
        assert len(sources) == 46

    def test_clustered_pool_shapes_64s(self):
        """Table 3's shape: many /128s inside few /64s."""
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.SMALL_POOL,
                      pool_size=400, pool_subnets=4),
            rng=0,
        )
        sources = set(_sources(allocator, 20_000))
        subnets = {s >> 64 for s in sources}
        assert len(sources) == 400
        assert len(subnets) == 4

    def test_clustering_requires_short_prefix(self):
        identity = _identity(
            source_prefix=IPv6Prefix.parse("2a0e::1/128"),
            allocation=AllocationMode.SMALL_POOL, pool_subnets=4,
        )
        with pytest.raises(ValueError):
            SourceAllocator(identity, rng=0)


class TestPerSession:
    def test_source_changes_per_session(self):
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.PER_SESSION), rng=0,
        )
        first = set(_sources(allocator, 5))
        assert len(first) == 1  # stable within a session
        assert set(_sources(allocator, 5)) == first
        allocator.new_session()
        second = set(_sources(allocator, 5))
        assert len(second) == 1 and second != first


class TestPerPacket:
    def test_every_packet_fresh(self):
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.PER_PACKET), rng=0,
        )
        sources = _sources(allocator, 100)
        assert len(set(sources)) == 100
        assert all(s in PREFIX for s in sources)


class TestTargetSlice:
    def test_slice_size(self):
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.SMALL_POOL, pool_size=100,
                      sources_per_target=10),
            rng=0,
        )
        subset = allocator.target_slice()
        assert len(subset) == 10
        assert len(set(subset)) == 10

    def test_no_slice_without_config(self):
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.SMALL_POOL, pool_size=100),
            rng=0,
        )
        assert allocator.target_slice() is None

    def test_no_slice_when_pool_smaller(self):
        allocator = SourceAllocator(
            _identity(allocation=AllocationMode.SMALL_POOL, pool_size=5,
                      sources_per_target=10),
            rng=0,
        )
        assert allocator.target_slice() is None
