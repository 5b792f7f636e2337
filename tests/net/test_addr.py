"""Tests for repro.net.addr."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.net.addr as addr
from repro.net.addr import (
    MAX_ADDRESS,
    IPv6Address,
    IPv6Prefix,
    KeyIndex,
    aggregate,
    aggregate_sources,
    find_keys,
    format_address,
    group_keys,
    join_u64,
    key_hashes,
    mask_u64,
    pack_key_u64,
    parse_address,
    parse_prefix,
    prefix_groups_u64,
    random_addresses_u64,
    split_by_48,
    split_u64,
    unique_pairs_u64,
)
from tests.net.reference import (
    group_ids_cols_reference,
    lookup_pos_u64_reference,
    member_mask_cols_reference,
    member_mask_u64_reference,
)

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)
prefix_lengths = st.integers(min_value=0, max_value=128)


class TestParseFormat:
    def test_parse_full_form(self):
        assert parse_address("0:0:0:0:0:0:0:1") == 1

    def test_parse_compressed(self):
        assert parse_address("::1") == 1
        assert parse_address("::") == 0
        assert parse_address("2001:db8::") == 0x20010DB8 << 96

    def test_parse_leading_compress(self):
        assert parse_address("::ffff:1") == (0xFFFF << 16) | 1

    def test_parse_trailing_compress(self):
        assert parse_address("fe80::") == 0xFE80 << 112

    def test_parse_rejects_double_compress(self):
        with pytest.raises(ValueError):
            parse_address("1::2::3")

    def test_parse_rejects_too_many_groups(self):
        with pytest.raises(ValueError):
            parse_address("1:2:3:4:5:6:7:8:9")

    def test_parse_rejects_bad_group(self):
        with pytest.raises(ValueError):
            parse_address("2001:xyz::1")

    def test_parse_rejects_oversize_group(self):
        with pytest.raises(ValueError):
            parse_address("12345::")

    def test_format_zero_compression(self):
        assert format_address(1) == "::1"
        assert format_address(0) == "::"

    def test_format_picks_longest_zero_run(self):
        value = parse_address("2001:0:0:1:0:0:0:1")
        assert format_address(value) == "2001:0:0:1::1"

    def test_format_no_compression_single_zero(self):
        value = parse_address("1:0:2:3:4:5:6:7")
        assert format_address(value) == "1:0:2:3:4:5:6:7"

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_address(-1)
        with pytest.raises(ValueError):
            format_address(MAX_ADDRESS + 1)

    @given(addresses)
    def test_roundtrip(self, value):
        assert parse_address(format_address(value)) == value


class TestIPv6Address:
    def test_truncate(self):
        addr = IPv6Address.parse("2001:db8:1:2:3:4:5:6")
        assert addr.truncate(32) == parse_address("2001:db8::")

    def test_prefix(self):
        addr = IPv6Address.parse("2001:db8:1::9")
        assert addr.prefix(48) == IPv6Prefix.parse("2001:db8:1::/48")

    def test_ordering(self):
        assert IPv6Address(1) < IPv6Address(2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IPv6Address(-1)

    def test_str(self):
        assert str(IPv6Address(1)) == "::1"


class TestIPv6Prefix:
    def test_parse_and_str(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert str(prefix) == "2001:db8::/32"
        assert prefix.length == 32

    def test_parse_requires_slash(self):
        with pytest.raises(ValueError):
            IPv6Prefix.parse("2001:db8::")

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv6Prefix(1, 32)

    def test_contains_address(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert IPv6Address.parse("2001:db8:ffff::1") in prefix
        assert IPv6Address.parse("2001:db9::1") not in prefix

    def test_contains_int(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        assert parse_address("2001:db8::42") in prefix

    def test_contains_prefix(self):
        outer = IPv6Prefix.parse("2001:db8::/32")
        inner = IPv6Prefix.parse("2001:db8:5::/48")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_first_last(self):
        prefix = IPv6Prefix.parse("2001:db8::/126")
        assert prefix.first.value == prefix.network
        assert prefix.last.value == prefix.network + 3

    def test_num_addresses(self):
        assert IPv6Prefix.parse("::/128").num_addresses == 1
        assert IPv6Prefix.parse("2001:db8::/64").num_addresses == 1 << 64

    def test_address_at(self):
        prefix = IPv6Prefix.parse("2001:db8::/64")
        assert prefix.address_at(5).value == prefix.network + 5
        with pytest.raises(ValueError):
            prefix.address_at(1 << 64)

    def test_random_address_inside(self, rng):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        for _ in range(50):
            assert prefix.random_address(rng) in prefix

    def test_random_address_128(self, rng):
        prefix = IPv6Prefix.parse("2001:db8::1/128")
        assert prefix.random_address(rng).value == prefix.network

    def test_subnets(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        subs = list(prefix.subnets(34))
        assert len(subs) == 4
        assert subs[0].network == prefix.network
        assert all(prefix.contains_prefix(s) for s in subs)

    def test_subnets_refuses_explosion(self):
        with pytest.raises(ValueError):
            list(IPv6Prefix.parse("2001:db8::/32").subnets(64))

    def test_subnet_at(self):
        prefix = IPv6Prefix.parse("2001:db8::/32")
        sub = prefix.subnet_at(3, 48)
        assert sub == IPv6Prefix.parse("2001:db8:3::/48")
        with pytest.raises(ValueError):
            prefix.subnet_at(1 << 16, 48)

    def test_supernet(self):
        sub = IPv6Prefix.parse("2001:db8:3::/48")
        assert sub.supernet(32) == IPv6Prefix.parse("2001:db8::/32")
        with pytest.raises(ValueError):
            sub.supernet(64)

    @given(addresses, prefix_lengths)
    def test_address_always_in_own_prefix(self, value, length):
        addr = IPv6Address(value)
        assert addr in addr.prefix(length)

    @given(addresses, st.integers(min_value=1, max_value=127))
    def test_subnet_at_roundtrip(self, value, length):
        prefix = IPv6Address(value).prefix(length)
        assert prefix.subnet_at(0, length) == prefix


class TestAggregation:
    def test_aggregate_scalar(self):
        value = parse_address("2001:db8:1:2::9")
        assert aggregate(value, 48) == parse_address("2001:db8:1::")

    def test_aggregate_sources(self):
        values = [parse_address("2001:db8::1"), parse_address("2001:db8::2"),
                  parse_address("2001:db9::1")]
        assert len(aggregate_sources(values, 32)) == 2
        assert len(aggregate_sources(values, 128)) == 3

    @given(st.lists(addresses, max_size=20), prefix_lengths)
    def test_split_mask_join_matches_scalar(self, values, length):
        hi, lo = split_u64(values)
        mhi, mlo = mask_u64(hi, lo, length)
        assert join_u64(mhi, mlo) == [aggregate(v, length) for v in values]

    def test_mask_u64_rejects_bad_length(self):
        hi, lo = split_u64([1])
        with pytest.raises(ValueError):
            mask_u64(hi, lo, 129)


class TestPackedKeys:
    """The packed-key / lexsort helpers backing the columnar hot paths."""

    @given(st.lists(addresses, max_size=20),
           st.integers(min_value=0, max_value=64))
    def test_pack_key_matches_scalar_truncation(self, values, length):
        hi, lo = split_u64(values)
        key = pack_key_u64(hi, lo, length)
        assert key is not None
        assert [int(k) << 64 for k in key] == \
            [aggregate(v, length) for v in values]

    @given(st.lists(addresses, max_size=20),
           st.integers(min_value=65, max_value=128))
    def test_pack_key_refuses_long_lengths(self, values, length):
        hi, lo = split_u64(values)
        assert pack_key_u64(hi, lo, length) is None

    def test_pack_key_rejects_bad_length(self):
        hi, lo = split_u64([1])
        with pytest.raises(ValueError):
            pack_key_u64(hi, lo, 129)

    @given(st.lists(addresses, max_size=30))
    def test_unique_pairs_matches_set(self, values):
        hi, lo = split_u64(values)
        uhi, ulo = unique_pairs_u64(hi, lo)
        assert join_u64(uhi, ulo) == sorted(set(values))

    @given(st.lists(addresses, max_size=30))
    def test_group_ids_match_np_unique(self, values):
        hi, lo = split_u64(values)
        ids, key_hi, _ = prefix_groups_u64(hi, lo, 128)
        assert len(key_hi) == len(set(values))
        if values:
            pairs = np.stack([hi, lo], axis=1)
            _, inverse = np.unique(pairs, axis=0, return_inverse=True)
            assert ids.tolist() == inverse.tolist()

    @given(st.lists(addresses, max_size=30), st.lists(addresses, max_size=10))
    def test_member_mask_matches_python_in(self, values, members):
        hi, lo = split_u64(values)
        set_hi, set_lo = split_u64(set(members))
        mask = find_keys((set_hi, set_lo), (hi, lo)) >= 0
        expected = [v in set(members) for v in values]
        assert mask.tolist() == expected


def _same_partition(ids, ref_ids):
    """Whether two group-id columns group the rows identically."""
    pairs = set(zip(ids.tolist(), ref_ids.tolist()))
    return len(pairs) == len(set(ids.tolist())) == len(set(ref_ids.tolist()))


def _random_cols(rng, n, k, spread):
    """``k`` key columns of ``n`` rows, each drawn from ``spread`` values,
    so keys repeat; the last column is uint16, like a port."""
    cols = [rng.integers(0, spread, n).astype(np.uint64)
            * np.uint64(0x1_0000_0001) for _ in range(k - 1)]
    return cols + [rng.integers(0, spread, n).astype(np.uint16)]


class TestKeyKernel:
    """The hashed composite-key kernel against the lexsort oracles it
    replaced."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6])
    def test_group_keys_matches_lexsort(self, seed, k):
        rng = np.random.default_rng(seed)
        cols = _random_cols(rng, int(rng.integers(0, 600)), k, 4)
        ids, rep = group_keys(cols)
        ref_ids, n_groups = group_ids_cols_reference(cols)
        assert len(rep) == n_groups
        assert _same_partition(ids, ref_ids)
        for col in cols:
            assert (col[rep][ids] == col).all()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_find_keys_matches_lexsort(self, seed, k):
        rng = np.random.default_rng(seed)
        table = _random_cols(rng, 200, k, 5)
        _, rep = group_keys(table)
        table = [col[rep] for col in table]  # distinct keys
        query = _random_cols(rng, 700, k, 6)
        rows = find_keys(table, query)
        assert ((rows >= 0)
                == member_mask_cols_reference(query, table)).all()
        hit = rows >= 0
        for t, q in zip(table, query):
            assert (t[rows[hit]] == q[hit]).all()
        if k == 2:
            pos = np.arange(len(rep)) * 3
            assert (np.where(hit, pos[rows], -1) == lookup_pos_u64_reference(
                query[0], query[1].astype(np.uint64), table[0],
                table[1].astype(np.uint64), pos)).all()
            assert (hit == member_mask_u64_reference(
                query[0], query[1].astype(np.uint64), table[0],
                table[1].astype(np.uint64))).all()

    @pytest.mark.parametrize("n_query", [40, 4_000])
    def test_find_keys_with_and_without_the_bitmap(self, n_query):
        """Few queries against a large table search it directly; many go
        through the bitmap first.  Both are exact."""
        rng = np.random.default_rng(n_query)
        table = [rng.integers(0, 1 << 63, 4_000, dtype=np.uint64)
                 for _ in range(3)]
        picks = rng.integers(0, 4_000, n_query)
        query = [col[picks] for col in table]
        miss = rng.random(n_query) < 0.5
        query[1] = np.where(miss, query[1] ^ np.uint64(1), query[1])
        rows = find_keys(table, query)
        assert ((rows >= 0) == ~miss).all()
        assert ((rows >= 0)
                == member_mask_cols_reference(query, table)).all()
        for t, q in zip(table, query):
            assert (t[rows[~miss]] == q[~miss]).all()

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.uint64)
        ids, rep = group_keys((empty, empty))
        assert len(ids) == len(rep) == 0
        one = np.ones(3, dtype=np.uint64)
        assert find_keys((empty, empty), (one, one)).tolist() == [-1] * 3
        assert find_keys((one[:1], one[:1]), (empty, empty)).tolist() == []

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_forced_collisions_fall_back_exactly(self, monkeypatch, k):
        """With the mix constant zeroed, a key's hash is its last column
        alone, so distinct keys sharing it collide; grouping and lookups
        must still be exact."""
        rng = np.random.default_rng(k)
        cols = _random_cols(rng, 400, k, 3)
        monkeypatch.setattr(addr, "_MIX", np.uint64(0))
        assert (key_hashes(cols) == cols[-1]).all()
        ids, rep = group_keys(cols)
        ref_ids, n_groups = group_ids_cols_reference(cols)
        assert len(rep) == n_groups > len(np.unique(cols[-1]))
        assert _same_partition(ids, ref_ids)
        table = [col[rep] for col in cols]
        query = _random_cols(rng, 300, k, 4)
        rows = find_keys(table, query)
        assert ((rows >= 0)
                == member_mask_cols_reference(query, table)).all()
        hit = rows >= 0
        for t, q in zip(table, query):
            assert (t[rows[hit]] == q[hit]).all()

    def test_growing_index_with_a_collision(self, monkeypatch):
        """A :class:`KeyIndex` fed one row at a time stays exact after
        two of its rows come to share a hash."""
        monkeypatch.setattr(addr, "_MIX", np.uint64(0))
        keys = [(1, 7), (2, 7), (1, 8), (3, 7)]  # hash = second column
        table = [np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)]
        index = KeyIndex()
        for row, (a, b) in enumerate(keys):
            query = [np.array([a], dtype=np.uint64),
                     np.array([b], dtype=np.uint64)]
            assert index.find(table, query).tolist() == [-1]
            table = [np.append(t, q) for t, q in zip(table, query)]
            index.add(key_hashes(query), np.array([row]))
        assert index.shared
        query = [np.array([3, 1, 2, 1, 2], dtype=np.uint64),
                 np.array([7, 8, 7, 7, 8], dtype=np.uint64)]
        assert index.find(table, query).tolist() == [3, 2, 1, 0, -1]

    def test_index_merges_sorted(self):
        rng = np.random.default_rng(3)
        cols = [rng.integers(0, 1 << 63, 500, dtype=np.uint64)
                for _ in range(3)]
        index = KeyIndex()
        for lo in range(0, 500, 120):
            rows = np.arange(lo, min(lo + 120, 500))
            index.add(key_hashes([c[rows] for c in cols]), rows)
        assert not index.shared
        assert (index.hashes[1:] > index.hashes[:-1]).all()
        assert index.find(cols, cols).tolist() == list(range(500))


class TestSplitBy48:
    """The one-pass /48 split against a mask per network."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_network_masks(self, seed):
        rng = np.random.default_rng(seed)
        nets = rng.choice(1 << 20, 9, replace=False).astype(np.uint64)
        keys = np.sort(rng.choice(nets, 5, replace=False)) << np.uint64(16)
        # Rows in the kept networks, in others, and below/above all keys.
        hi = ((rng.choice(np.append(nets, [0, (1 << 20) - 1]), 700)
               .astype(np.uint64) << np.uint64(16))
              | rng.integers(0, 1 << 16, 700).astype(np.uint64))
        parts = split_by_48(keys, hi)
        expected = [(slot, np.flatnonzero((hi >> np.uint64(16))
                                          == (key >> np.uint64(16))))
                    for slot, key in enumerate(keys.tolist())]
        expected = [(slot, rows) for slot, rows in expected if len(rows)]
        assert [slot for slot, _ in parts] == [slot for slot, _ in expected]
        for (_, got), (_, want) in zip(parts, expected):
            assert np.array_equal(got, want)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.uint64)
        some = np.array([5 << 16], dtype=np.uint64)
        assert split_by_48(empty, some) == []
        assert split_by_48(some, empty) == []
        assert split_by_48(some, np.array([9 << 16], dtype=np.uint64)) == []


class TestRandomAddresses:
    @pytest.mark.parametrize("length", [0, 32, 64, 80, 128])
    def test_full_words_are_the_raw_stream(self, length):
        """Full 64-bit halves come from ``random_raw``: the same words and
        the same stream position as ``integers(0, 1 << 64)``."""
        prefix = IPv6Address((0x20010DB8 << 96) | 0xABCD).prefix(length)
        got = np.random.default_rng(4)
        hi, lo = random_addresses_u64(prefix, got, 50)
        want = np.random.default_rng(4)
        host = 128 - length
        lo_bits, hi_bits = min(host, 64), max(host - 64, 0)
        exp_lo = (want.integers(0, 1 << lo_bits, 50, dtype=np.uint64)
                  if lo_bits else None)
        exp_hi = (want.integers(0, 1 << hi_bits, 50, dtype=np.uint64)
                  if hi_bits else None)
        net = prefix.network
        if exp_lo is not None:
            assert (lo == (exp_lo | np.uint64(net & (2**64 - 1)))).all()
        if exp_hi is not None:
            assert (hi == (exp_hi | np.uint64(net >> 64))).all()
        assert got.random() == want.random()
