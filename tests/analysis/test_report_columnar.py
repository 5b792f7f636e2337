"""The report analyses against the per-row loops they replaced.

Figs 5, 9, 11, 14 and Tables 1, 3 group the record columns once and make
one Python call per *distinct* source, destination cell or probe tuple.
The oracles in :mod:`tests.analysis.reference` are the per-row walks those
analyses used to make; each columnar result must equal its oracle exactly
on randomized records, including dict and ``Counter`` insertion order
where a render depends on it.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.asinfo import MetadataJoiner
from repro.analysis.hilbert import hilbert_map
from repro.analysis.records import PacketRecords
from repro.analysis.scope import scanner_scope
from repro.analysis.tactics import label_tactics
from repro.core.features import Feature
from repro.core.honeyprefix import (
    HoneyprefixConfig,
    IcmpMode,
    WEB_PORTS,
    deploy_addresses,
)
from repro.datasets.asdb import AsCategory, AsDatabase, AsRecord
from repro.datasets.geodb import GeoDatabase
from repro.datasets.prefix2as import Prefix2As
from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6, TCP, UDP
from tests.analysis.reference import (
    category_breakdown_oracle,
    hilbert_map_oracle,
    label_tactics_oracle,
    row_asns_oracle,
    scanner_scope_oracle,
    top_asns_oracle,
)

SEEDS = range(6)
COVERING = IPv6Prefix.parse("2001:db8::/32")
OUTSIDE = IPv6Prefix.parse("2001:dead::/32")
HONEY = [COVERING.subnet_at(0x8000 + i, 48) for i in range(4)]
#: A hyper-specific honeyprefix: its /48 is the Fig 9 honey /48.
SPECIFIC = COVERING.subnet_at(0x9000, 48).subnet_at(3, 56)
SOURCE_NETS = [IPv6Prefix.parse(f"2620:{i}::/32") for i in range(1, 7)]
_U64 = (1 << 64) - 1


# -- randomized inputs -------------------------------------------------------

def make_joiner(seed):
    """Six mapped source /32s over four ASNs, some sharing a category, one
    unregistered; the database misclassifies, so the order of first
    ``classify`` calls matters."""
    p2a = Prefix2As()
    geo = GeoDatabase()
    db = AsDatabase(misclassification_rate=0.3, rng=seed)
    asns = [64500, 64501, 64502, 64503, 64501, 64504]
    categories = [AsCategory.HOSTING_CLOUD, AsCategory.INTERNET_SCANNER,
                  AsCategory.HOSTING_CLOUD, AsCategory.RESEARCH_EDUCATION]
    for net, asn in zip(SOURCE_NETS, asns):
        p2a.add(net, asn)
        geo.add(net, "US" if asn % 2 else "DE")
    for asn, category in zip(asns[:4], categories):
        db.register(AsRecord(asn, f"AS-{asn}", category, "US"))
    return MetadataJoiner(p2a, db, geo)


def random_sources(rng, n):
    """Sources clustered so /128, /64 and /48 aggregates all repeat; some
    fall outside every mapped prefix."""
    nets = SOURCE_NETS + [IPv6Prefix.parse("3fff:1::/32")]
    pool = []
    for _ in range(40):
        net = nets[rng.integers(len(nets))].network
        site = int(rng.integers(4)) << 80
        subnet = int(rng.integers(3)) << 64
        pool.append(net | site | subnet | int(rng.integers(1, 6)))
    picks = rng.integers(len(pool), size=n)
    return [pool[k] for k in picks]


def build_records(rng, srcs, dsts, ts=None, proto=None, dport=None):
    n = len(srcs)
    return PacketRecords.from_columns(
        ts=rng.uniform(0.0, 1000.0, n) if ts is None else ts,
        src_hi=[s >> 64 for s in srcs], src_lo=[s & _U64 for s in srcs],
        dst_hi=[d >> 64 for d in dsts], dst_lo=[d & _U64 for d in dsts],
        proto=(rng.choice([ICMPV6, TCP, UDP], n) if proto is None
               else proto),
        sport=np.zeros(n),
        dport=rng.choice([22, 53, 80, 443, 8080], n) if dport is None
        else dport,
    )


def random_telescope(seed, n=600):
    """NT-A-like records: honeyprefix /48s, the covering /32's first 16
    /48s, elsewhere in the /32, and outside it."""
    rng = np.random.default_rng(seed)
    nets = (HONEY + [SPECIFIC.supernet(48)]
            + [COVERING.subnet_at(i, 48) for i in (0, 5, 15, 16, 0x4321)]
            + [OUTSIDE.subnet_at(i, 48) for i in (0, 7)])
    dsts = []
    for _ in range(n):
        net = nets[rng.integers(len(nets))].network
        dsts.append(net | int(rng.integers(1 << 20)) << int(rng.integers(60)))
    return build_records(rng, random_sources(rng, n), dsts)


# -- Figs 5 and Table 1/3: source ASNs ---------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_row_asns_match_oracle(seed):
    records = random_telescope(seed)
    assert np.array_equal(make_joiner(seed).row_asns(records),
                          row_asns_oracle(make_joiner(seed), records))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 3, 20])
def test_top_asns_match_oracle(seed, n):
    records = random_telescope(seed)
    assert (make_joiner(seed).top_asns(records, n=n)
            == top_asns_oracle(make_joiner(seed), records, n=n))


@pytest.mark.parametrize("seed", SEEDS)
def test_category_breakdown_matches_oracle(seed):
    records = random_telescope(seed)
    got = make_joiner(seed).category_breakdown(records)
    expect = category_breakdown_oracle(make_joiner(seed), records)
    assert list(got.items()) == list(expect.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_breakdown_shares_one_row_asn_pass(seed):
    records = random_telescope(seed)
    joiner = make_joiner(seed)
    breakdown = joiner.breakdown(records, top_n=5)
    reference = make_joiner(seed)
    expect_categories = category_breakdown_oracle(reference, records)
    assert breakdown.top_asns == top_asns_oracle(reference, records, n=5)
    assert list(breakdown.by_category.items()) == \
        list(expect_categories.items())


def test_source_asns_on_empty_records():
    joiner = make_joiner(0)
    empty = PacketRecords.empty()
    assert joiner.row_asns(empty).tolist() == []
    assert joiner.top_asns(empty) == []
    assert joiner.category_breakdown(empty) == {}
    assert joiner.breakdown(empty).total_asns == 0


class TestDatedLookups:
    """A route installed at t=100 maps nothing before it; the cache must
    not let a dated answer stand in for an undated one or vice versa."""

    ADDRESS = SOURCE_NETS[0].network | 7

    @pytest.fixture
    def joiner(self):
        p2a = Prefix2As()
        p2a.add(SOURCE_NETS[0], 64500, valid_from=100.0)
        geo = GeoDatabase()
        geo.add(SOURCE_NETS[0], "NL", valid_from=100.0)
        return MetadataJoiner(p2a, AsDatabase(), geo)

    def test_asn_dated_then_undated(self, joiner):
        assert joiner.asn_of(self.ADDRESS, at=50.0) == 0
        assert joiner.asn_of(self.ADDRESS) == 64500

    def test_asn_undated_then_dated(self, joiner):
        assert joiner.asn_of(self.ADDRESS) == 64500
        assert joiner.asn_of(self.ADDRESS, at=50.0) == 0
        assert joiner.asn_of(self.ADDRESS, at=150.0) == 64500

    def test_country_dated_then_undated(self, joiner):
        assert joiner.country_of(self.ADDRESS, at=50.0) is None
        assert joiner.country_of(self.ADDRESS) == "NL"

    def test_country_undated_then_dated(self, joiner):
        assert joiner.country_of(self.ADDRESS) == "NL"
        assert joiner.country_of(self.ADDRESS, at=50.0) is None


# -- Fig 14: Hilbert map -----------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("covering,cell_length", [
    (COVERING, 48), (COVERING, 40), (COVERING.subnet_at(0x80, 40), 48),
    (COVERING.subnet_at(0x8001, 48).subnet_at(0, 60), 70),
])
def test_hilbert_map_matches_oracle(seed, covering, cell_length):
    records = random_telescope(seed)
    if cell_length == 70:
        # Some rows inside the /60, spread over its /70 cells.
        rng = np.random.default_rng(seed)
        inside = [covering.network | int(rng.integers(1 << 60)) << 8
                  for _ in range(200)]
        records = PacketRecords.concat([records, build_records(
            rng, random_sources(rng, len(inside)), inside)])
    got = hilbert_map(records, covering, cell_length)
    expect = hilbert_map_oracle(records, covering, cell_length)
    assert np.array_equal(got, expect)
    assert got.sum() == np.count_nonzero(records.mask_dst_in(covering))


def test_hilbert_map_outside_rows_only():
    rng = np.random.default_rng(0)
    records = build_records(rng, [SOURCE_NETS[0].network | 1] * 3,
                            [OUTSIDE.network | k for k in range(3)])
    assert not hilbert_map(records, COVERING).any()


@pytest.mark.parametrize("cell_length", [32, 31, 49])
def test_hilbert_map_rejects_cell_length_on_empty_input(cell_length):
    with pytest.raises(ValueError):
        hilbert_map(PacketRecords.empty(), COVERING, cell_length)


def test_hilbert_map_empty_records():
    grid = hilbert_map(PacketRecords.empty(), COVERING)
    assert grid.shape == (256, 256) and not grid.any()


# -- Fig 9: scanner scope ----------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("source_length", [128, 64, 48, 60, 100])
def test_scanner_scope_matches_oracle(seed, source_length):
    records = random_telescope(seed)
    honeyprefixes = HONEY + [SPECIFIC]
    report = scanner_scope(records, COVERING, honeyprefixes,
                           source_length=source_length, wide_threshold=2)
    counts, honey, other, other_low = scanner_scope_oracle(
        records, COVERING, honeyprefixes, source_length)
    assert report.prefixes_per_scanner.tolist() == counts
    assert report.prefixes_per_scanner.dtype == np.int64
    assert report.honeyprefix_traffic_share == honey / (honey + other)
    assert report.low_prefix_share_of_other == (
        other_low / other if other else 0.0)
    assert report.wide_scanners == sum(1 for c in counts if c > 2)


def test_scanner_scope_all_honey():
    rng = np.random.default_rng(0)
    records = build_records(rng, random_sources(rng, 5),
                            [HONEY[0].network | k for k in range(5)])
    report = scanner_scope(records, COVERING, HONEY)
    assert report.honeyprefix_traffic_share == 1.0
    assert report.low_prefix_share_of_other == 0.0


# -- Fig 11: tactics ---------------------------------------------------------

CONFIGS = [
    HoneyprefixConfig(name="H_Alias", aliased=True, icmp_mode=IcmpMode.FULL,
                      hitlist_manual=True),
    HoneyprefixConfig(name="H_Combined", icmp_mode=IcmpMode.ADDRESSES,
                      tcp_services=(("web", WEB_PORTS),), udp_ports=(53,),
                      domains=("com", "net"), subdomains=True,
                      web_on_domain_ips=True, tls_root=True, tls_sub=True,
                      hitlist_manual=True),
    HoneyprefixConfig(name="H_Plain"),
]


def deploy(config, seed):
    """A deployed honeyprefix with domain/subdomain targets, a manual
    hitlist entry and a feature timeline inside the probes' time range."""
    rng = np.random.default_rng(seed)
    prefix = HONEY[seed % len(HONEY)]
    hp = deploy_addresses(config, prefix, rng)
    hp.record(0.0, Feature.BGP)
    if config.domains:
        hp.domain_targets["bait.com"] = prefix.network | 0xD0
        hp.domain_targets["bait.net"] = prefix.network | 0xD1
        hp.record(100.0, Feature.DOMAIN)
    if config.subdomains:
        hp.subdomain_targets["www.bait.net"] = prefix.network | 0x5D
        hp.record(150.0, Feature.SUBDOMAIN)
    if config.tls_root:
        hp.record(500.0, Feature.TLS_ROOT)
    if config.tls_sub:
        hp.record(700.0, Feature.TLS_SUB)
    if config.hitlist_manual:
        hp.manual_hitlist_addresses.append(prefix.network | 0x111)
        hp.record(300.0, Feature.HITLIST)
    return hp


def probe_records(hp, seed, n=500):
    """Probes at the honeyprefix's special addresses (with and without a
    matching binding), random in-prefix addresses and a few out of it."""
    rng = np.random.default_rng(seed)
    special = (list(hp.responsive) + list(hp.domain_targets.values())
               + list(hp.subdomain_targets.values())
               + hp.manual_hitlist_addresses)
    dsts = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.5 and special:
            dsts.append(special[rng.integers(len(special))])
        elif roll < 0.95:
            dsts.append(hp.prefix.network | int(rng.integers(1 << 16)))
        else:
            dsts.append(OUTSIDE.network | int(rng.integers(1 << 16)))
    return build_records(
        rng, random_sources(rng, n), dsts,
        ts=rng.uniform(0.0, 1000.0, n),
        proto=rng.choice([ICMPV6, TCP, UDP, 0], n, p=[0.4, 0.3, 0.2, 0.1]),
        dport=rng.choice([0, 22, 53, 80, 123, 443, 8080], n),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("source_length", [48, 64, 128, 52])
def test_label_tactics_matches_oracle(seed, config, source_length):
    hp = deploy(config, seed)
    records = probe_records(hp, seed)
    report = label_tactics(records, hp, source_length=source_length)
    combos, sources = label_tactics_oracle(records, hp, source_length)
    # Counter == ignores order; Fig 11's most_common ties follow it.
    assert list(report.combos.items()) == list(combos.items())
    assert report.total_sources == sources


def test_label_tactics_tied_counts_keep_first_row_order():
    hp = deploy(CONFIGS[1], 0)
    icmp_only = hp.prefix.network | 0xFFFF
    a, b, c = (net.network | 1 for net in SOURCE_NETS[:3])
    # Three /48 sources labelled O, DO and D: every count ties at 1, so
    # the order is the sources' first-row order alone.
    records = build_records(
        np.random.default_rng(0), [c, a, b, c, a],
        [icmp_only, icmp_only, hp.domain_targets["bait.com"],
         icmp_only, hp.domain_targets["bait.com"]],
        ts=np.full(5, 200.0), proto=np.full(5, TCP), dport=np.full(5, 9))
    report = label_tactics(records, hp)
    expect, _ = label_tactics_oracle(records, hp)
    assert list(report.combos.items()) == list(expect.items())
    assert report.combos.most_common() == expect.most_common()
    assert list(report.combos) == ["O", "DO", "D"]


def test_label_tactics_aliased_icmp_stays_inside_prefix():
    hp = deploy(CONFIGS[0], 0)
    a, b = (net.network | 1 for net in SOURCE_NETS[:2])
    records = build_records(
        np.random.default_rng(0), [a, b],
        [hp.prefix.network | 0xBEEF, OUTSIDE.network | 0xBEEF],
        ts=np.full(2, 10.0), proto=np.full(2, ICMPV6), dport=np.zeros(2))
    report = label_tactics(records, hp)
    assert list(report.combos.items()) == [("I", 1), ("O", 1)]
    assert report.combos == label_tactics_oracle(records, hp)[0]


def test_label_tactics_empty_records():
    hp = deploy(CONFIGS[0], 0)
    report = label_tactics(PacketRecords.empty(), hp)
    assert report.combos == Counter() and report.total_sources == 0


def test_label_tactics_matches_oracle_on_scenario(small_result):
    for name, hp in sorted(small_result.honeyprefixes.items()):
        records = small_result.honeyprefix_records(name)
        report = label_tactics(records, hp)
        combos, sources = label_tactics_oracle(records, hp)
        assert list(report.combos.items()) == list(combos.items()), name
        assert report.total_sources == sources, name
