"""Tests for the target-generation strategies."""

import numpy as np
import pytest

from repro._util import DAY
from repro.dns.registry import Registrar, TldRegistry
from repro.dns.resolver import Resolver
from repro.dns.reverse import ReverseZone
from repro.hitlist.categories import HitlistCategory
from repro.hitlist.prober import CallableOracle, Prober
from repro.hitlist.service import HitlistService
from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6, TCP, UDP
from repro.routing.collectors import CollectorSystem
from repro.routing.messages import Announcement
from repro.scanners.strategies import (
    AmbientScanner,
    BgpWatcher,
    CoveringSweeper,
    CtLogWatcher,
    HitlistConsumer,
    ProbeBatch,
    ProtocolProfile,
    RdnsWalkerStrategy,
    ZoneFileWatcher,
    address_list_sampler,
    prefix_sampler,
)
from repro.tlsca.cert import Certificate
from repro.tlsca.ctlog import CtLog
from tests.scanners.reference import (
    ProbeTarget,
    columns_to_targets,
    targets_to_columns,
)

PREFIX = IPv6Prefix.parse("2001:db8:5::/48")
ICMP_ONLY = ProtocolProfile(icmp_weight=1.0)
ICMP_SAMPLER = prefix_sampler(PREFIX, ICMP_ONLY)


def _draw(sampler, rng, n):
    """Draw ``n`` targets, zipping the sampler's columns into
    :class:`ProbeTarget` values."""
    columns = sampler(rng, n)
    assert all(len(column) == n for column in columns)
    return columns_to_targets(columns)


class TestProbeBatch:
    def test_envelope_decay(self):
        batch = ProbeBatch("t", start=0.0, sampler=ICMP_SAMPLER,
                           peak_rate=100.0, floor_rate=10.0,
                           decay_tau=10 * DAY)
        assert batch.rate_at(0.0) == pytest.approx(100.0)
        assert batch.rate_at(10 * DAY) == pytest.approx(
            10 + 90 * np.exp(-1), rel=1e-6
        )
        assert batch.rate_at(1000 * DAY) == 0.0  # past duration
        assert batch.rate_at(-1.0) == 0.0

    def test_cancel_is_idempotent_and_keeps_earliest(self):
        batch = ProbeBatch("t", start=0.0, sampler=ICMP_SAMPLER,
                           peak_rate=100.0)
        batch.cancel(50.0)
        batch.cancel(80.0)
        assert batch.cancelled_at == 50.0
        assert batch.rate_at(60.0) == 0.0
        assert batch.rate_at(40.0) > 0


class TestSamplers:
    def test_prefix_sampler_in_prefix(self, rng):
        sampler = prefix_sampler(PREFIX, ICMP_ONLY, low_weight=0.5)
        for target in _draw(sampler, rng, 200):
            assert target.address in PREFIX
            assert target.proto == ICMPV6

    def test_prefix_sampler_low_bias(self, rng):
        sampler = prefix_sampler(PREFIX, ICMP_ONLY, low_weight=1.0)
        targets = _draw(sampler, rng, 100)
        # all low addresses: host part < 64 within the first 8 /64s
        assert all((t.address & 0xFFFFFFFFFFFFFFFF) < 64 for t in targets)

    def test_address_list_sampler(self, rng):
        targets = [ProbeTarget(1, ICMPV6), ProbeTarget(2, TCP, 80)]
        sampler = address_list_sampler(targets_to_columns(targets))
        drawn = _draw(sampler, rng, 50)
        assert set(t.address for t in drawn) <= {1, 2}

    def test_address_list_sampler_rejects_empty(self):
        with pytest.raises(ValueError):
            address_list_sampler(targets_to_columns([]))

    def test_protocol_profile_mix(self, rng):
        profile = ProtocolProfile(icmp_weight=0.5, tcp_weight=0.5,
                                  tcp_ports=(80,))
        proto, dport = profile.sample_batch(rng, 100)
        assert set(proto.tolist()) == {ICMPV6, TCP}
        assert set(dport[proto == TCP].tolist()) == {80}

    def test_protocol_profile_rejects_zero_weights(self, rng):
        with pytest.raises(ValueError):
            ProtocolProfile(icmp_weight=0, tcp_weight=0,
                            udp_weight=0).sample_batch(rng, 1)


class TestBgpWatcher:
    def _system_with(self, prefix: str, at: float = 100.0):
        system = CollectorSystem(rng=0)
        system.announce(Announcement(IPv6Prefix.parse(prefix), 64500, at,
                                     (64500,)))
        return system

    def test_reacts_to_new_prefix(self, rng):
        system = self._system_with("2001:db8:5::/48")
        watcher = BgpWatcher(system, ICMP_ONLY)
        batches = watcher.poll(0.0, 1e6, rng)
        assert len(batches) == 1
        assert batches[0].subject_prefix == IPv6Prefix.parse("2001:db8:5::/48")
        assert batches[0].start > 100.0

    def test_does_not_react_twice(self, rng):
        system = self._system_with("2001:db8:5::/48")
        watcher = BgpWatcher(system, ICMP_ONLY)
        watcher.poll(0.0, 1e6, rng)
        assert watcher.poll(0.0, 1e6, rng) == []

    def test_min_collectors_skips_hyper_specifics(self, rng):
        system = self._system_with("2001:db8:5:8000::/56")
        watcher = BgpWatcher(system, ICMP_ONLY, min_collectors=10)
        assert watcher.poll(0.0, 1e6, rng) == []

    def test_attention_probability_zero(self, rng):
        system = self._system_with("2001:db8:5::/48")
        watcher = BgpWatcher(system, ICMP_ONLY, attention_probability=0.0)
        assert watcher.poll(0.0, 1e6, rng) == []

    def test_withdrawn_prefixes_feed(self, rng):
        from repro.routing.messages import Withdrawal

        system = self._system_with("2001:db8:5::/48")
        system.withdraw(Withdrawal(IPv6Prefix.parse("2001:db8:5::/48"),
                                   64500, 5000.0))
        watcher = BgpWatcher(system, ICMP_ONLY)
        gone = watcher.withdrawn_prefixes(4000.0, 1e6)
        assert gone == {IPv6Prefix.parse("2001:db8:5::/48")}


class TestZoneFileWatcher:
    @pytest.fixture
    def env(self):
        registrar = Registrar()
        registrar.add_tld(TldRegistry("com"))
        registrar.register_domain("bait.com", at=100.0)
        registrar.set_aaaa("bait.com", PREFIX.network | 0x99, at=100.0)
        resolver = Resolver([registrar])
        feed = lambda s, u: registrar.tld("com").new_domains(s, u)
        return feed, resolver

    def test_resolves_and_probes(self, env, rng):
        feed, resolver = env
        watcher = ZoneFileWatcher(feed, resolver)
        batches = watcher.poll(0.0, 2 * DAY, rng)
        assert len(batches) == 1
        targets = _draw(batches[0].sampler, rng, 50)
        assert all(t.address == PREFIX.network | 0x99 for t in targets)
        protos = {t.proto for t in targets}
        assert ICMPV6 in protos

    def test_seen_names_not_reprocessed(self, env, rng):
        feed, resolver = env
        watcher = ZoneFileWatcher(feed, resolver)
        watcher.poll(0.0, 2 * DAY, rng)
        assert watcher.poll(0.0, 2 * DAY, rng) == []

    def test_unresolvable_names_skipped(self, rng):
        registrar = Registrar()
        registrar.add_tld(TldRegistry("com"))
        registrar.register_domain("empty.com", at=100.0)  # no AAAA
        feed = lambda s, u: registrar.tld("com").new_domains(s, u)
        watcher = ZoneFileWatcher(feed, Resolver([registrar]))
        assert watcher.poll(0.0, 2 * DAY, rng) == []


class TestCtLogWatcher:
    @pytest.fixture
    def env(self):
        registrar = Registrar()
        registrar.add_tld(TldRegistry("com"))
        registrar.register_domain("bait.com", at=0.0)
        registrar.set_aaaa("www.bait.com", PREFIX.network | 0x77, at=0.0)
        resolver = Resolver([registrar])
        log = CtLog()
        log.submit(Certificate(1, ("www.bait.com",), "ca", 100.0, 2e6),
                   at=100.0)
        return log, resolver

    def test_reacts_within_seconds(self, env, rng):
        log, resolver = env
        watcher = CtLogWatcher(log, resolver, reaction_delay=7.0)
        batches = watcher.poll(0.0, 200.0, rng)
        assert len(batches) == 1
        # The paper's DigitalOcean bot arrived 7 seconds after issuance.
        assert batches[0].start - 101.0 < 60.0

    def test_engagement_scales_rate(self, env, rng):
        log, resolver = env
        low = CtLogWatcher(log, resolver, peak_rate=100.0)
        batches_low = low.poll(0.0, 200.0, rng)
        log2, _ = env[0], None
        high = CtLogWatcher(log, resolver, peak_rate=100.0,
                            interaction_oracle=lambda a, t: 2)
        batches_high = high.poll(0.0, 200.0, rng)
        assert batches_high[0].peak_rate > batches_low[0].peak_rate * 3


class TestHitlistConsumer:
    @pytest.fixture
    def hitlist(self):
        oracle = CallableOracle(lambda a, p, q, t: False)
        return HitlistService(Prober(oracle, rng=0))

    def test_probes_manual_entries(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.ICMP, at=100.0,
                              address=PREFIX.network | 1)
        consumer = HitlistConsumer(hitlist)
        batches = consumer.poll(0.0, 200.0, rng)
        assert len(batches) == 1
        targets = _draw(batches[0].sampler, rng, 10)
        assert all(t.proto == ICMPV6 for t in targets)

    def test_category_probe_mapping(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.UDP53, at=100.0, address=5)
        consumer = HitlistConsumer(hitlist)
        targets = _draw(consumer.poll(0.0, 200.0, rng)[0].sampler, rng, 10)
        assert all(t.proto == UDP and t.dport == 53 for t in targets)

    def test_aliased_entry_spawns_prefix_batch(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.ALIASED, at=100.0,
                              prefix=PREFIX)
        consumer = HitlistConsumer(hitlist)
        batches = consumer.poll(0.0, 200.0, rng)
        assert batches[0].subject_prefix == PREFIX

    def test_aliased_entry_once(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.ALIASED, at=100.0,
                              prefix=PREFIX)
        hitlist.insert_manual(HitlistCategory.ALIASED, at=150.0,
                              prefix=PREFIX)
        consumer = HitlistConsumer(hitlist)
        assert len(consumer.poll(0.0, 120.0, rng)) == 1
        assert consumer.poll(120.0, 200.0, rng) == []

    def test_replacement_cancels_previous(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.ICMP, at=100.0, address=1)
        consumer = HitlistConsumer(hitlist)
        first = consumer.poll(0.0, 200.0, rng)[0]
        hitlist.insert_manual(HitlistCategory.ICMP, at=300.0, address=2)
        second = consumer.poll(200.0, 400.0, rng)
        assert first.cancelled_at is not None
        assert len(second) == 1

    def test_removal_drops_targets(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.ICMP, at=100.0, address=1)
        consumer = HitlistConsumer(hitlist)
        consumer.poll(0.0, 200.0, rng)
        # Revalidation delists the (never-responsive) address.
        hitlist.run_cycle(at=300.0)
        batches = consumer.poll(200.0, 400.0, rng)
        assert batches == []  # nothing left to probe

    def test_icmp_weighting(self, hitlist, rng):
        hitlist.insert_manual(HitlistCategory.ICMP, at=100.0, address=1)
        hitlist.insert_manual(HitlistCategory.TCP80, at=100.0, address=2)
        consumer = HitlistConsumer(hitlist)
        batch = consumer.poll(0.0, 200.0, rng)[0]
        targets = _draw(batch.sampler, rng, 2000)
        icmp = sum(1 for t in targets if t.proto == ICMPV6)
        assert icmp > len(targets) * 0.75


class TestRdnsWalker:
    def test_walks_and_probes(self, rng):
        zone = ReverseZone()
        zone.add_ptr(PREFIX.network | 1, "h.example", at=0.0)
        walker = RdnsWalkerStrategy(zone, [PREFIX])
        batches = walker.poll(0.0, 10 * DAY, rng)
        assert len(batches) == 1
        targets = _draw(batches[0].sampler, rng, 10)
        assert all(t.address == PREFIX.network | 1 for t in targets)

    def test_walk_period_respected(self, rng):
        zone = ReverseZone()
        zone.add_ptr(PREFIX.network | 1, "h.example", at=0.0)
        walker = RdnsWalkerStrategy(zone, [PREFIX], walk_period=7 * DAY)
        walker.poll(0.0, 10 * DAY, rng)
        assert walker.poll(10 * DAY, 11 * DAY, rng) == []

    def test_no_new_hosts_no_batch(self, rng):
        zone = ReverseZone()
        zone.add_ptr(PREFIX.network | 1, "h.example", at=0.0)
        walker = RdnsWalkerStrategy(zone, [PREFIX], walk_period=1.0)
        walker.poll(0.0, 10 * DAY, rng)
        assert walker.poll(10 * DAY, 20 * DAY, rng) == []


class TestAmbientAndSweeper:
    def test_ambient_emits_once(self, rng):
        ambient = AmbientScanner(PREFIX, ICMP_ONLY, rate=10.0)
        batches = ambient.poll(0.0, 100.0, rng)
        assert len(batches) == 1
        assert batches[0].trigger == "ambient"
        assert ambient.poll(100.0, 200.0, rng) == []

    def test_sweeper_covers_many_48s(self, rng):
        covering = IPv6Prefix.parse("2001:db8::/32")
        sweeper = CoveringSweeper(covering, ICMP_ONLY, rate=10.0,
                                  low_bias=0.0)
        batch = sweeper.poll(0.0, 100.0, rng)[0]
        targets = _draw(batch.sampler, rng, 2000)
        nets = {(t.address >> 80) << 80 for t in targets}
        assert len(nets) > 1000

    def test_sweeper_low_bias(self, rng):
        covering = IPv6Prefix.parse("2001:db8::/32")
        sweeper = CoveringSweeper(covering, ICMP_ONLY, rate=10.0,
                                  low_bias=1.0)
        targets = _draw(sweeper.poll(0.0, 100.0, rng)[0].sampler, rng, 100)
        first16 = {covering.subnet_at(i, 48).network for i in range(16)}
        assert all(((t.address >> 80) << 80) in first16 for t in targets)
