"""The shared CT-log, zone-file and hitlist views against the per-agent
target lists they replaced, and the rule that no view state is pickled."""

import pickle

import numpy as np
import pytest

from repro._util import DAY, WindowView
from repro.dns.registry import Registrar, TldRegistry
from repro.dns.resolver import Resolver
from repro.exec.freeze import freeze_scenario
from repro.hitlist.categories import ADDRESS_CATEGORIES, HitlistCategory
from repro.hitlist.prober import CallableOracle, Prober
from repro.hitlist.service import HitlistService
from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6
from repro.scanners.strategies import (
    CtLogWatcher,
    HitlistConsumer,
    ZoneFileWatcher,
    address_list_sampler,
)
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario
from repro.tlsca.cert import Certificate
from repro.tlsca.ctlog import CtLog
from tests.scanners.reference import (
    ProbeTarget,
    ct_targets,
    hitlist_targets,
    targets_to_columns,
    zone_targets,
)

NET = IPv6Prefix.parse("2001:db8:40::/48").network


def _assert_columns_equal(actual, expected):
    assert len(actual) == len(expected) == 4
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        assert a.tolist() == e.tolist()


def _level_oracle(seed):
    """A deterministic interaction oracle over (address, at)."""
    return lambda address, at: (address * 2_654_435_761 + seed
                                + int(at // DAY)) % 3


# -- hitlist ------------------------------------------------------------------


def _random_hitlist(seed):
    """A hitlist compiled over several cycles from random candidates, with
    a responsiveness oracle that changes daily so revalidation delists
    entries, plus manual insertions (one of them an address filed under a
    prefix category, which no consumer probes)."""
    rng = np.random.default_rng(seed)

    def responds(address, proto, port, at):
        return (address * 40_503 + proto * 7 + (port or 0)
                + int(at // DAY) + seed) % 4 != 0

    service = HitlistService(Prober(CallableOracle(responds), rng=seed),
                             cycle_period=DAY)
    pool = [NET | (int(h) << 64) | int(lo) for h, lo in zip(
        rng.integers(0, 1 << 16, size=300),
        rng.integers(1, 1 << 20, size=300))]
    service.add_candidate_source(
        lambda since, until: pool[int(since // DAY) * 40:
                                  int(until // DAY) * 40])
    for day in range(1, 7):
        service.run_cycle(day * DAY)
        if rng.random() < 0.5:
            category = ADDRESS_CATEGORIES[int(rng.integers(4))]
            service.insert_manual(category, day * DAY + 10.0,
                                  address=pool[int(rng.integers(300))])
    service.insert_manual(HitlistCategory.NON_ALIASED, 1.5 * DAY,
                          address=pool[0])
    assert any(e.removed for e in service.entries())
    return service


@pytest.mark.parametrize("seed", range(4))
def test_hitlist_columns_match_per_entry_list(seed):
    service = _random_hitlist(seed)
    rng = np.random.default_rng(100 + seed)
    subsets = [None, (HitlistCategory.ICMP,),
               (HitlistCategory.TCP80, HitlistCategory.UDP53),
               (HitlistCategory.ALIASED,)]
    checked = 0
    for at in (0.5 * DAY, 2 * DAY, 3.5 * DAY, 6 * DAY + 20.0):
        for categories in subsets:
            for icmp_weight in (None, 1, 5):
                for oracle in (None, _level_oracle(seed)):
                    consumer = HitlistConsumer(
                        service, categories=categories,
                        icmp_weight=icmp_weight, interaction_oracle=oracle)
                    expected = hitlist_targets(consumer, at)
                    actual = consumer._target_columns(at)
                    if not expected:
                        assert actual is None
                        continue
                    _assert_columns_equal(actual,
                                          targets_to_columns(expected))
                    checked += 1
                    n = int(rng.integers(1, 50))
                    draw_seed = int(rng.integers(1 << 30))
                    _assert_columns_equal(
                        address_list_sampler(actual)(
                            np.random.default_rng(draw_seed), n),
                        address_list_sampler(targets_to_columns(expected))(
                            np.random.default_rng(draw_seed), n))
    assert checked > 20


def test_hitlist_columns_shared_per_publication():
    service = _random_hitlist(0)
    first = service.address_columns(3 * DAY)
    assert service.address_columns(3 * DAY + 5.0) is first
    assert len(first.addresses) > 0
    assert not any(c.flags.writeable for c in first.targets)
    service.insert_manual(HitlistCategory.ICMP, 1.0, address=NET | 7)
    assert service.address_columns(3 * DAY) is not first


# -- CT log and zone files ----------------------------------------------------


def _dns(n_names, seed):
    rng = np.random.default_rng(seed)
    registrar = Registrar()
    registrar.add_tld(TldRegistry("com"))
    names = []
    for i in range(n_names):
        domain = f"d{i}.com"
        registrar.register_domain(domain, at=0.0)
        for name in (domain, f"www.{domain}"):
            for _ in range(int(rng.integers(0, 3))):
                registrar.set_aaaa(name, NET | int(rng.integers(1, 1 << 40)),
                                   at=float(rng.integers(0, 3)) * DAY)
            names.append(name)
    return registrar, Resolver([registrar]), names


def _ct_reference_poll(watcher, since, until, rng):
    """The per-agent CT poll: resolve, build the target list, ask the
    oracle per address — then the same RNG draws as the shared path."""
    out = []
    for name, logged_at in watcher.ct_log.names_between(since, until).items():
        if name in watcher._seen:
            continue
        watcher._seen.add(name)
        addresses = watcher.resolver.resolve_aaaa(name, at=logged_at)
        if not addresses:
            continue
        targets = ct_targets(addresses, watcher.ping_ratio)
        factor = 1.0
        if watcher.interaction_oracle is not None:
            factor = watcher.ENGAGEMENT_FACTORS[max(
                watcher.interaction_oracle(a, logged_at) for a in addresses)]
        start = logged_at + float(rng.exponential(watcher.reaction_delay))
        peak = watcher.peak_rate * factor * float(rng.uniform(0.5, 1.5))
        out.append((start, peak, watcher.floor_rate * factor,
                    targets_to_columns(targets)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_ct_columns_match_per_agent_list(seed):
    registrar, resolver, names = _dns(12, seed)
    log = CtLog()
    for i, name in enumerate(names):
        log.submit(Certificate(i, (name,), "ca", 0.0, 1e9),
                   at=(i // 5) * DAY / 2)
    oracle = _level_oracle(seed)
    windows = [(0.0, DAY), (DAY, 2 * DAY), (2 * DAY, 3 * DAY)]
    for ping_ratio in (1, 4, 4, 2):
        shared = CtLogWatcher(log, resolver, interaction_oracle=oracle,
                              ping_ratio=ping_ratio)
        reference = CtLogWatcher(log, resolver, interaction_oracle=oracle,
                                 ping_ratio=ping_ratio)
        rng_shared = np.random.default_rng(seed)
        rng_reference = np.random.default_rng(seed)
        for since, until in windows:
            batches = shared.poll(since, until, rng_shared)
            expected = _ct_reference_poll(reference, since, until,
                                          rng_reference)
            assert len(batches) == len(expected)
            for batch, (start, peak, floor, columns) in zip(batches,
                                                            expected):
                assert (batch.start, batch.peak_rate, batch.floor_rate) == (
                    start, peak, floor)
                draw = np.random.default_rng(7)
                _assert_columns_equal(
                    batch.sampler(draw, 64),
                    address_list_sampler(columns)(np.random.default_rng(7),
                                                  64))


def _zone_reference_poll(watcher, since, until, rng):
    """The per-agent zone-file poll with the shared path's RNG draws."""
    out = []
    for name, published in watcher.new_names(since, until).items():
        if name in watcher._seen:
            continue
        watcher._seen.add(name)
        tld_weight = watcher.TLD_WEIGHTS.get(name.rsplit(".", 1)[-1], 0.5)
        if rng.random() > watcher.attention_probability * tld_weight:
            continue
        addresses = watcher.resolver.resolve_aaaa(name, at=published)
        if not addresses:
            continue
        targets = zone_targets(addresses, watcher.ping_ratio,
                               watcher.probe_web)
        if watcher.probe_surrounding:
            for addr in addresses:
                base = (addr >> 64) << 64
                targets.extend(
                    ProbeTarget(base | int(rng.integers(1, 1 << 16)), ICMPV6)
                    for _ in range(4))
        start = published + rng.exponential(watcher.reaction_delay)
        peak = watcher.peak_rate * float(rng.uniform(0.5, 1.5))
        out.append((start, peak, targets_to_columns(targets)))
    return out


@pytest.mark.parametrize("probe_web,probe_surrounding",
                         [(True, False), (False, False), (True, True)])
def test_zone_columns_match_per_agent_list(probe_web, probe_surrounding):
    registrar, resolver, _ = _dns(20, 3)
    for ping_ratio in (1, 4):
        shared, reference = (
            ZoneFileWatcher(registrar.new_domains, resolver,
                            probe_web=probe_web, ping_ratio=ping_ratio,
                            probe_surrounding=probe_surrounding,
                            attention_probability=0.8)
            for _ in range(2))
        rng_shared = np.random.default_rng(ping_ratio)
        rng_reference = np.random.default_rng(ping_ratio)
        batches = shared.poll(0.0, 2 * DAY, rng_shared)
        expected = _zone_reference_poll(reference, 0.0, 2 * DAY,
                                        rng_reference)
        assert len(batches) == len(expected) > 0
        for batch, (start, peak, columns) in zip(batches, expected):
            assert (batch.start, batch.peak_rate) == (start, peak)
            _assert_columns_equal(
                batch.sampler(np.random.default_rng(7), 64),
                address_list_sampler(columns)(np.random.default_rng(7), 64))


def test_dns_change_between_polls_is_seen():
    registrar, resolver, _ = _dns(2, 0)
    registrar.register_domain("late.com", at=0.0)
    log = CtLog()
    log.submit(Certificate(0, ("late.com",), "ca", 0.0, 1e9), at=10.0)
    early = CtLogWatcher(log, resolver)
    late = CtLogWatcher(log, resolver)
    rng = np.random.default_rng(0)
    assert early.poll(0.0, DAY, rng) == []  # no AAAA yet
    registrar.set_aaaa("late.com", NET | 5, at=0.0)
    (batch,) = late.poll(0.0, DAY, rng)
    hi, lo, _, _ = batch.sampler(rng, 8)
    assert set(lo.tolist()) == {5}


# -- no view state in pickles -------------------------------------------------


def test_window_view_pickles_empty():
    view = WindowView()
    assert view.get(("k", 1), lambda: [1, 2, 3]) == [1, 2, 3]
    clone = pickle.loads(pickle.dumps(view))
    assert clone.get(("k", 1), lambda: "rebuilt") == "rebuilt"


VIEW_TYPES = (b"WindowView", b"CollectorWindow", b"AddressWindow",
              b"AddressColumns")


def test_frozen_scenario_and_checkpoint_carry_no_view(tmp_path):
    config = ScenarioConfig(seed=5, duration_days=4, volume_scale=1e-4,
                            n_tail=12, phase1_day=1, phase2_day=2,
                            phase3_day=3, specific_start_day=3,
                            tls_offset_days=1, hitlist_first_cycle_day=1,
                            hitlist_cycle_days=1)
    with pytest.raises(SimulationAborted):
        run_scenario(config, cache_dir=tmp_path / "ckpt",
                     checkpoint_every=2, abort_after_day=2)
    result = run_scenario(config, cache_dir=tmp_path / "cache")
    blobs = [pickle.dumps(freeze_scenario(result.scenario))]
    blobs += [p.read_bytes() for p in tmp_path.rglob("*")
              if p.is_file() and p.suffix == ".pkl"]
    assert len(blobs) >= 3
    for blob in blobs:
        for name in VIEW_TYPES:
            assert name not in blob
