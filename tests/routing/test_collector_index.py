"""The collectors' per-prefix index and shared poll window against the
linear scans they replaced."""

import numpy as np
import pytest

from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6
from repro.routing.collectors import CollectorSystem
from repro.routing.messages import Announcement, Withdrawal
from repro.routing.rpki import Roa, RoaRegistry
from repro.scanners.strategies import BgpWatcher, ProtocolProfile

PREFIXES = [IPv6Prefix.parse(p) for p in (
    "2001:db8:1::/48", "2001:db8:2::/48", "2001:db9:3::/48",
    "2001:db8:1:8000::/56", "2001:db8:2:ff00::/64",
)]


def linear_carries(collector, prefix, at):
    """The route state by a scan of the whole log: the last event for
    ``prefix`` visible by ``at`` decides."""
    state = False
    for event in collector.events():
        if event.visible_at > at:
            break
        if event.update.prefix == prefix:
            state = not event.is_withdrawal
    return state


def linear_new_prefixes(system, since, until):
    seen = {}
    for event in system.visible_updates(since, until):
        if event.is_withdrawal:
            continue
        prev = seen.get(event.update.prefix)
        if prev is None or event.visible_at < prev:
            seen[event.update.prefix] = event.visible_at
    return seen


def _random_system(seed):
    """A system fed a random announce / withdraw / re-announce sequence,
    plus direct records on a coarse time grid so equal visibility times
    occur, including an announcement and a withdrawal tied at one time."""
    rng = np.random.default_rng(seed)
    registry = RoaRegistry()
    registry.register(Roa(IPv6Prefix.parse("2001:db8::/32"), 64500,
                          max_length=64))
    system = CollectorSystem(rng=seed, roa_registry=registry)
    assert any(c.rpki_strict for c in system.collectors)
    assert any(c.accepts_hyper_specific for c in system.collectors)
    for _ in range(60):
        prefix = PREFIXES[int(rng.integers(len(PREFIXES)))]
        at = float(rng.integers(0, 40)) * 500.0
        if rng.random() < 0.6:
            system.announce(Announcement(prefix, 64500, at, (64500,)))
        else:
            system.withdraw(Withdrawal(prefix, 64500, at))
    for _ in range(80):
        collector = system.collectors[
            int(rng.integers(len(system.collectors)))]
        prefix = PREFIXES[int(rng.integers(len(PREFIXES)))]
        at = float(rng.integers(0, 40)) * 500.0
        update = (Announcement(prefix, 64500, at, (64500,))
                  if rng.random() < 0.5 else Withdrawal(prefix, 64500, at))
        collector.record(update, visible_at=at)
        if rng.random() < 0.2:
            flipped = (Withdrawal(prefix, 64500, at)
                       if isinstance(update, Announcement)
                       else Announcement(prefix, 64500, at, (64500,)))
            collector.record(flipped, visible_at=at)
    return system


@pytest.mark.parametrize("seed", range(6))
def test_index_matches_linear_scan(seed):
    system = _random_system(seed)
    times = sorted({e.visible_at for c in system.collectors
                    for e in c.events()} | {-1.0, 1e9})
    ties = sum(
        len(c.events()) - len({e.visible_at for e in c.events()})
        for c in system.collectors)
    assert ties > 0
    for at in times:
        for prefix in PREFIXES:
            expected = [linear_carries(c, prefix, at)
                        for c in system.collectors]
            assert [c.carries(prefix, at)
                    for c in system.collectors] == expected
            assert system.visibility_count(prefix, at) == sum(expected)


@pytest.mark.parametrize("seed", range(3))
def test_window_matches_linear_scan(seed):
    system = _random_system(seed)
    for since, until in ((0.0, 5_000.0), (5_000.0, 12_000.0),
                         (-1.0, 1e9)):
        window = system.window(since, until)
        expected = linear_new_prefixes(system, since, until)
        assert list(window.new.items()) == list(expected.items())
        assert dict(system.new_prefixes(since, until)) == expected
        for prefix in PREFIXES:
            assert window.visibility(prefix) == sum(
                linear_carries(c, prefix, until) for c in system.collectors)


def test_window_is_shared_and_read_only():
    system = _random_system(0)
    first = system.new_prefixes(0.0, 1e9)
    assert system.new_prefixes(0.0, 1e9) is first
    with pytest.raises(TypeError):
        first[PREFIXES[0]] = 0.0


def test_record_between_polls_is_seen():
    system = CollectorSystem(rng=0)
    prefix = IPv6Prefix.parse("2001:db8:7::/48")
    assert prefix not in system.new_prefixes(0.0, 1e6)
    assert system.window(0.0, 1e6).visibility(prefix) == 0
    system.collectors[3].record(
        Announcement(prefix, 64500, 100.0, (64500,)), visible_at=200.0)
    assert system.new_prefixes(0.0, 1e6) == {prefix: 200.0}
    assert system.window(0.0, 1e6).visibility(prefix) == 1


def test_record_between_two_watchers_polls_is_seen():
    """Two agents poll the same window; a record between their polls
    reaches the second one."""
    system = CollectorSystem(rng=0)
    profile = ProtocolProfile(icmp_weight=1.0)
    early, late = BgpWatcher(system, profile), BgpWatcher(system, profile)
    rng = np.random.default_rng(0)
    assert early.poll(0.0, 1e6, rng) == []
    prefix = IPv6Prefix.parse("2001:db8:7::/48")
    system.announce(Announcement(prefix, 64500, 100.0, (64500,)))
    (batch,) = late.poll(0.0, 1e6, rng)
    assert batch.subject_prefix == prefix
    _, _, proto, _ = batch.sampler(rng, 5)
    assert proto.tolist() == [ICMPV6] * 5


def test_withdraw_uses_index():
    """``withdraw`` reaches exactly the collectors carrying the prefix at
    the withdrawal time, the ones a linear scan names."""
    system = _random_system(4)
    prefix = PREFIXES[0]
    at = 9_999.0
    carrying = [c.name for c in system.collectors
                if linear_carries(c, prefix, at)]
    reached = system.withdraw(Withdrawal(prefix, 64500, at))
    assert [c.name for c in reached] == carrying
