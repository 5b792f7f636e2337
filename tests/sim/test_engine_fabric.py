"""Tests for the event engine and the Internet fabric."""

import pytest

from repro._util import DAY
from repro.net.addr import IPv6Prefix
from repro.net.packet import ICMPV6
from repro.sim.engine import Engine
from repro.sim.fabric import InternetFabric


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(9.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9.0
        assert engine.processed == 3

    def test_ties_run_in_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(1.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_run_until(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(5.0, lambda: order.append(5))
        assert engine.run_until(3.0) == 1
        assert engine.now == 3.0
        assert order == [1]

    def test_profile_empty_when_metrics_disabled(self):
        """An engine built under the null registry records no event-loop
        metrics, even if a registry is installed before it runs."""
        from repro.obs import MetricsRegistry, use_registry

        engine = Engine()
        engine.schedule(1.0, lambda: None, label="tick")
        with use_registry(MetricsRegistry()) as registry:
            engine.run()
        assert engine.processed == 1
        assert registry.snapshot()["counters"] == {}
        assert registry.snapshot()["timings"] == {}

    def test_profile_counts_and_times_by_label(self):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            engine = Engine()
            engine.schedule(1.0, lambda: None, label="tick")
            engine.schedule(2.0, lambda: None, label="tick")
            engine.schedule(3.0, lambda: None)
            engine.run()
        assert registry.counter("engine.events").value == 3
        assert registry.counter("engine.events.tick").value == 2
        assert registry.timing("engine.event.tick").count == 2

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(1.0, lambda: None)

    def test_schedule_in(self):
        engine = Engine(start_time=10.0)
        fired = []
        engine.schedule_in(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [15.0]
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        engine = Engine()
        order = []

        def chain():
            order.append("first")
            engine.schedule_in(1.0, lambda: order.append("second"))

        engine.schedule(1.0, chain)
        engine.run()
        assert order == ["first", "second"]

    def test_peek(self):
        engine = Engine()
        assert engine.peek_time() is None
        engine.schedule(3.0, lambda: None)
        assert engine.peek_time() == 3.0


class TestFabric:
    def test_constructs_all_substrates(self):
        fabric = InternetFabric(rng=0)
        assert len(fabric.collectors.collectors) == 36
        assert set(fabric.registrar.tlds) == {"com", "net", "org"}
        assert fabric.ca.ct_logs == [fabric.ct_log]

    def test_oracle_dispatch(self):
        fabric = InternetFabric(rng=0)
        fabric.register_oracle(lambda a, p, q, t: a == 42)
        assert fabric._dispatch_oracle(42, ICMPV6, None, 0.0)
        assert not fabric._dispatch_oracle(43, ICMPV6, None, 0.0)

    def test_interaction_dispatch_takes_max(self):
        fabric = InternetFabric(rng=0)
        fabric.register_interaction(lambda a, t: 1)
        fabric.register_interaction(lambda a, t: 2)
        assert fabric.interaction_level(1, 0.0) == 2

    def test_zone_candidates_only_roots(self):
        fabric = InternetFabric(rng=0)
        fabric.registrar.register_domain("bait.com", at=100.0)
        fabric.registrar.set_aaaa("bait.com", 11, at=100.0)
        fabric.registrar.set_aaaa("www.bait.com", 22, at=100.0)
        candidates = set(fabric._zone_candidates(0.0, 2 * DAY))
        assert candidates == {11}  # subdomains are NOT in TLD zone files

    def test_ct_candidates(self):
        fabric = InternetFabric(rng=0)
        fabric.registrar.register_domain("bait.com", at=0.0)
        fabric.registrar.set_aaaa("www.bait.com", 22, at=0.0)
        fabric.ca.issue(["www.bait.com"], at=100.0)
        assert set(fabric._ct_candidates(0.0, 200.0)) == {22}

    def test_announced_prefix_source(self):
        from repro.routing.messages import Announcement

        fabric = InternetFabric(rng=0)
        prefix = IPv6Prefix.parse("2001:db8:1::/48")
        fabric.collectors.announce(Announcement(prefix, 64500, 100.0,
                                                (64500,)))
        assert prefix in fabric._announced_prefixes(0.0, 1e6)
