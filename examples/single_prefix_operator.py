#!/usr/bin/env python3
"""A small operator's telescope: one /48, no BGP autonomy.

The paper's discussion (§6) addresses operators who hold a single /48 and
cannot announce honeyprefixes of their own.  Their recipe: place the
honeypots, domain names, and TLS certificates near the *beginning* of the
assigned block — where scanners concentrate their probing — and capture
what arrives.

This example builds that minimal deployment directly from the library's
building blocks (no PaperScenario), deploys a low-interaction honeyprefix over
the /48, registers one domain + certificate, and reports where in the
block scanners actually probed.

Run:  python examples/single_prefix_operator.py
"""

import numpy as np

from repro._util import DAY
from repro.analysis.records import PacketRecords
from repro.core.features import Feature
from repro.core.honeyprefix import HoneyprefixConfig, IcmpMode
from repro.core.proactive import ProactiveTelescope
from repro.routing.speaker import BgpSpeaker
from repro.scanners.population import PopulationSpec, build_population
from repro.sim.fabric import InternetFabric


def main() -> None:
    fabric = InternetFabric(rng=0)
    # The operator's upstream announces the covering /32; the operator owns
    # one /48 inside it and can only control DNS/TLS and what responds.
    speaker = BgpSpeaker(64999, fabric.collectors, fabric.roa_registry)
    from repro.net.addr import IPv6Prefix

    covering = IPv6Prefix.parse("2a02:1234::/32")
    telescope = ProactiveTelescope(
        "small-op", covering, speaker,
        registrar=fabric.registrar, acme=fabric.acme,
        hitlist=fabric.hitlist, rng=1,
    )
    fabric.register_oracle(telescope.responds)
    fabric.register_interaction(telescope.interaction_level)

    config = HoneyprefixConfig(
        name="my48", icmp_mode=IcmpMode.ADDRESSES,
        tcp_services=(("web", (80, 443)),),
        domains=("com",), tls_root=True,
    )
    my48 = covering.subnet_at(0, 48)
    hp = telescope.deploy(config, my48, at=1 * DAY)
    telescope.issue_tls(hp, at=5 * DAY)

    agents = build_population(
        fabric, PopulationSpec(volume_scale=5e-4, n_tail=60), rng=2
    )

    # Daily loop: poll feeds, emit, deliver everything inside the /48.
    last = 0.0
    for day in range(45):
        start, end = day * DAY, (day + 1) * DAY
        for agent in agents:
            agent.poll_feeds(last, end)
            batch = agent.emit_day_batch(start, end)
            telescope.handle_batch(batch.select(batch.mask_dst_in(my48)))
        last = end

    records = telescope.capturer.to_records()
    print(f"captured {len(records)} packets from "
          f"{records.unique_sources(128)} sources "
          f"({records.unique_sources(48)} source /48s)")
    # What scanners can learn: which of their probes found something that
    # answers (the oracle the hitlist and the scanners read).
    answered = sum(telescope.responds(p.dst, p.proto, p.dport, p.timestamp)
                   for p in records.iter_packets())
    print(f"probes that found a responsive service: {answered}")
    print(f"feature timeline: "
          f"{[(round(t / DAY, 1), f.value) for t, f, _ in hp.timeline]}")

    # Where in the /48 did scanners probe?  (The paper's guidance: early
    # addresses get the attention.)
    offsets = np.array([d - my48.network for d in records.dst_addresses()],
                       dtype=float)
    low = float(np.mean(offsets < (1 << 20)))
    print(f"probes aimed at the first 2^20 addresses: {low:.0%}")
    domain_addr = next(iter(hp.domain_targets.values()))
    hits = sum(1 for d in records.dst_addresses() if d == domain_addr)
    print(f"probes on the domain's AAAA target: {hits}")


if __name__ == "__main__":
    main()
