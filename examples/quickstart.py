#!/usr/bin/env python3
"""Quickstart: deploy a proactive telescope, attract scanners, analyze.

Builds a compact version of the paper's experiment — an ISP /32 hosting a
handful of honeyprefixes, a synthetic scanner ecosystem watching the public
data feeds — runs it for two simulated months, and prints the headline
numbers: who scanned, with what protocols, and how much each attraction
feature helped.

Run:  python examples/quickstart.py
"""

from repro.experiments import fig9, table1, table3
from repro.experiments.effects import table4
from repro.sim import ScenarioConfig, run_scenario


def main() -> None:
    config = ScenarioConfig(
        seed=1,
        duration_days=60,
        volume_scale=1e-4,   # 1:10,000 of the paper's packet volume
        n_tail=80,
        phase1_day=6, phase2_day=10, phase3_day=14, specific_start_day=18,
        tls_offset_days=8, tpot_hitlist_offset_days=12,
        tpot_tls_offset_days=20, udp_hitlist_offset_days=4,
        withdraw_after_days=30,
    )
    print("building the Internet + telescope + scanner ecosystem ...")
    result = run_scenario(config, progress=True)

    print()
    print(table1(result).render())
    print()
    print(table3(result, n=8).render())
    print()
    print(fig9(result).render())
    print()
    print(table4(result).render())

    scenario = result.scenario
    print()
    # What a scanner can learn of each honeyprefix: how rich the service
    # behind its ::1 is at the end (1 = Twinklenet, 2 = T-Pot).
    print("responsive honeyprefixes (level at ::1, captured rows):")
    for name, hp in scenario.honeyprefixes.items():
        level = scenario.telescope.interaction_level(hp.prefix.network | 1,
                                                     result.end)
        if level:
            rows = int(result.nta.mask_dst_in(hp.prefix).sum())
            print(f"  {name:10s} level {level}  {rows:6d} rows")
    print(f"hitlist entries:         "
          f"{len(scenario.fabric.hitlist.entries())}")
    print(f"certificates in CT log:  {len(scenario.fabric.ct_log)}")


if __name__ == "__main__":
    main()
