"""TGA evaluation bench (the §2.2 target-generation literature in vivo).

Builds a seed set from addresses the telescope actually exposed (domain
targets, honeypot bindings, hitlist entries) plus stale seed regions, and
runs the TGA shootout against the telescope's own responsiveness oracle —
the "Target Acquired?"-style comparison, with the paper's deployment as
the ground truth.
"""

from repro.net.packet import ICMPV6
from repro.scanners.tga_eval import evaluate_tgas


def _seed_set(scenario_result):
    """Seeds a real scanner could plausibly hold: responsive addresses the
    public datasets exposed, plus stale entries for withdrawn prefixes."""
    seeds = []
    for hp in scenario_result.honeyprefixes.values():
        seeds.extend(hp.domain_targets.values())
        seeds.extend(list(hp.responsive)[:6])
        seeds.extend(hp.manual_hitlist_addresses)
        if hp.config.aliased:
            prefix = hp.prefix
            seeds.extend(prefix.network | (i << 64) | 1 for i in range(8))
        seeds.extend(list(hp.subdomain_targets.values())[:4])
    return sorted(set(seeds))


def _icmp_oracle(honeyprefixes, at: float):
    """The telescope's ICMPv6 responsiveness at ``at``, from the deployed
    honeyprefixes alone (a cached result carries no live telescope): a
    deployed, unwithdrawn T-Pot prefix answers every address, any other
    honeyprefix answers per its own bindings."""
    by_48 = {(hp.prefix.network >> 80) << 80: hp
             for hp in honeyprefixes.values()}

    def oracle(address, _at):
        hp = by_48.get((address >> 80) << 80)
        if hp is None or hp.deployed_at is None or hp.deployed_at > at:
            return False
        if hp.withdrawn_at is not None and at >= hp.withdrawn_at:
            return False
        if hp.config.tpot:
            return address in hp.prefix
        return hp.responds(address, ICMPV6, None)

    return oracle


def test_tga_shootout(benchmark, scenario_result, publish):
    oracle = _icmp_oracle(scenario_result.honeyprefixes,
                          scenario_result.end - 1.0)

    seeds = _seed_set(scenario_result)
    assert len(seeds) > 50

    evaluation = benchmark.pedantic(
        evaluate_tgas, args=(seeds, oracle),
        kwargs={"budget": 1_500, "rng": 5},
        rounds=1, iterations=1,
    )
    publish("tga_shootout", evaluation.render())

    random_score = evaluation.score("random")
    # Informed generation beats blind random-in-/32 (the literature's
    # baseline finding); the aliased honeyprefixes give every informed TGA
    # plenty to find.
    for name in ("pattern", "entropy", "6tree"):
        score = evaluation.score(name)
        assert score.hit_rate > random_score.hit_rate
        assert score.new_discoveries > 0
