"""6Tree-style dynamic target generation (Liu et al., Computer Networks '19).

The classic feedback TGA the paper's §2.2 surveys: build a *space tree*
over the seed addresses by splitting on nibble positions, then descend the
tree spending probe budget where responses actually come back.  Unlike the
blind pattern miner (:mod:`repro.scanners.tga`), 6Tree adapts: productive
regions get exponentially more probes, dead regions are abandoned.

``SixTreeTga.run`` drives the algorithm against a responsiveness oracle
(in the simulator: the telescope itself) and returns per-round statistics,
making it directly comparable in the :mod:`repro.scanners.tga_eval`
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import make_rng

#: Nibble positions in an address (most significant first).
N_NIBBLES = 32


def _nibble(address: int, position: int) -> int:
    return (address >> (124 - 4 * position)) & 0xF


@dataclass
class SpaceTreeNode:
    """One region of address space: seeds agreeing on a nibble prefix."""

    #: Fixed nibbles (most-significant first); the region is everything
    #: sharing this prefix.
    prefix_nibbles: tuple[int, ...]
    seeds: list[int] = field(default_factory=list)
    children: list["SpaceTreeNode"] = field(default_factory=list)
    #: Feedback state.
    probes_sent: int = 0
    hits: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def density(self) -> float:
        """Observed hit rate, optimistic prior for unprobed regions."""
        if self.probes_sent == 0:
            return 1.0
        return self.hits / self.probes_sent

    def contains(self, address: int) -> bool:
        return all(_nibble(address, i) == n
                   for i, n in enumerate(self.prefix_nibbles))

    def generate(self, rng: np.random.Generator, n: int,
                 mutation_probability: float = 0.25) -> list[int]:
        """Sample candidates: fixed prefix + seed-informed suffix.

        Every suffix nibble is drawn from the region's observed values;
        with probability ``mutation_probability`` a *single* position is
        then randomized — one mutation per candidate is how 6Tree escapes
        the seeds' exact footprint without destroying their structure
        (mutating independently per nibble almost never yields a valid
        address once the suffix is long).
        """
        base = 0
        for nibble in self.prefix_nibbles:
            base = (base << 4) | nibble
        base <<= 4 * (N_NIBBLES - len(self.prefix_nibbles))
        suffix_positions = list(range(len(self.prefix_nibbles), N_NIBBLES))
        observed = {
            pos: [_nibble(s, pos) for s in self.seeds]
            for pos in suffix_positions
        }
        out = []
        for _ in range(n):
            address = base
            for pos in suffix_positions:
                values = observed[pos]
                nibble = (values[int(rng.integers(len(values)))]
                          if values else int(rng.integers(16)))
                address |= nibble << (124 - 4 * pos)
            if suffix_positions and rng.random() < mutation_probability:
                pos = suffix_positions[
                    int(rng.integers(len(suffix_positions)))
                ]
                address &= ~(0xF << (124 - 4 * pos))
                address |= int(rng.integers(16)) << (124 - 4 * pos)
            out.append(address)
        return out


def build_space_tree(seeds: list[int], max_leaf_seeds: int = 8,
                     max_depth: int = 28) -> SpaceTreeNode:
    """Build the space tree: split nodes on their first diverging nibble."""
    root = SpaceTreeNode(prefix_nibbles=(), seeds=sorted(set(seeds)))

    def split(node: SpaceTreeNode) -> None:
        depth = len(node.prefix_nibbles)
        if len(node.seeds) <= max_leaf_seeds or depth >= max_depth:
            return
        # Find the first position past the prefix where seeds diverge.
        position = depth
        while position < max_depth:
            values = {_nibble(s, position) for s in node.seeds}
            if len(values) > 1:
                break
            position += 1
        if position >= max_depth:
            return
        # Extend the common prefix up to the diverging position, then
        # split into one child per observed nibble value.
        common = tuple(
            _nibble(node.seeds[0], i) for i in range(depth, position)
        )
        groups: dict[int, list[int]] = {}
        for seed in node.seeds:
            groups.setdefault(_nibble(seed, position), []).append(seed)
        for value, members in sorted(groups.items()):
            child = SpaceTreeNode(
                prefix_nibbles=node.prefix_nibbles + common + (value,),
                seeds=members,
            )
            node.children.append(child)
            split(child)

    split(root)
    return root


@dataclass(frozen=True)
class SixTreeRound:
    """Statistics for one feedback round."""

    round_index: int
    probes: int
    hits: int
    new_addresses: int
    active_regions: int


@dataclass
class SixTreeResult:
    """Full run outcome."""

    discovered: set[int] = field(default_factory=set)
    probes_sent: int = 0
    rounds: list[SixTreeRound] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return len(self.discovered) / self.probes_sent if self.probes_sent else 0.0


class SixTreeTga:
    """The dynamic-descent scanner."""

    def __init__(self, seeds: list[int],
                 rng: np.random.Generator | int | None = 0,
                 max_leaf_seeds: int = 8,
                 exploration_share: float = 0.2):
        if not seeds:
            raise ValueError("6Tree needs at least one seed address")
        self._rng = make_rng(rng)
        self.tree = build_space_tree(seeds, max_leaf_seeds=max_leaf_seeds)
        self.exploration_share = exploration_share

    def _leaves(self) -> list[SpaceTreeNode]:
        out = []
        stack = [self.tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(node.children)
        return out

    def run(self, oracle, budget: int, at: float = 0.0,
            round_size: int = 256) -> SixTreeResult:
        """Spend ``budget`` probes, reallocating by observed density.

        ``oracle(address, at) -> bool`` answers responsiveness (wire it to
        a telescope's ICMP oracle).  Each round splits its probes between
        density-weighted exploitation and uniform exploration.
        """
        result = SixTreeResult()
        leaves = self._leaves()
        attempted: set[int] = set()
        round_index = 0
        stall_rounds = 0
        while result.probes_sent < budget and stall_rounds < 4:
            quota = min(round_size, budget - result.probes_sent)
            densities = np.array([leaf.density for leaf in leaves])
            explore = max(1, int(quota * self.exploration_share))
            exploit = quota - explore
            allocation = np.zeros(len(leaves), dtype=int)
            if densities.sum() > 0 and exploit > 0:
                weights = densities / densities.sum()
                allocation += self._rng.multinomial(exploit, weights)
            allocation += self._rng.multinomial(
                explore, np.full(len(leaves), 1.0 / len(leaves))
            )
            round_hits = 0
            round_probes = 0
            new_addresses = 0
            for leaf, n in zip(leaves, allocation):
                if n == 0:
                    continue
                sent = 0
                # Never re-probe a known address (budget is real packets);
                # a bounded oversample absorbs duplicate draws from small
                # candidate spaces.
                for candidate in leaf.generate(self._rng, int(n) * 4):
                    if sent >= n:
                        break
                    if candidate in attempted:
                        continue
                    attempted.add(candidate)
                    sent += 1
                    leaf.probes_sent += 1
                    result.probes_sent += 1
                    round_probes += 1
                    if oracle(candidate, at):
                        leaf.hits += 1
                        round_hits += 1
                        result.discovered.add(candidate)
                        new_addresses += 1
            result.rounds.append(SixTreeRound(
                round_index=round_index,
                probes=round_probes,
                hits=round_hits,
                new_addresses=new_addresses,
                active_regions=int((densities > 0).sum()),
            ))
            round_index += 1
            # Regions can run out of fresh candidates; stop when the whole
            # tree goes dry instead of spinning.
            stall_rounds = stall_rounds + 1 if round_probes == 0 else 0
        return result
