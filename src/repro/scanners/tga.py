"""Pattern-mining target-generation algorithm (a 6Gen/6Tree-lite).

Exploratory scanners (the paper's R&E heavyweights — CERNET, Tsinghua —
probed orders of magnitude more *unique* destinations than anyone else)
run TGAs: mine structural patterns from seed addresses, then generate
candidate addresses that vary the high-entropy positions while preserving
the low-entropy ones.

``PatternTga`` implements the classic nibble-pattern approach: group seeds
by covering prefix, compute per-nibble value sets, and generate candidates
by sampling from observed values (low-diversity nibbles) or uniformly
(high-diversity nibbles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import DAY, make_rng
from repro.net.addr import IPv6Prefix
from repro.scanners.strategies import (
    ProbeBatch,
    ProtocolProfile,
    Strategy,
    TargetColumns,
    TargetSampler,
)

#: A nibble with more than this many observed values is "high entropy" and
#: gets sampled uniformly.
DIVERSITY_THRESHOLD = 8


@dataclass(frozen=True)
class NibblePattern:
    """Mined pattern: per-nibble observed value tuples for one prefix."""

    prefix: IPv6Prefix
    #: 32 tuples (one per nibble, most-significant first); nibbles covered
    #: by the prefix itself are fixed.
    values: tuple[tuple[int, ...], ...]

    def generate(self, rng: np.random.Generator, n: int) -> list[int]:
        """Generate ``n`` candidate addresses matching the pattern."""
        out = []
        fixed_nibbles = self.prefix.length // 4
        for _ in range(n):
            addr = 0
            for pos in range(32):
                if pos < fixed_nibbles:
                    nibble = (self.prefix.network >> (124 - 4 * pos)) & 0xF
                else:
                    observed = self.values[pos]
                    if len(observed) > DIVERSITY_THRESHOLD or not observed:
                        nibble = int(rng.integers(16))
                    else:
                        nibble = observed[int(rng.integers(len(observed)))]
                addr = (addr << 4) | nibble
            out.append(addr)
        return out

    def generate_columns(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar twin of :meth:`generate`: ``(hi, lo)`` uint64 halves.

        One vectorized draw per nibble position instead of one scalar draw
        per nibble per address; the per-position decision (fixed / uniform /
        observed-set) is identical to the scalar loop.
        """
        hi = np.zeros(n, dtype=np.uint64)
        lo = np.zeros(n, dtype=np.uint64)
        fixed_nibbles = self.prefix.length // 4
        four = np.uint64(4)
        for pos in range(32):
            half = hi if pos < 16 else lo
            half <<= four
            if pos < fixed_nibbles:
                half |= np.uint64(
                    (self.prefix.network >> (124 - 4 * pos)) & 0xF
                )
                continue
            observed = self.values[pos]
            if len(observed) > DIVERSITY_THRESHOLD or not observed:
                half |= rng.integers(16, size=n, dtype=np.uint64)
            else:
                choices = np.array(observed, dtype=np.uint64)
                half |= choices[rng.integers(len(observed), size=n)]
        return hi, lo


def mine_patterns(
    seeds: list[int], group_length: int = 48
) -> list[NibblePattern]:
    """Mine per-prefix nibble patterns from seed addresses."""
    if group_length % 4 != 0:
        raise ValueError("group_length must be nibble-aligned")
    groups: dict[int, list[int]] = {}
    shift = 128 - group_length
    for seed in seeds:
        groups.setdefault((seed >> shift) << shift, []).append(seed)
    patterns = []
    for network, members in groups.items():
        values: list[set[int]] = [set() for _ in range(32)]
        for addr in members:
            for pos in range(32):
                values[pos].add((addr >> (124 - 4 * pos)) & 0xF)
        patterns.append(NibblePattern(
            prefix=IPv6Prefix(network, group_length),
            values=tuple(tuple(sorted(v)) for v in values),
        ))
    return patterns


class PatternTga(Strategy):
    """Strategy wrapper: seeds in, large unique-target batches out.

    ``seed_source`` is polled each window for fresh seed addresses
    (typically hitlist entries plus the scanner's own hit history);
    when patterns change, a new exploration batch is emitted.
    """

    def __init__(
        self,
        seed_source,
        profile: ProtocolProfile | None = None,
        peak_rate: float = 3_000.0,
        floor_rate: float = 200.0,
        decay_tau: float = 30 * DAY,
        group_length: int = 48,
        min_new_seeds: int = 1,
        removal_source=None,
        seed_channel: str = "generic",
    ):
        """``removal_source(since, until)`` yields addresses whose seeds
        should be purged (delisted hitlist entries, withdrawn prefixes):
        TGA operators refresh their seed sets frequently, which is why
        scanning dies quickly after a BGP retraction (§5.3.1).

        ``seed_channel`` names the public data source the seeds come from
        ("hitlist", "bgp", ...) so channel-ablation studies can silence
        TGAs together with the channel that feeds them."""
        self.seed_source = seed_source
        self.removal_source = removal_source
        self.seed_channel = seed_channel
        self.profile = profile or ProtocolProfile(icmp_weight=1.0)
        self.peak_rate = peak_rate
        self.floor_rate = floor_rate
        self.decay_tau = decay_tau
        self.group_length = group_length
        self.min_new_seeds = min_new_seeds
        self.seeds: list[int] = []
        self._seen: set[int] = set()
        #: A refreshed pattern set replaces the running exploration batch.
        self._current_batch = None

    def _sampler(self, patterns: list[NibblePattern]) -> TargetSampler:
        profile = self.profile

        # Group the draw by pattern (one vectorized ``generate_columns``
        # per pattern actually hit), then one bulk protocol/port draw for
        # the whole batch.
        def sample(rng: np.random.Generator, n: int) -> TargetColumns:
            idx = rng.integers(len(patterns), size=n)
            dst_hi = np.empty(n, dtype=np.uint64)
            dst_lo = np.empty(n, dtype=np.uint64)
            order = np.argsort(idx, kind="stable")
            counts = np.bincount(idx, minlength=len(patterns))
            offset = 0
            for k, count in enumerate(counts):
                if not count:
                    continue
                rows = order[offset:offset + count]
                offset += count
                hi, lo = patterns[k].generate_columns(rng, int(count))
                dst_hi[rows] = hi
                dst_lo[rows] = lo
            proto, dport = profile.sample_batch(rng, n)
            return dst_hi, dst_lo, proto, dport

        return sample

    def poll(self, since: float, until: float,
             rng: np.random.Generator) -> list[ProbeBatch]:
        purged = False
        if self.removal_source is not None:
            gone = set(self.removal_source(since, until))
            if gone:
                kept = [s for s in self.seeds if s not in gone]
                purged = len(kept) != len(self.seeds)
                self.seeds = kept
                self._seen -= gone
        fresh = [s for s in self.seed_source(since, until)
                 if s not in self._seen]
        if len(fresh) < self.min_new_seeds and not purged:
            return []
        self._seen.update(fresh)
        self.seeds.extend(fresh)
        if not self.seeds:
            if self._current_batch is not None:
                self._current_batch.cancel(until)
                self._current_batch = None
            return []
        patterns = mine_patterns(self.seeds, self.group_length)
        if not patterns:
            return []
        if self._current_batch is not None:
            self._current_batch.cancel(until)
        self._current_batch = ProbeBatch(
            trigger="tga",
            start=until + float(rng.uniform(0, DAY)),
            sampler=self._sampler(patterns),
            peak_rate=self.peak_rate * float(rng.uniform(0.7, 1.3)),
            floor_rate=self.floor_rate,
            decay_tau=self.decay_tau,
        )
        return [self._current_batch]
