"""Scanner identities and source-address allocation.

The paper's blocklisting discussion hinges on *how much address space a
scanner spreads its sources over*: some cloud scanners used a single /96,
AlphaStrike-style operations rotated across an entire /30, CERNET used just
46 fixed addresses.  :class:`SourceAllocator` reproduces those behaviors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro._util import make_rng
from repro.datasets.asdb import AsCategory
from repro.net.addr import IPv6Prefix, random_addresses_u64, split_u64


class AllocationMode(enum.Enum):
    """How a scanner draws source addresses from its pool prefix."""

    #: One fixed address for everything.
    FIXED = "fixed"
    #: A small fixed set of addresses, round-robin (CERNET's 46).
    SMALL_POOL = "small_pool"
    #: A fresh random address per scan session (evades /128 blocklists).
    PER_SESSION = "per_session"
    #: A fresh random address per packet (evades everything short of
    #: prefix aggregation — the reason Figs 1/2 aggregate to /64 and /48).
    PER_PACKET = "per_packet"


@dataclass(frozen=True, slots=True)
class ScannerIdentity:
    """Who a scanner is: its AS, type, geography, and source pool."""

    asn: int
    as_name: str
    category: AsCategory
    country: str
    source_prefix: IPv6Prefix
    allocation: AllocationMode
    pool_size: int = 1
    #: When > 0, pool addresses cluster into this many /64 subnets —
    #: Table 3's signature shape (44k /128s inside just 336 /64s for
    #: AMAZON-02, 46 /128s in 4 /64s for CERNET).
    pool_subnets: int = 0
    #: When > 0, each scan target (probe batch) is worked by a random slice
    #: of this many pool addresses, the way cloud scanners shard jobs over
    #: workers.  This is what keeps 95% of /128 sources confined to <= 2
    #: /48 prefixes (Fig. 9) even for ASes with tens of thousands of
    #: source addresses.
    sources_per_target: int = 0

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive: {self.asn}")
        if self.pool_size < 1:
            raise ValueError(f"pool size must be >= 1: {self.pool_size}")
        if self.pool_subnets < 0:
            raise ValueError(f"pool_subnets must be >= 0: {self.pool_subnets}")


class SourceAllocator:
    """Draws source addresses for one scanner per its allocation mode."""

    def __init__(self, identity: ScannerIdentity,
                 rng: np.random.Generator | int | None = 0):
        self.identity = identity
        self._rng = make_rng(rng)
        mode = identity.allocation
        if mode is AllocationMode.FIXED:
            self._pool = [identity.source_prefix.random_address(self._rng).value]
        elif mode is AllocationMode.SMALL_POOL:
            self._pool = self._build_pool()
        else:
            self._pool = []
        self._session_addr: int | None = None
        self._pool_cols: tuple[np.ndarray, np.ndarray] | None = None

    def _build_pool(self) -> list[int]:
        """Build the SMALL_POOL address set, clustering into /64 subnets
        when the identity asks for it."""
        identity = self.identity
        prefix = identity.source_prefix
        if identity.pool_subnets <= 0:
            return [
                prefix.random_address(self._rng).value
                for _ in range(identity.pool_size)
            ]
        if prefix.length > 64:
            raise ValueError(
                f"pool_subnets requires a source prefix of /64 or shorter, "
                f"got {prefix}"
            )
        subnet_bits = 64 - prefix.length
        n_subnets = min(identity.pool_subnets, 1 << min(subnet_bits, 30))
        subnets = {
            int(self._rng.integers(0, 1 << subnet_bits))
            for _ in range(n_subnets)
        }
        subnet_list = sorted(subnets)
        pool = []
        for i in range(identity.pool_size):
            subnet = subnet_list[i % len(subnet_list)]
            host = int(self._rng.integers(1, 1 << 32))
            pool.append(prefix.network | (subnet << 64) | host)
        return pool

    def new_session(self) -> None:
        """Start a new scan session (PER_SESSION modes pick a new source)."""
        if self.identity.allocation is AllocationMode.PER_SESSION:
            self._session_addr = (
                self.identity.source_prefix.random_address(self._rng).value)

    def target_slice(self) -> list[int] | None:
        """A per-target worker slice of the pool, or None for no slicing."""
        k = self.identity.sources_per_target
        if k <= 0 or not self._pool or k >= len(self._pool):
            return None
        idx = self._rng.choice(len(self._pool), size=k, replace=False)
        return [self._pool[int(i)] for i in idx]

    def sources_batch(self, n: int, rng: np.random.Generator | None = None,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` source addresses as (hi, lo) uint64 columns.

        FIXED repeats its one address, SMALL_POOL draws uniformly from the
        pool, PER_SESSION repeats the current session's address (starting
        a session if none is open), and PER_PACKET draws a fresh address
        per packet.  ``rng`` overrides the allocator's own stream for the
        random modes, which lets :class:`~repro.scanners.agent.ScannerAgent`
        draw packet contents from a per-day child generator (see
        ``_day_plan``).
        """
        rng = self._rng if rng is None else rng
        mode = self.identity.allocation
        if mode is AllocationMode.FIXED:
            addr = self._pool[0]
            return (np.full(n, (addr >> 64) & 0xFFFFFFFFFFFFFFFF,
                            dtype=np.uint64),
                    np.full(n, addr & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
        if mode is AllocationMode.SMALL_POOL:
            pool_hi, pool_lo = self._pool_columns()
            idx = rng.integers(0, len(self._pool), size=n)
            return pool_hi[idx], pool_lo[idx]
        if mode is AllocationMode.PER_SESSION:
            if self._session_addr is None:
                self.new_session()
            addr = self._session_addr
            return (np.full(n, (addr >> 64) & 0xFFFFFFFFFFFFFFFF,
                            dtype=np.uint64),
                    np.full(n, addr & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
        # PER_PACKET
        return random_addresses_u64(self.identity.source_prefix, rng, n)

    def _pool_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The SMALL_POOL addresses as cached (hi, lo) columns."""
        cols = self._pool_cols
        if cols is None:
            cols = split_u64(self._pool)
            self._pool_cols = cols
        return cols
