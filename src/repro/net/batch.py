"""Struct-of-arrays packet batches: the one packet table.

A :class:`PacketBatch` holds the eight columns a telescope records
(:data:`CAPTURE_COLUMNS`: ``ts, src_hi, src_lo, dst_hi, dst_lo, proto,
sport, dport``) plus an optional ground-truth ``origin`` column, so a
whole day's probes flow from the scanner agents through dispatch and into
:class:`~repro.core.capture.PacketCapturer` without ever materializing a
per-packet :class:`~repro.net.packet.Packet` object.  The capturer's
frozen captures are the same table:
:class:`~repro.analysis.records.PacketRecords` is a ``PacketBatch``
without ``origin`` that adds the analysis queries.

Batches carry *probe semantics*: every TCP row is a bare SYN, every UDP row
carries the scanner's two-byte payload, and every ICMPv6 row is an Echo
Request (``sport`` holds the ICMP type, exactly as
:func:`~repro.net.packet.icmp_echo_request` builds it).
:meth:`PacketBatch.packet_at` materializes a single row back into a
``Packet`` under those semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.net.addr import IPv6Prefix, mask_u64
from repro.net.packet import ICMPV6, TCP, UDP, IcmpType, Packet, TcpFlags

_U64 = 0xFFFFFFFFFFFFFFFF

#: The two-byte payload scanner UDP probes carry.
PROBE_UDP_PAYLOAD = b"\x00\x01"

#: ``origin`` value for rows whose emitting agent is unknown (e.g. a batch
#: concatenated from parts with and without provenance).
UNKNOWN_ORIGIN = -1

#: Every :class:`PacketBatch` column and its dtype, ``origin`` last.
COLUMN_DTYPES = {
    "ts": np.float64,
    "src_hi": np.uint64, "src_lo": np.uint64,
    "dst_hi": np.uint64, "dst_lo": np.uint64,
    "proto": np.uint8, "sport": np.uint16, "dport": np.uint16,
    "origin": np.int32,
}

#: The columns a telescope records: every column but ``origin``.
CAPTURE_COLUMNS = tuple(COLUMN_DTYPES)[:-1]


@dataclass(frozen=True)
class PacketBatch:
    """An immutable columnar batch of probe packets.

    The optional ``origin`` column carries the emitting scanner agent's
    stable id (int32) — ground-truth provenance the real telescopes could
    never see.  It rides along through dispatch into
    :class:`~repro.core.capture.PacketCapturer`, which serves it beside
    the frozen records
    (:meth:`~repro.core.capture.PacketCapturer.to_truth`), so the
    analysis-facing records, a subclass without ``origin``, stay exactly
    what a telescope observes.
    """

    ts: np.ndarray        # float64
    src_hi: np.ndarray    # uint64
    src_lo: np.ndarray    # uint64
    dst_hi: np.ndarray    # uint64
    dst_lo: np.ndarray    # uint64
    proto: np.ndarray     # uint8
    sport: np.ndarray     # uint16
    dport: np.ndarray     # uint16
    origin: np.ndarray | None = None  # int32 agent ids, or absent

    def __post_init__(self) -> None:
        n = len(self.ts)
        for name in ("src_hi", "src_lo", "dst_hi", "dst_lo",
                     "proto", "sport", "dport"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        if self.origin is not None and len(self.origin) != n:
            raise ValueError("column origin length mismatch")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_columns(cls, ts, src_hi, src_lo, dst_hi, dst_lo,
                     proto, sport, dport, origin=None) -> "PacketBatch":
        """Build a batch, coercing every column to its canonical dtype."""
        columns = (ts, src_hi, src_lo, dst_hi, dst_lo, proto, sport, dport,
                   origin)
        return cls(**{
            name: None if col is None else np.asarray(col, dtype=dtype)
            for (name, dtype), col in zip(COLUMN_DTYPES.items(), columns)})

    @classmethod
    def empty(cls) -> "PacketBatch":
        return cls.from_columns([], [], [], [], [], [], [], [])

    @classmethod
    def allocate(cls, n: int, origin: bool) -> "PacketBatch":
        """``n`` rows of uninitialized columns for an emitter to fill,
        with an ``origin`` column when ``origin`` is true."""
        return cls(**{name: np.empty(n, dtype=dtype)
                      for name, dtype in COLUMN_DTYPES.items()
                      if origin or name != "origin"})

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "PacketBatch":
        cols: tuple[list, ...] = ([], [], [], [], [], [], [], [])
        for p in packets:
            cols[0].append(p.timestamp)
            cols[1].append((p.src >> 64) & _U64)
            cols[2].append(p.src & _U64)
            cols[3].append((p.dst >> 64) & _U64)
            cols[4].append(p.dst & _U64)
            cols[5].append(p.proto)
            cols[6].append(p.sport)
            cols[7].append(p.dport)
        return cls.from_columns(*cols)

    @classmethod
    def concat(cls, parts: list["PacketBatch"]) -> "PacketBatch":
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        if any(p.origin is not None for p in parts):
            # Provenance survives concatenation; parts lacking it get
            # UNKNOWN_ORIGIN rather than silently dropping the column.
            origin = np.concatenate([
                p.origin if p.origin is not None
                else np.full(len(p), UNKNOWN_ORIGIN, dtype=np.int32)
                for p in parts
            ])
        else:
            origin = None
        return cls(**{name: np.concatenate([getattr(p, name) for p in parts])
                      for name in CAPTURE_COLUMNS}, origin=origin)

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    def rows(self, start: int, stop: int) -> "PacketBatch":
        """Rows ``start:stop`` as views: writing them writes this batch."""
        return self.select(slice(start, stop))

    def select(self, mask) -> "PacketBatch":
        """A batch of this batch's type holding the rows where ``mask`` is
        True (or the rows at the given indices, or a slice of views)."""
        return type(self)(**{
            name: None if col is None else col[mask]
            for name, col in vars(self).items()})

    # -- provenance -------------------------------------------------------

    def with_origin(self, agent_id: int) -> "PacketBatch":
        """A copy of this batch stamped with one emitting agent's id."""
        return PacketBatch(**{
            **vars(self), "origin": np.full(len(self), agent_id,
                                            dtype=np.int32)})

    # -- masks -----------------------------------------------------------

    def mask_dst_in(self, prefix: IPv6Prefix) -> np.ndarray:
        """Rows whose destination lies inside ``prefix``.

        Prefixes of length <= 64 (every routed telescope prefix) resolve
        from the ``dst_hi`` column alone — one shift and one compare per
        row — which is what lets dispatch fan a whole day's batch out
        per-telescope without ever touching the low halves.
        """
        if 0 < prefix.length <= 64:
            shift = np.uint64(64 - prefix.length)
            want = np.uint64(((prefix.network >> 64) & _U64) >> shift)
            return (self.dst_hi >> shift) == want
        hi, lo = mask_u64(self.dst_hi, self.dst_lo, prefix.length)
        want_hi = np.uint64((prefix.network >> 64) & _U64)
        want_lo = np.uint64(prefix.network & _U64)
        return (hi == want_hi) & (lo == want_lo)

    # -- per-row materialization ------------------------------------------

    def packet_at(self, i: int) -> Packet:
        """Materialize row ``i`` as a probe :class:`Packet`.

        Applies the batch's probe semantics: TCP rows become bare SYNs, UDP
        rows carry :data:`PROBE_UDP_PAYLOAD`, ICMPv6 rows are Echo Requests
        (their ``sport`` column already holds the ICMP type).
        """
        proto = int(self.proto[i])
        flags = 0
        payload = b""
        if proto == TCP:
            flags = int(TcpFlags.SYN)
        elif proto == UDP:
            payload = PROBE_UDP_PAYLOAD
        return Packet(
            timestamp=float(self.ts[i]),
            src=(int(self.src_hi[i]) << 64) | int(self.src_lo[i]),
            dst=(int(self.dst_hi[i]) << 64) | int(self.dst_lo[i]),
            proto=proto,
            sport=int(self.sport[i]),
            dport=int(self.dport[i]),
            flags=flags,
            payload=payload,
        )

    def iter_packets(self) -> Iterator[Packet]:
        """Materialize every row (slow path: tests and per-packet loops)."""
        for i in range(len(self)):
            yield self.packet_at(i)


def probe_batch(ts, src_hi, src_lo, dst_hi, dst_lo, proto, sport, dport,
                origin=None) -> PacketBatch:
    """Normalize freshly drawn emission columns into a :class:`PacketBatch`.

    Enforces the probe invariants: ICMPv6 rows get the Echo Request type
    in ``sport`` and a zero identifier in ``dport`` regardless of what the
    sampler drew.  ``origin`` is the optional provenance column.
    """
    batch = PacketBatch.from_columns(
        ts, src_hi, src_lo, dst_hi, dst_lo, proto,
        np.array(sport, dtype=np.uint16), np.array(dport, dtype=np.uint16),
        origin)
    normalize_probes(batch)
    return batch


def normalize_probes(batch: PacketBatch) -> None:
    """The probe invariants of :func:`probe_batch`, applied to ``batch``'s
    own columns in place."""
    icmp = np.flatnonzero(batch.proto == np.uint8(ICMPV6))
    batch.sport[icmp] = np.uint16(int(IcmpType.ECHO_REQUEST))
    batch.dport[icmp] = np.uint16(0)
