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
``Packet`` under those semantics — the interactive honeypots (Twinklenet,
T-Pot) only ever see the slice of a batch that can actually elicit a reply,
and that slice goes through this method.
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
        """Materialize every row (slow path — reference/fallback only)."""
        for i in range(len(self)):
            yield self.packet_at(i)


# -- wire batches (the reply side) ------------------------------------------


@dataclass(frozen=True)
class WireBatch:
    """A columnar batch of full wire-format packets.

    :class:`PacketBatch` carries probe semantics (every TCP row is a bare
    SYN, every UDP row the scanner's two-byte payload); the honeypot reply
    path needs the full transport surface — TCP flags, sequence numbers,
    and arbitrary payloads.  A ``WireBatch`` extends the eight capture
    columns with exactly those: ``flags`` (uint8), ``seq``/``ack`` (int64)
    and a payload pool (``payload_id`` indexes ``payloads``; ``-1`` means
    the empty payload).  Payloads are pooled because reply payloads are
    drawn from a handful of constants (SERVFAIL header, kiss-of-death,
    container banners), so one batch stores each distinct value once.
    """

    ts: np.ndarray        # float64
    src_hi: np.ndarray    # uint64
    src_lo: np.ndarray    # uint64
    dst_hi: np.ndarray    # uint64
    dst_lo: np.ndarray    # uint64
    proto: np.ndarray     # uint8
    sport: np.ndarray     # uint16
    dport: np.ndarray     # uint16
    flags: np.ndarray     # uint8
    seq: np.ndarray       # int64
    ack: np.ndarray       # int64
    payload_id: np.ndarray  # int32; -1 = empty payload
    payloads: tuple[bytes, ...] = ()

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def empty(cls) -> "WireBatch":
        z64 = np.empty(0, dtype=np.uint64)
        return cls(
            ts=np.empty(0, dtype=np.float64),
            src_hi=z64, src_lo=z64.copy(), dst_hi=z64.copy(),
            dst_lo=z64.copy(),
            proto=np.empty(0, dtype=np.uint8),
            sport=np.empty(0, dtype=np.uint16),
            dport=np.empty(0, dtype=np.uint16),
            flags=np.empty(0, dtype=np.uint8),
            seq=np.empty(0, dtype=np.int64),
            ack=np.empty(0, dtype=np.int64),
            payload_id=np.empty(0, dtype=np.int32),
        )

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "WireBatch":
        cols: tuple[list, ...] = tuple([] for _ in range(12))
        payloads: list[bytes] = []
        pool: dict[bytes, int] = {}
        for p in packets:
            cols[0].append(p.timestamp)
            cols[1].append((p.src >> 64) & _U64)
            cols[2].append(p.src & _U64)
            cols[3].append((p.dst >> 64) & _U64)
            cols[4].append(p.dst & _U64)
            cols[5].append(p.proto)
            cols[6].append(p.sport)
            cols[7].append(p.dport)
            cols[8].append(p.flags)
            cols[9].append(p.seq)
            cols[10].append(p.ack)
            if p.payload:
                pid = pool.get(p.payload)
                if pid is None:
                    pid = pool[p.payload] = len(payloads)
                    payloads.append(p.payload)
            else:
                pid = -1
            cols[11].append(pid)
        return cls(
            ts=np.asarray(cols[0], dtype=np.float64),
            src_hi=np.asarray(cols[1], dtype=np.uint64),
            src_lo=np.asarray(cols[2], dtype=np.uint64),
            dst_hi=np.asarray(cols[3], dtype=np.uint64),
            dst_lo=np.asarray(cols[4], dtype=np.uint64),
            proto=np.asarray(cols[5], dtype=np.uint8),
            sport=np.asarray(cols[6], dtype=np.uint16),
            dport=np.asarray(cols[7], dtype=np.uint16),
            flags=np.asarray(cols[8], dtype=np.uint8),
            seq=np.asarray(cols[9], dtype=np.int64),
            ack=np.asarray(cols[10], dtype=np.int64),
            payload_id=np.asarray(cols[11], dtype=np.int32),
            payloads=tuple(payloads),
        )

    def payload_at(self, i: int) -> bytes:
        pid = int(self.payload_id[i])
        return b"" if pid < 0 else self.payloads[pid]

    def packet_at(self, i: int) -> Packet:
        """Materialize row ``i`` with full wire fidelity."""
        return Packet(
            timestamp=float(self.ts[i]),
            src=(int(self.src_hi[i]) << 64) | int(self.src_lo[i]),
            dst=(int(self.dst_hi[i]) << 64) | int(self.dst_lo[i]),
            proto=int(self.proto[i]),
            sport=int(self.sport[i]),
            dport=int(self.dport[i]),
            flags=int(self.flags[i]),
            payload=self.payload_at(i),
            seq=int(self.seq[i]),
            ack=int(self.ack[i]),
        )

    def to_packets(self) -> list[Packet]:
        return [self.packet_at(i) for i in range(len(self))]


def as_wire(batch: "PacketBatch | WireBatch") -> WireBatch:
    """View a batch as a :class:`WireBatch`.

    A :class:`PacketBatch` gets its probe semantics materialized into
    explicit columns — TCP rows become bare SYNs, UDP rows carry
    :data:`PROBE_UDP_PAYLOAD` — which is exactly what
    :meth:`PacketBatch.packet_at` does one row at a time.
    """
    if isinstance(batch, WireBatch):
        return batch
    n = len(batch)
    flags = np.where(batch.proto == np.uint8(TCP),
                     np.uint8(int(TcpFlags.SYN)), np.uint8(0))
    payload_id = np.where(batch.proto == np.uint8(UDP),
                          np.int32(0), np.int32(-1))
    zeros = np.zeros(n, dtype=np.int64)
    return WireBatch(
        ts=batch.ts, src_hi=batch.src_hi, src_lo=batch.src_lo,
        dst_hi=batch.dst_hi, dst_lo=batch.dst_lo, proto=batch.proto,
        sport=batch.sport, dport=batch.dport,
        flags=flags.astype(np.uint8, copy=False),
        seq=zeros, ack=zeros,
        payload_id=payload_id.astype(np.int32, copy=False),
        payloads=(PROBE_UDP_PAYLOAD,),
    )


class WireBuilder:
    """Accumulates reply rows and builds one :class:`WireBatch`.

    The honeypot kernels produce replies per protocol category (ICMP echo,
    DNS, NTP, TCP segments ...), each as a vectorized block tagged with the
    *originating input row index*; scalar fallback paths append single
    rows.  ``build()`` stably sorts everything by that index, restoring the
    exact reply order of the per-packet reference (each input row emits at
    most one reply, so row order is reply order), and is called once.
    """

    def __init__(self) -> None:
        self._blocks: list[dict] = []
        self._rows: list[tuple] = []
        self._payloads: list[bytes] = []
        self._pool: dict[bytes, int] = {}
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def intern(self, payload: bytes) -> int:
        """Pool a payload value; returns its id (-1 for empty)."""
        if not payload:
            return -1
        pid = self._pool.get(payload)
        if pid is None:
            pid = self._pool[payload] = len(self._payloads)
            self._payloads.append(payload)
        return pid

    def translate_ids(self, payloads: tuple[bytes, ...],
                      ids: np.ndarray) -> np.ndarray:
        """Re-home payload ids from a foreign pool into this builder's."""
        if len(ids) == 0 or not payloads:
            return np.asarray(ids, dtype=np.int32)
        lut = np.fromiter((self.intern(p) for p in payloads),
                          dtype=np.int32, count=len(payloads))
        ids = np.asarray(ids, dtype=np.int32)
        out = np.full(len(ids), -1, dtype=np.int32)
        have = ids >= 0
        out[have] = lut[ids[have]]
        return out

    def append_block(self, idx, ts, src_hi, src_lo, dst_hi, dst_lo,
                     proto, sport, dport, flags=None, seq=None, ack=None,
                     payload_id=None) -> None:
        """Append a vectorized block of replies (one per row of ``idx``)."""
        n = len(ts)
        if n == 0:
            return
        self._blocks.append({
            "idx": np.asarray(idx, dtype=np.int64),
            "ts": np.asarray(ts, dtype=np.float64),
            "src_hi": np.asarray(src_hi, dtype=np.uint64),
            "src_lo": np.asarray(src_lo, dtype=np.uint64),
            "dst_hi": np.asarray(dst_hi, dtype=np.uint64),
            "dst_lo": np.asarray(dst_lo, dtype=np.uint64),
            "proto": np.broadcast_to(
                np.asarray(proto, dtype=np.uint8), (n,)),
            "sport": np.broadcast_to(
                np.asarray(sport, dtype=np.uint16), (n,)),
            "dport": np.broadcast_to(
                np.asarray(dport, dtype=np.uint16), (n,)),
            "flags": np.broadcast_to(
                np.asarray(0 if flags is None else flags, dtype=np.uint8),
                (n,)),
            "seq": np.broadcast_to(
                np.asarray(0 if seq is None else seq, dtype=np.int64), (n,)),
            "ack": np.broadcast_to(
                np.asarray(0 if ack is None else ack, dtype=np.int64), (n,)),
            "payload_id": np.broadcast_to(
                np.asarray(-1 if payload_id is None else payload_id,
                           dtype=np.int32), (n,)),
        })
        self._n += n

    def append_row(self, idx: int, ts: float, src: int, dst: int, proto: int,
                   sport: int, dport: int, flags: int = 0, seq: int = 0,
                   ack: int = 0, payload: bytes = b"") -> None:
        """Append one reply (the scalar fallback paths use this)."""
        self._rows.append((
            idx, ts, (src >> 64) & _U64, src & _U64,
            (dst >> 64) & _U64, dst & _U64, proto, sport, dport,
            flags, seq, ack, self.intern(payload),
        ))
        self._n += 1

    def append_packet(self, idx: int, pkt: Packet) -> None:
        """Append one materialized reply packet (scalar fallback sugar)."""
        self.append_row(idx, pkt.timestamp, pkt.src, pkt.dst, pkt.proto,
                        pkt.sport, pkt.dport, pkt.flags, pkt.seq, pkt.ack,
                        pkt.payload)

    def build(self) -> WireBatch:
        if self._rows:
            rows = self._rows
            self._blocks.append({
                "idx": np.asarray([r[0] for r in rows], dtype=np.int64),
                "ts": np.asarray([r[1] for r in rows], dtype=np.float64),
                "src_hi": np.asarray([r[2] for r in rows], dtype=np.uint64),
                "src_lo": np.asarray([r[3] for r in rows], dtype=np.uint64),
                "dst_hi": np.asarray([r[4] for r in rows], dtype=np.uint64),
                "dst_lo": np.asarray([r[5] for r in rows], dtype=np.uint64),
                "proto": np.asarray([r[6] for r in rows], dtype=np.uint8),
                "sport": np.asarray([r[7] for r in rows], dtype=np.uint16),
                "dport": np.asarray([r[8] for r in rows], dtype=np.uint16),
                "flags": np.asarray([r[9] for r in rows], dtype=np.uint8),
                "seq": np.asarray([r[10] for r in rows], dtype=np.int64),
                "ack": np.asarray([r[11] for r in rows], dtype=np.int64),
                "payload_id": np.asarray([r[12] for r in rows],
                                         dtype=np.int32),
            })
            self._rows = []
        if not self._blocks:
            return WireBatch.empty()
        # Consumes the blocks one column at a time, each block's copy
        # released once gathered, so a whole day's replies are held about
        # once plus one column, not three times.
        blocks, self._blocks = self._blocks, []
        order = np.argsort(np.concatenate([b.pop("idx") for b in blocks]),
                           kind="stable")
        cols = {name: np.concatenate([b.pop(name) for b in blocks])[order]
                for name in list(blocks[0])}
        return WireBatch(**cols, payloads=tuple(self._payloads))


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
