"""Packet capture into analysis-ready columnar records.

``PacketCapturer`` is the telescope's packet-capture stage:
:meth:`PacketCapturer.capture_batch` appends each batch's analysis-relevant
columns (timestamps, src/dst split into uint64 halves, protocol, ports) as
one numpy chunk and can simultaneously mirror full packets to a capture
file.  ``to_records()`` freezes the chunks, in arrival order, into
:class:`repro.analysis.records.PacketRecords`.

The capturer is also the *provenance boundary*: a batch arriving with the
ground-truth ``origin`` column (the emitting agent's id) has that column
stripped from the analysis-facing chunk — a real telescope cannot see who
sent a packet — and the origin-bearing batch is retained in a sidecar,
frozen by :meth:`PacketCapturer.to_truth` into
:class:`repro.analysis.groundtruth.GroundTruthRecords` for detection
scoring.

**Spill mode** bounds the capturer's memory: with a spill directory and a
byte budget configured (:meth:`PacketCapturer.enable_spill`), buffered
chunks exceeding the budget are sealed into atomic npz segment files on
disk — written tmp-then-rename with a per-file SHA-256 recorded in a
manifest, the same integrity conventions as the scenario cache
(:mod:`repro.exec.cache`) — and ``to_records()`` streams the segments back
one at a time into preallocated output columns instead of holding every
chunk and all eight full-size concatenated copies alive at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.net.batch import PacketBatch, WireBatch
from repro.net.pcapstore import PacketWriter
from repro.obs import get_registry

#: Capture column storage order (matches ``PacketRecords``' columns).
CAPTURE_COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
                   "proto", "sport", "dport")

_COLUMN_DTYPES = {
    "ts": np.float64,
    "src_hi": np.uint64, "src_lo": np.uint64,
    "dst_hi": np.uint64, "dst_lo": np.uint64,
    "proto": np.uint8, "sport": np.uint16, "dport": np.uint16,
}

#: Default spill byte budget: seal buffered chunks to disk past 64 MiB.
DEFAULT_SPILL_BUDGET = 64 * 1024 * 1024


def _batch_nbytes(batch: PacketBatch) -> int:
    size = sum(getattr(batch, col).nbytes for col in CAPTURE_COLUMNS)
    if batch.origin is not None:
        size += batch.origin.nbytes
    return size


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1024 * 1024), b""):
            digest.update(block)
    return digest.hexdigest()


class SpillIntegrityError(RuntimeError):
    """A spilled segment's bytes no longer match its manifest checksum."""


class ChunkSpill:
    """Sealed capture chunks as on-disk npz segments.

    Each :meth:`spill` call concatenates the handed-over batches (bounded
    by the capturer's byte budget) into one segment file, written
    atomically (tmp + ``os.replace``) with its SHA-256 recorded in a
    manifest json alongside — the :class:`~repro.exec.cache.ScenarioCache`
    integrity conventions.  :meth:`iter_batches` verifies each segment's
    checksum before deserializing and yields them in spill order, one at a
    time, so readers never hold more than one segment in memory.
    """

    def __init__(self, directory, name: str):
        self.directory = Path(directory)
        self.name = name
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segments: list[dict] = []
        self.rows = 0

    @property
    def manifest_path(self) -> Path:
        return self.directory / f"{self.name}.manifest.json"

    @property
    def segments(self) -> int:
        return len(self._segments)

    def spill(self, batches: list[PacketBatch]) -> int:
        """Seal ``batches`` into one segment file; returns rows written."""
        sealed = PacketBatch.concat(list(batches))
        if len(sealed) == 0:
            return 0
        filename = f"{self.name}.{len(self._segments):05d}.npz"
        path = self.directory / filename
        tmp = path.with_suffix(".npz.tmp")
        arrays = {col: getattr(sealed, col) for col in CAPTURE_COLUMNS}
        if sealed.origin is not None:
            arrays["origin"] = sealed.origin
        with open(tmp, "wb") as stream:
            np.savez(stream, **arrays)
        checksum = _sha256(tmp)
        os.replace(tmp, path)
        self._segments.append({
            "file": filename, "sha256": checksum, "rows": len(sealed),
        })
        self.rows += len(sealed)
        self._write_manifest()
        return len(sealed)

    def _write_manifest(self) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(
            {"name": self.name, "rows": self.rows,
             "segments": self._segments},
            indent=2, sort_keys=True))
        os.replace(tmp, self.manifest_path)

    def iter_batches(self):
        """Yield spilled segments in order, checksum-verified, one at a
        time."""
        for segment in self._segments:
            path = self.directory / segment["file"]
            if _sha256(path) != segment["sha256"]:
                raise SpillIntegrityError(
                    f"spill segment {path} failed its checksum")
            with np.load(path) as data:
                origin = data["origin"] if "origin" in data.files else None
                yield PacketBatch.from_columns(
                    *(data[col] for col in CAPTURE_COLUMNS), origin=origin)

    def clear(self) -> None:
        """Delete every segment (and the manifest); resets the spill."""
        for segment in self._segments:
            try:
                (self.directory / segment["file"]).unlink()
            except FileNotFoundError:
                pass
        try:
            self.manifest_path.unlink()
        except FileNotFoundError:
            pass
        self._segments = []
        self.rows = 0


class PacketCapturer:
    """Columnar packet capture with optional file mirroring and spill."""

    def __init__(self, name: str = "capture",
                 mirror_path: str | os.PathLike | None = None):
        self.name = name
        #: Captured numpy chunks, in arrival order.
        self._chunks: list[PacketBatch] = []
        #: Origin-bearing batches retained at the provenance boundary, in
        #: arrival order (only batches that arrived with ``origin`` set).
        self._truth_chunks: list[PacketBatch] = []
        self._writer = PacketWriter(mirror_path) if mirror_path else None
        #: The last freeze's records: ``to_records`` consumes the chunk
        #: buffer (releasing per-chunk references), so repeated freezes
        #: serve — and later captures extend — this cached prefix.
        self._frozen = None
        self._spill: ChunkSpill | None = None
        self._truth_spill: ChunkSpill | None = None
        self._spill_budget = DEFAULT_SPILL_BUDGET
        self._buffered_bytes = 0
        self._packet_metric = get_registry().counter(
            f"telescope.{name}.packets"
        )

    def __len__(self) -> int:
        spilled = self._spill.rows if self._spill is not None else 0
        frozen = len(self._frozen) if self._frozen is not None else 0
        return frozen + spilled + sum(len(c) for c in self._chunks)

    # -- spill configuration ----------------------------------------------

    def enable_spill(self, directory,
                     budget_bytes: int = DEFAULT_SPILL_BUDGET) -> None:
        """Seal buffered chunks to npz segments in ``directory`` whenever
        they exceed ``budget_bytes``; peak memory then tracks the budget,
        not the run length."""
        if budget_bytes <= 0:
            raise ValueError(
                f"spill budget must be positive, got {budget_bytes}")
        self._spill = ChunkSpill(directory, self.name)
        self._truth_spill = ChunkSpill(directory, f"{self.name}.truth")
        self._spill_budget = budget_bytes

    @property
    def spill_enabled(self) -> bool:
        return self._spill is not None

    @property
    def spilled_rows(self) -> int:
        return self._spill.rows if self._spill is not None else 0

    def _maybe_spill(self) -> None:
        if self._spill is None or self._buffered_bytes <= self._spill_budget:
            return
        if self._chunks:
            self._spill.spill(self._chunks)
            self._chunks.clear()
        if self._truth_chunks:
            self._truth_spill.spill(self._truth_chunks)
            self._truth_chunks.clear()
        self._buffered_bytes = 0

    # -- capture ----------------------------------------------------------

    def capture_batch(self, batch: PacketBatch | WireBatch) -> None:
        """Record a whole columnar batch as one chunk.

        Accepts the eight capture columns as a :class:`PacketBatch`; a
        honeypot reply :class:`WireBatch` is captured through its capture
        columns (transport detail is not part of the record format).
        """
        if isinstance(batch, WireBatch):
            batch = batch.as_packet_batch()
        if len(batch) == 0:
            return
        self._packet_metric.inc(len(batch))
        if batch.origin is not None:
            self._truth_chunks.append(batch)
            self._buffered_bytes += _batch_nbytes(batch)
        analysis = batch.drop_origin()
        self._chunks.append(analysis)
        self._buffered_bytes += _batch_nbytes(analysis)
        self._maybe_spill()
        if self._writer is not None:
            # Mirroring is inherently per-packet; materialize (only paid
            # when a capture file was requested).
            for pkt in batch.iter_packets():
                self._writer.write(pkt)

    # -- chunk transfer (shard merge + checkpoint restore) -----------------

    def mark(self) -> tuple[int, int]:
        """The current chunk high-water mark ``(chunks, truth_chunks)`` for
        a later :meth:`chunks_since`."""
        return len(self._chunks), len(self._truth_chunks)

    def chunks_since(self, mark: tuple[int, int]) -> tuple[list, list]:
        """The (analysis, truth) chunks appended since ``mark`` — the
        per-agent capture delta a shard worker ships to the parent."""
        return list(self._chunks[mark[0]:]), list(self._truth_chunks[mark[1]:])

    def extend_chunks(self, chunks, truth_chunks) -> None:
        """Append transferred chunks in arrival order (the receiving side
        of shard merging and checkpoint restore).  Does not advance the
        capture metrics counter: transferred rows were counted where they
        were captured."""
        self._chunks.extend(chunks)
        self._truth_chunks.extend(truth_chunks)
        self._buffered_bytes += sum(_batch_nbytes(c) for c in chunks)
        self._buffered_bytes += sum(_batch_nbytes(c) for c in truth_chunks)
        self._maybe_spill()

    def reset_chunks(self) -> None:
        """Drop all buffered chunks (a shard worker's memory bound: once a
        day's deltas are shipped, the worker no longer needs them)."""
        self._chunks.clear()
        self._truth_chunks.clear()
        self._buffered_bytes = 0

    def drain_day_records(self):
        """Freeze and drop everything buffered since the last drain.

        The streaming-analysis path: each day boundary converts the day's
        chunks into one :class:`~repro.analysis.records.PacketRecords`
        chunk for the online trackers and releases them, so a run's peak
        memory holds one day, not the horizon.  Ground-truth sidecars are
        dropped with the chunks (streaming runs carry events, not
        records).  Spill mode is unnecessary underneath this — the buffer
        never outlives a day.
        """
        from repro.analysis.records import PacketRecords

        if not self._chunks:
            self._truth_chunks.clear()
            self._buffered_bytes = 0
            return PacketRecords.empty()
        total = sum(len(c) for c in self._chunks)
        out = {col: np.empty(total, dtype=dtype)
               for col, dtype in _COLUMN_DTYPES.items()}
        position = 0
        chunks = self._chunks
        for i in range(len(chunks)):
            chunk = chunks[i]
            chunks[i] = None
            size = len(chunk)
            for col in CAPTURE_COLUMNS:
                out[col][position:position + size] = getattr(chunk, col)
            position += size
        self._chunks = []
        self._truth_chunks.clear()
        self._buffered_bytes = 0
        return PacketRecords(**out)

    def to_truth(self):
        """Freeze the provenance sidecar into
        :class:`repro.analysis.groundtruth.GroundTruthRecords`.

        Covers only the rows that arrived with an ``origin`` column (scanner
        emissions); batches without one — honeypot responses and
        hand-built packets — have no provenance and are not truth rows.
        """
        from repro.analysis.groundtruth import GroundTruthRecords

        chunks = self._truth_chunks
        if self._truth_spill is not None and self._truth_spill.rows:
            chunks = list(self._truth_spill.iter_batches()) + chunks
        return GroundTruthRecords.from_batches(chunks)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def _consume_chunks(self):
        """Yield every analysis batch in arrival order — spilled segments
        re-read (and verified) one at a time, then in-memory chunks, each
        reference released as it is handed out.  The spill and the chunk
        buffer are empty afterwards."""
        if self._spill is not None and self._spill.rows:
            yield from self._spill.iter_batches()
            self._spill.clear()
        chunks = self._chunks
        self._chunks = []
        self._buffered_bytes = 0
        for i in range(len(chunks)):
            chunk = chunks[i]
            chunks[i] = None
            yield chunk

    def to_records(self):
        """Freeze into :class:`repro.analysis.records.PacketRecords`.

        Output columns are preallocated at the final size and filled
        chunk by chunk, with each chunk's (or spilled segment's) reference
        released as it is consumed — peak memory is one output copy plus
        one chunk, not the eight full-size concatenations plus every
        source chunk the naive ``np.concatenate`` construction held.  The
        chunk buffer is consumed into a cached frozen prefix, so repeated
        freezes (and captures after a freeze) remain valid; the truth
        sidecar is untouched.
        """
        # Imported here to keep core importable without the analysis stack.
        from repro.analysis.records import PacketRecords

        spilled = self._spill.rows if self._spill is not None else 0
        if not spilled and not self._chunks:
            return (self._frozen if self._frozen is not None
                    else PacketRecords.empty())
        frozen = len(self._frozen) if self._frozen is not None else 0
        total = frozen + spilled + sum(len(c) for c in self._chunks)
        out = {col: np.empty(total, dtype=dtype)
               for col, dtype in _COLUMN_DTYPES.items()}
        position = 0
        if self._frozen is not None:
            for col in CAPTURE_COLUMNS:
                out[col][:frozen] = getattr(self._frozen, col)
            position = frozen
            self._frozen = None
        for chunk in self._consume_chunks():
            size = len(chunk)
            for col in CAPTURE_COLUMNS:
                out[col][position:position + size] = getattr(chunk, col)
            position += size
        self._frozen = PacketRecords(**out)
        return self._frozen
