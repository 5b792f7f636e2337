"""Packet capture into analysis-ready columnar records.

``PacketCapturer`` is the telescope's packet-capture stage:
:meth:`PacketCapturer.capture_batch` appends each batch's analysis-relevant
columns (timestamps, src/dst split into uint64 halves, protocol, ports) as
one numpy chunk.  ``to_records()`` freezes the chunks, in arrival order, into
:class:`repro.analysis.records.PacketRecords`.

The capturer is also the *provenance boundary*: a batch arriving with the
ground-truth ``origin`` column (the emitting agent's id) has that column
stripped from the analysis-facing chunk — a real telescope cannot see who
sent a packet — and the origin-bearing batch is retained in a sidecar,
frozen by :meth:`PacketCapturer.to_truth` into
:class:`repro.analysis.groundtruth.GroundTruthRecords` for detection
scoring.

Two storages, picked by the run mode: a batch run retains every chunk
until the freeze, and a streaming run drains the buffer at each day
boundary (:meth:`PacketCapturer.drain_day_records`), so it never holds
more than one day.
"""

from __future__ import annotations

import numpy as np

from repro.net.batch import PacketBatch, WireBatch
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


class PacketCapturer:
    """Columnar packet capture into in-memory chunks."""

    def __init__(self, name: str = "capture"):
        self.name = name
        #: Captured numpy chunks, in arrival order.
        self._chunks: list[PacketBatch] = []
        #: Origin-bearing batches retained at the provenance boundary, in
        #: arrival order (only batches that arrived with ``origin`` set).
        self._truth_chunks: list[PacketBatch] = []
        #: The last freeze's records: ``to_records`` consumes the chunk
        #: buffer (releasing per-chunk references), so repeated freezes
        #: serve — and later captures extend — this cached prefix.
        self._frozen = None
        self._packet_metric = get_registry().counter(
            f"telescope.{name}.packets"
        )

    def __len__(self) -> int:
        frozen = len(self._frozen) if self._frozen is not None else 0
        return frozen + sum(len(c) for c in self._chunks)

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
        self._chunks.append(batch.drop_origin())

    # -- chunk transfer (checkpoint capture + restore) ----------------------

    def chunks(self) -> tuple[list, list]:
        """The buffered (analysis, truth) chunks, in arrival order — what a
        checkpoint stores."""
        return list(self._chunks), list(self._truth_chunks)

    def extend_chunks(self, chunks, truth_chunks) -> None:
        """Append transferred chunks in arrival order (the checkpoint
        restore side).  Does not advance the capture metrics counter:
        transferred rows were counted where they were captured."""
        self._chunks.extend(chunks)
        self._truth_chunks.extend(truth_chunks)

    def drain_day_records(self):
        """Freeze and drop everything buffered since the last drain.

        The streaming-analysis path: each day boundary converts the day's
        chunks into one :class:`~repro.analysis.records.PacketRecords`
        chunk for the online trackers and releases them, so a run's peak
        memory holds one day, not the horizon.  Ground-truth sidecars are
        dropped first (streaming runs carry events, not records), so each
        chunk's arrays are freed as soon as they are copied.
        """
        from repro.analysis.records import PacketRecords

        self._truth_chunks.clear()
        if not self._chunks:
            return PacketRecords.empty()
        return self._freeze_chunks()

    def to_truth(self):
        """Freeze the provenance sidecar into
        :class:`repro.analysis.groundtruth.GroundTruthRecords`.

        Covers only the rows that arrived with an ``origin`` column (scanner
        emissions); batches without one — honeypot responses and
        hand-built packets — have no provenance and are not truth rows.
        """
        from repro.analysis.groundtruth import GroundTruthRecords

        return GroundTruthRecords.from_batches(self._truth_chunks)

    def _freeze_chunks(self, prefix=None):
        """``prefix`` records (if any) followed by every buffered chunk, in
        arrival order, as one :class:`~repro.analysis.records.PacketRecords`.

        Columns are preallocated at the final size and filled chunk by
        chunk, each chunk reference released as it is copied; the chunk
        buffer is empty afterwards.
        """
        from repro.analysis.records import PacketRecords

        chunks = self._chunks
        self._chunks = []
        if prefix is not None:
            chunks.insert(0, prefix)
        total = sum(len(c) for c in chunks)
        out = {col: np.empty(total, dtype=dtype)
               for col, dtype in _COLUMN_DTYPES.items()}
        position = 0
        for i in range(len(chunks)):
            chunk = chunks[i]
            chunks[i] = None
            size = len(chunk)
            for col in CAPTURE_COLUMNS:
                out[col][position:position + size] = getattr(chunk, col)
            position += size
        return PacketRecords(**out)

    def to_records(self):
        """Freeze into :class:`repro.analysis.records.PacketRecords`.

        The output columns are preallocated once, not built by eight
        full-size ``np.concatenate`` calls.  Peak memory is still the
        output plus every captured chunk: the truth sidecar shares the
        chunks' column arrays (:meth:`to_truth` needs them after this), so
        releasing a chunk here frees nothing.  The chunk buffer is consumed
        into a cached frozen prefix, so repeated freezes (and captures
        after a freeze) remain valid; the truth sidecar is untouched.
        """
        # Imported here to keep core importable without the analysis stack.
        from repro.analysis.records import PacketRecords

        if self._chunks:
            self._frozen = self._freeze_chunks(self._frozen)
        return (self._frozen if self._frozen is not None
                else PacketRecords.empty())
