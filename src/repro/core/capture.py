"""Packet capture into analysis-ready columnar records.

``PacketCapturer`` is the telescope's packet-capture stage:
:meth:`PacketCapturer.capture_batch` appends each batch's analysis-relevant
columns (timestamps, src/dst split into uint64 halves, protocol, ports) as
one numpy chunk.  ``to_records()`` freezes the chunks, in arrival order, into
:class:`repro.analysis.records.PacketRecords`.

The capturer is also the *provenance boundary*: a batch arriving with the
ground-truth ``origin`` column (the emitting agent's id) keeps it in its
chunk, but the frozen records never carry it — a real telescope cannot see
who sent a packet.  The freeze fills ``origin`` as one int32 column aligned
row for row with the records (:data:`~repro.net.batch.UNKNOWN_ORIGIN` on
rows that arrived without one), and :meth:`PacketCapturer.to_truth` serves
it for detection scoring.

Two storages, picked by the run mode: a batch run retains every chunk
until the freeze, and a streaming run drains the buffer at each day
boundary (:meth:`PacketCapturer.drain_day_records`), so it never holds
more than one day.
"""

from __future__ import annotations

import numpy as np

from repro.net.batch import UNKNOWN_ORIGIN, PacketBatch, WireBatch
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
        #: Captured batches in arrival order, ``origin`` included when the
        #: batch arrived with one.
        self._chunks: list[PacketBatch] = []
        #: The last freeze's records and their aligned ``origin`` column:
        #: a freeze consumes the chunk buffer (releasing per-chunk
        #: references), so repeated freezes serve — and later captures
        #: extend — this cached prefix.
        self._frozen = None
        self._frozen_origin = None
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
        self._chunks.append(batch)

    # -- chunk transfer (checkpoint capture + restore) ----------------------

    def chunks(self) -> list[PacketBatch]:
        """Every captured row as batches in arrival order, the frozen
        prefix (if any) first — what a checkpoint stores."""
        if self._frozen is None:
            return list(self._chunks)
        return [self._frozen_batch(), *self._chunks]

    def extend_chunks(self, chunks) -> None:
        """Append transferred chunks in arrival order (the checkpoint
        restore side).  Does not advance the capture metrics counter:
        transferred rows were counted where they were captured."""
        self._chunks.extend(chunks)

    def drain_day_records(self):
        """Freeze and drop everything buffered since the last drain.

        The streaming-analysis path: each day boundary converts the day's
        chunks into one :class:`~repro.analysis.records.PacketRecords`
        chunk for the online trackers and releases them, so no packet
        outlives its day.  Streaming runs carry
        events, not records, so the day's ``origin`` column is dropped.
        """
        from repro.analysis.records import PacketRecords

        if not self._chunks:
            return PacketRecords.empty()
        return self._freeze_chunks()[0]

    # -- freeze -------------------------------------------------------------

    def _frozen_batch(self) -> PacketBatch:
        """The cached freeze as one origin-bearing batch (shared arrays)."""
        return PacketBatch(
            **{col: getattr(self._frozen, col) for col in CAPTURE_COLUMNS},
            origin=self._frozen_origin,
        )

    def _freeze_chunks(self, prefix=None):
        """``prefix`` (if any) followed by every buffered chunk, in arrival
        order, as one :class:`~repro.analysis.records.PacketRecords` and its
        aligned int32 ``origin`` column.

        Columns are preallocated at the final size and filled chunk by
        chunk, each chunk reference released as soon as it is copied; the
        chunk buffer is empty afterwards.
        """
        from repro.analysis.records import PacketRecords

        chunks = self._chunks
        self._chunks = []
        if prefix is not None:
            chunks.insert(0, prefix)
        total = sum(len(c) for c in chunks)
        out = {col: np.empty(total, dtype=dtype)
               for col, dtype in _COLUMN_DTYPES.items()}
        origin = np.empty(total, dtype=np.int32)
        position = 0
        for i in range(len(chunks)):
            chunk = chunks[i]
            chunks[i] = None
            end = position + len(chunk)
            for col in CAPTURE_COLUMNS:
                out[col][position:end] = getattr(chunk, col)
            origin[position:end] = (UNKNOWN_ORIGIN if chunk.origin is None
                                    else chunk.origin)
            position = end
        return PacketRecords(**out), origin

    def _freeze(self) -> None:
        """Fold buffered chunks into the cached freeze."""
        if self._chunks:
            prefix = None if self._frozen is None else self._frozen_batch()
            self._frozen, self._frozen_origin = self._freeze_chunks(prefix)

    def to_records(self):
        """Freeze into :class:`repro.analysis.records.PacketRecords`.

        The output columns are preallocated once, not built by eight
        full-size ``np.concatenate`` calls.  The chunk buffer is consumed
        into a cached frozen prefix, so repeated freezes (and captures
        after a freeze) remain valid.
        """
        # Imported here to keep core importable without the analysis stack.
        from repro.analysis.records import PacketRecords

        self._freeze()
        return (self._frozen if self._frozen is not None
                else PacketRecords.empty())

    def to_truth(self) -> np.ndarray:
        """The frozen ``origin`` column: the emitting agent's id per row,
        aligned row for row with :meth:`to_records`.

        Rows that arrived without ``origin`` — honeypot responses and
        hand-built packets — have no provenance and read
        :data:`~repro.net.batch.UNKNOWN_ORIGIN`.
        """
        self._freeze()
        return (self._frozen_origin if self._frozen_origin is not None
                else np.empty(0, dtype=np.int32))
