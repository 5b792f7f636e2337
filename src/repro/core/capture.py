"""Packet capture into analysis-ready columnar records.

``PacketCapturer`` is the telescope's packet-capture stage:
:meth:`PacketCapturer.capture_batch` copies each
:class:`~repro.net.batch.PacketBatch` into one growable columnar store, in
arrival order, and ``to_records()`` hands the store's columns out as
:class:`repro.analysis.records.PacketRecords` without copying them.

The capturer is also the *provenance boundary*: a batch arriving with the
ground-truth ``origin`` column (the emitting agent's id) keeps it in the
store's ``origin`` column, but the frozen records never carry it — a real
telescope cannot see who sent a packet.  Rows that arrived without one
(hand-built packets) read :data:`~repro.net.batch.UNKNOWN_ORIGIN`, and
:meth:`PacketCapturer.to_truth` serves the column, aligned row for row
with the records, for detection scoring.

Each captured row lives in one place.  The store's arrays are
preallocated and grow in place by at least an eighth at a time, so a
capture copies only its own rows.  A freeze trims the store and hands
its arrays out; the capturer then keeps them as its frozen prefix, one
origin-bearing ``PacketBatch``, and starts a fresh store, so no array
that was handed out is ever resized or written again.  A batch run
retains the store until the freeze, and a streaming run drains it at
each day boundary (:meth:`PacketCapturer.drain_day_records`, which
returns the day's records and their ``origin``), so it never holds more
than one day.
"""

from __future__ import annotations

import numpy as np

from repro.net.batch import (
    CAPTURE_COLUMNS,
    COLUMN_DTYPES,
    UNKNOWN_ORIGIN,
    PacketBatch,
)
from repro.obs import get_registry

#: Capacity growth factor of the store.  Small enough that the unused
#: tail stays an eighth of the rows at most (the same peak as growing to
#: the exact size), large enough that many small captures cost few
#: reallocations.
_GROWTH = 1.125


def _empty_columns() -> dict[str, np.ndarray]:
    return {col: np.empty(0, dtype=dtype)
            for col, dtype in COLUMN_DTYPES.items()}


class PacketCapturer:
    """Columnar packet capture into one growable in-memory store."""

    def __init__(self, name: str = "capture"):
        self.name = name
        #: The store: one array per column, the first ``_size`` rows
        #: filled.  Only this dict references the arrays between calls,
        #: which is what lets them grow in place.
        self._columns = _empty_columns()
        self._size = 0
        #: The rows every freeze so far handed out, ``origin`` included:
        #: arrays never written again, which repeated freezes serve and a
        #: later freeze extends.
        self._frozen = PacketBatch.allocate(0, origin=True)
        self._packet_metric = get_registry().counter(
            f"telescope.{name}.packets"
        )

    def __len__(self) -> int:
        return len(self._frozen) + self._size

    # -- the store ----------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows.

        A fresh store is allocated at the size asked for.  A filled one
        grows by at least :data:`_GROWTH`, in place when no view of it is
        alive (``resize`` refuses otherwise, and the rows are copied into
        a new array, leaving every view valid).
        """
        needed = self._size + extra
        capacity = len(self._columns["ts"])
        if needed <= capacity:
            return
        if self._size == 0:
            self._columns = {col: np.empty(needed, dtype=dtype)
                             for col, dtype in COLUMN_DTYPES.items()}
            return
        capacity = max(needed, int(capacity * _GROWTH))
        for col in COLUMN_DTYPES:
            try:
                self._columns[col].resize(capacity, refcheck=True)
            except ValueError:
                grown = np.empty(capacity, dtype=COLUMN_DTYPES[col])
                grown[:self._size] = self._columns[col][:self._size]
                self._columns[col] = grown

    def _append(self, batch: PacketBatch) -> PacketBatch:
        """Copy ``batch`` into the store; returns the stored rows (views)."""
        start = self._size
        end = start + len(batch)
        self._reserve(len(batch))
        columns = self._columns
        for col in CAPTURE_COLUMNS:
            columns[col][start:end] = getattr(batch, col)
        columns["origin"][start:end] = (UNKNOWN_ORIGIN if batch.origin is None
                                        else batch.origin)
        self._size = end
        return PacketBatch(
            **{col: columns[col][start:end] for col in CAPTURE_COLUMNS},
            origin=(None if batch.origin is None
                    else columns["origin"][start:end]),
        )

    def _take(self) -> dict[str, np.ndarray]:
        """Hand out the store's filled rows, trimmed in place where no view
        is alive, and start a fresh store."""
        size = self._size
        columns = self._columns
        self._columns = _empty_columns()
        self._size = 0
        for col in COLUMN_DTYPES:
            try:
                columns[col].resize(size, refcheck=True)
            except ValueError:
                columns[col] = columns[col][:size]
        return columns

    # -- capture ----------------------------------------------------------

    def capture_batch(self, batch: PacketBatch) -> PacketBatch:
        """Append a whole columnar batch to the store.

        Returns the stored rows as a batch of views into the store
        (``origin`` included when the batch carried one), so a caller can
        drop its own copy and read the rows from here.  Holding the views
        across later captures is correct but makes the store copy when it
        grows.
        """
        if len(batch) == 0:
            return batch
        self._packet_metric.inc(len(batch))
        return self._append(batch)

    # -- chunk transfer (checkpoint capture + restore) ----------------------

    def chunks(self, start: int = 0) -> list[PacketBatch]:
        """Every captured row from row ``start`` on as origin-bearing
        batches in arrival order, the frozen prefix (if any) first — what
        a checkpoint stores.  The batches share the capturer's arrays."""
        chunks = [self._frozen, PacketBatch(
            **{col: rows[:self._size] for col, rows in self._columns.items()})]
        tail = []
        for chunk in chunks:
            if start < len(chunk):
                tail.append(chunk.rows(start, len(chunk)) if start else chunk)
            start = max(0, start - len(chunk))
        return tail

    def extend_chunks(self, chunks) -> None:
        """Append transferred chunks in arrival order (the checkpoint
        restore side).  Does not advance the capture metrics counter:
        transferred rows were counted where they were captured."""
        chunks = [c for c in chunks if len(c)]
        self._reserve(sum(len(c) for c in chunks))
        for chunk in chunks:
            self._append(chunk)

    def drain_day_records(self):
        """Hand out and drop everything captured since the last drain.

        The streaming-analysis path: each day boundary hands the day's
        rows to the online trackers as one
        :class:`~repro.analysis.records.PacketRecords` chunk and its
        aligned int32 ``origin`` column, straight from the store's arrays,
        and starts a fresh store, so no packet outlives its day.  Returns
        ``(records, origin)``.
        """
        from repro.analysis.records import PacketRecords

        if not self._size:
            return PacketRecords.empty(), np.empty(0, dtype=np.int32)
        columns = self._take()
        origin = columns.pop("origin")
        return PacketRecords(**columns), origin

    # -- freeze -------------------------------------------------------------

    def _freeze(self) -> None:
        """Fold the store into the frozen prefix.

        The first freeze hands the store's own arrays out; a later one
        concatenates the frozen prefix and the new rows into fresh
        arrays, leaving the earlier freeze's arrays untouched.
        """
        if not self._size:
            return
        columns = self._take()
        if len(self._frozen):
            columns = {col: np.concatenate([getattr(self._frozen, col), rows])
                       for col, rows in columns.items()}
        self._frozen = PacketBatch(**columns)

    def to_records(self):
        """Freeze into :class:`repro.analysis.records.PacketRecords`.

        The records' columns are the frozen prefix's arrays, handed out
        without a copy.  Repeated freezes serve the frozen prefix, and
        captures after a freeze go to a fresh store that the next freeze
        appends to it.
        """
        # Imported here to keep core importable without the analysis stack.
        from repro.analysis.records import PacketRecords

        self._freeze()
        return PacketRecords(**{col: getattr(self._frozen, col)
                                for col in CAPTURE_COLUMNS})

    def to_truth(self) -> np.ndarray:
        """The frozen ``origin`` column: the emitting agent's id per row,
        aligned row for row with :meth:`to_records`.

        Rows that arrived without ``origin`` (hand-built packets) have no
        provenance and read :data:`~repro.net.batch.UNKNOWN_ORIGIN`.
        """
        self._freeze()
        return self._frozen.origin
