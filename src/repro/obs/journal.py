"""Run-provenance journal: append-only JSONL event records.

Every consequential event of a scenario run — the run manifest, per-day
progress, scanner session lifecycle, honeyprefix deployment/retraction,
detection summaries — is appended as one JSON line, so two runs are
diffable from their artifacts alone and a crashed run is auditable up to
its last complete line.

Records are schema-versioned: each line carries ``{"v": <version>,
"type": <record type>, ...}`` and :data:`RECORD_SCHEMAS` lists the fields a
record of each type must carry.  The reader validates both, and tolerates
exactly one torn record at the end of the file (the realistic crash-mid-
write failure mode); a torn or unknown record anywhere else is an error.

The process-wide active journal mirrors the metrics-registry design: it
defaults to :data:`NULL_JOURNAL`, whose ``emit`` is a no-op, so journal
calls in the simulation loop are free until a run opens one.  All
timestamps in journal records are *simulation* seconds — never wall clock
— so the journal of a seeded run is bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from typing import IO, Iterator

#: Bump when a record type changes incompatibly; readers reject other
#: versions outright (no silent best-effort parsing of future formats).
JOURNAL_SCHEMA_VERSION = 1

#: record type -> field names every record of that type must carry
#: (records may carry extra fields; missing required fields are an error).
RECORD_SCHEMAS: dict[str, frozenset] = {
    # one per run, first line: everything needed to reproduce the run
    "run_manifest": frozenset(
        {"config_hash", "seed", "repro_version", "config"}),
    # one per simulated day
    "day": frozenset({"day", "emitted"}),
    # scanner session lifecycle
    "session_start": frozenset({"agent", "asn", "trigger", "at"}),
    "session_cancel": frozenset({"agent", "asn", "prefix", "at"}),
    "session_drop": frozenset({"agent", "asn", "at"}),
    # honeyprefix lifecycle
    "deploy": frozenset({"name", "prefix", "at"}),
    "retract": frozenset({"name", "prefix", "at"}),
    # analysis summaries
    "detection": frozenset(
        {"source_length", "min_targets", "timeout", "records_in",
         "events_out"}),
    # streaming analysis: one per telescope per day, emitted right after
    # the day record — the incremental detector's progress ledger (how
    # many records it consumed, events it closed, sessions still open).
    "stream_detection": frozenset(
        {"day", "telescope", "records_in", "events_closed",
         "open_sessions"}),
    # scenario-cache provenance: a run served from (or written to) the
    # on-disk result cache records where its bytes came from / went to.
    "cache_hit": frozenset({"config_hash", "path"}),
    "cache_store": frozenset({"config_hash", "path"}),
    # engine-state checkpoint written at a day boundary; carries only
    # deterministic fields (never wall clock or absolute paths) so a
    # resumed run's journal stays byte-identical to an uninterrupted one.
    "checkpoint": frozenset({"day", "config_hash"}),
    # one per run, last line
    "run_end": frozenset({"days", "packets"}),
    # longitudinal observatory (repro.observatory): one validated record
    # per simulated day, written to data/observer-NNNNN.json and mirrored
    # into data/observations.jsonl for live tailing.
    "observer": frozenset({"day", "telescopes", "tactics", "honeyprefixes"}),
    # closing line of observations.jsonl — the SSE stream's terminator.
    "observatory_end": frozenset({"days", "records"}),
    # append-only long-horizon index entry (data/index.jsonl): pins each
    # emitted day file by content hash.
    "observer_index": frozenset({"day", "file", "sha256"}),
}


class JournalError(ValueError):
    """A malformed, unknown, or wrong-version journal record."""


def config_hash(config) -> str:
    """Stable short hash of a scenario config (dataclass or plain dict)."""
    payload = asdict(config) if is_dataclass(config) else dict(config)
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """The run's identity, reconstructed from its ``run_manifest`` record.

    Two runs with equal manifests started from the same configuration,
    seed, and package version — their journals and results should be
    byte-diffable.
    """

    schema_version: int
    config_hash: str
    seed: int
    repro_version: str
    config: dict

    @classmethod
    def from_config(cls, config) -> "RunManifest":
        from repro import __version__

        payload = asdict(config) if is_dataclass(config) else dict(config)
        return cls(
            schema_version=JOURNAL_SCHEMA_VERSION,
            config_hash=config_hash(config),
            seed=int(payload.get("seed", 0)),
            repro_version=__version__,
            config=payload,
        )

    @classmethod
    def from_record(cls, record: dict) -> "RunManifest":
        return cls(
            schema_version=record["v"],
            config_hash=record["config_hash"],
            seed=record["seed"],
            repro_version=record["repro_version"],
            config=record["config"],
        )

    def to_record_fields(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "repro_version": self.repro_version,
            "config": self.config,
        }


#: One encoder for every record line (``json.dumps`` would build a new
#: encoder per call).
_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def _encode_record(record_type: str, fields: dict) -> str:
    """Validate one record and encode it as its journal line (no
    newline): sorted-key JSON with the ``v`` and ``type`` fields."""
    validate_record(dict(fields, v=JOURNAL_SCHEMA_VERSION, type=record_type))
    return _ENCODER.encode(
        {"v": JOURNAL_SCHEMA_VERSION, "type": record_type, **fields})


class Journal:
    """Append-only JSONL journal writer."""

    enabled = True

    def __init__(self, path_or_stream: str | IO[str]):
        if hasattr(path_or_stream, "write"):
            self._stream: IO[str] = path_or_stream  # type: ignore[assignment]
            self._owns_stream = False
        else:
            # Line-buffered: every record reaches the file as soon as it is
            # emitted, so another process (the scenario service's progress
            # stream) can tail a journal that is still being written.
            self._stream = open(path_or_stream, "w", buffering=1)
            self._owns_stream = True
        self.records_written = 0

    def emit(self, record_type: str, **fields) -> None:
        """Append one record; validates the type and required fields."""
        self.write_line(_encode_record(record_type, fields))

    def write_line(self, line: str) -> None:
        """Append one already-encoded record line (no newline): how a
        resumed run replays the stored journal of its checkpoint."""
        self._stream.write(line + "\n")
        self.records_written += 1

    def flush(self) -> None:
        """Flush any buffered lines to the underlying stream."""
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._owns_stream and self._stream is not None:
            self._stream.close()
        self._stream = None  # type: ignore[assignment]


class NullJournal(Journal):
    """Disabled journal: ``emit`` is free."""

    enabled = False

    def __init__(self):
        self._stream = None  # type: ignore[assignment]
        self._owns_stream = False
        self.records_written = 0

    def emit(self, record_type: str, **fields) -> None:
        pass

    def write_line(self, line: str) -> None:
        pass

    def close(self) -> None:
        pass


class RecordingJournal(Journal):
    """A journal that keeps every record line and forwards it to ``inner``.

    Checkpointing builds on this: the runner wraps the active journal in a
    recorder for the duration of a run; a checkpoint then stores
    :attr:`lines`, and a resumed run writes them back through
    :meth:`Journal.write_line`, keeping the resumed journal byte-identical
    to an uninterrupted one.  Each record is encoded once, here.
    """

    enabled = True

    def __init__(self, inner: Journal):
        self.inner = inner
        self.lines: list[str] = []
        self.records_written = 0

    def write_line(self, line: str) -> None:
        self.lines.append(line)
        self.records_written += 1
        self.inner.write_line(line)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        pass


#: The shared disabled journal; also the default active journal.
NULL_JOURNAL = NullJournal()

_active: Journal = NULL_JOURNAL


def get_journal() -> Journal:
    """The active journal (the null journal unless a run opened one)."""
    return _active


def set_journal(journal: Journal | None) -> Journal:
    """Install ``journal`` (None restores the null journal); returns the
    previously active one so callers can restore it."""
    global _active
    previous = _active
    _active = journal if journal is not None else NULL_JOURNAL
    return previous


@contextmanager
def use_journal(journal: Journal | None) -> Iterator[Journal]:
    """Scoped :func:`set_journal` for tests and embedded callers."""
    previous = set_journal(journal)
    try:
        yield get_journal()
    finally:
        set_journal(previous)


# -- reading ---------------------------------------------------------------

def validate_record(record: dict) -> dict:
    """Validate one parsed record against the schema; returns it."""
    if not isinstance(record, dict):
        raise JournalError(f"journal record is not an object: {record!r}")
    version = record.get("v")
    if version != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"unsupported journal schema version {version!r} "
            f"(this reader understands {JOURNAL_SCHEMA_VERSION})"
        )
    record_type = record.get("type")
    required = RECORD_SCHEMAS.get(record_type)
    if required is None:
        raise JournalError(f"unknown journal record type {record_type!r}")
    missing = required - record.keys()
    if missing:
        raise JournalError(
            f"{record_type} record missing fields {sorted(missing)}"
        )
    return record


def read_journal(path) -> list[dict]:
    """Read and validate a journal file.

    A JSON parse failure on the *final* line is tolerated (a process that
    died mid-write tears at most its last record); anywhere else — or any
    schema violation — raises :class:`JournalError`.
    """
    with open(path) as stream:
        lines = stream.read().splitlines()
    records: list[dict] = []
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as error:
            if i == last:
                break  # torn final record: crash-mid-write, keep the rest
            raise JournalError(
                f"corrupt journal record on line {i + 1}: {error}"
            ) from error
        records.append(validate_record(parsed))
    return records


def load_manifest(path) -> RunManifest:
    """Reconstruct the :class:`RunManifest` from a journal file."""
    for record in read_journal(path):
        if record["type"] == "run_manifest":
            return RunManifest.from_record(record)
    raise JournalError(f"{path} contains no run_manifest record")


# -- tailing ---------------------------------------------------------------

class JournalTail:
    """Incremental reader of a journal another process is still writing.

    Each :meth:`poll` returns the records completed since the last poll.
    Only newline-terminated lines are parsed: the unterminated tail of the
    file — the torn final record of a writer killed mid-write — stays
    buffered until its newline arrives, and is simply never yielded if the
    writer is dead.  A *complete* line that fails to parse or validate is
    real corruption and raises :class:`JournalError` (mirroring
    :func:`read_journal`'s strictness away from the crash point).

    The tail reopens the file on every poll, so it follows a journal that
    a resumed run rewrote from scratch: if the file shrank (truncation for
    replay), the offset resets and records stream again from the top —
    the resumed journal replays its full history, so re-reading from zero
    is the byte-compatible continuation.
    """

    def __init__(self, path):
        self.path = path
        self.offset = 0
        self.records_read = 0

    def poll(self) -> list[dict]:
        """Validated records newly completed since the previous poll."""
        try:
            with open(self.path, "rb") as stream:
                stream.seek(0, 2)
                size = stream.tell()
                if size < self.offset:
                    # Truncated and rewritten (a resumed run replaying its
                    # history): restart from the top.
                    self.offset = 0
                    self.records_read = 0
                stream.seek(self.offset)
                payload = stream.read()
        except FileNotFoundError:
            return []
        complete, newline, _partial = payload.rpartition(b"\n")
        if not newline:
            return []
        self.offset += len(complete) + 1
        records = []
        for line in complete.split(b"\n"):
            if not line.strip():
                continue
            try:
                parsed = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise JournalError(
                    f"corrupt journal record in {self.path}: {error}"
                ) from error
            records.append(validate_record(parsed))
        self.records_read += len(records)
        return records

