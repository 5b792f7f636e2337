"""One on-disk run store: finished scenario runs and their checkpoints.

An entry is one directory per (package version, config hash, run mode),
keyed ``<repro version>-<config hash>-<mode>`` with mode ``batch``,
``stream`` or ``observe``; the hash covers every :class:`ScenarioConfig`
field, and the version invalidates every entry on upgrade.  Its
``manifest.json`` holds the run manifest fields, the mode, ``next_day``
(the first day still to simulate), the dispatch counters, a SHA-256 per
payload file and a checksum of the manifest itself.

* A **completed** entry (``next_day == duration_days``) is a frozen
  :class:`~repro.sim.runner.ScenarioResult`: ``nta/ntb/ntc.npz`` (the
  columnar captures, empty for stream runs), ``origin-<telescope>.npy``
  (batch runs), ``meta.pkl`` (the :class:`FrozenScenario`),
  ``streams.pkl`` (stream and observe runs: the stream summaries) and the
  ``observer-NNNNN.json`` day files (observe runs).
* A **mid-run** entry is a checkpoint: what a resumed run cannot cheaply
  recompute, never the engine queue, RNG states or scanner sessions
  (``PaperScenario.replay_day`` re-derives those).  Each checkpoint
  appends ``captures.NNNNN.pkl`` (batch runs: the chunks captured since
  the previous checkpoint, ``origin`` included) and
  ``journal.NNNNN.jsonl`` (the journal lines since), and stream and
  observe runs write ``state.NNNNN.pkl`` (analyzers and observer cursor)
  whole.  ``NNNNN`` is the checkpoint's ``next_day``, so a checkpoint
  never overwrites a file the committed manifest lists.

One writer, :meth:`ScenarioCache._commit`, writes the payloads, then
swaps the manifest in with ``os.replace`` (the commit point), then
deletes the files it no longer lists: a kill or a failed write leaves
the previous entry verifiable.  One verifier,
:meth:`ScenarioCache._verified_manifest`, serves every load, probe and
resume, and checks every file before anything is deserialized; a stale,
torn or corrupt entry is a miss, and the caller re-simulates.

Lifecycle management (the scenario service's warm tier builds on it):
:meth:`ScenarioCache.entries` and :meth:`total_bytes` account sizes
(``total_bytes`` matches ``du --apparent-size`` of the root);
:meth:`evict` removes least-recently-used entries (recency: the entry
directory's mtime, touched by loads and probes) until they fit
``max_bytes``, but never a pinned entry (``pins.json``) or one in
``protect`` — the service's in-flight run ids, checkpoints included,
since a checkpoint shares its run's key.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exec.freeze import freeze_result
from repro.obs import RunManifest, get_journal, get_registry, stage

#: Bump when the entry layout changes incompatibly; entries of another
#: version read as misses.
#: 2: one ``origin`` array per telescope replaces the truth sidecar tables.
#: 3: checkpoints are mid-run entries; the key and manifest carry the mode.
#: 4: observe checkpoints hold their seen sources as key columns, not sets.
#: 5: stream checkpoints hold open sessions' targets as ids into one
#:    target table per telescope, not as (hi, lo) columns per tracker.
CACHE_SCHEMA_VERSION = 5

#: The telescopes, in capture order, with their record file stems.
_TELESCOPES = (("NT-A", "nta"), ("NT-B", "ntb"), ("NT-C", "ntc"))

#: The run modes, one entry each.
MODES = ("batch", "stream", "observe")

_MANIFEST = "manifest.json"

#: Mid-run payloads that later checkpoints keep and append to.
_SEGMENTS = ("captures.", "journal.")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_file(path: Path, payload) -> str:
    """Write ``payload`` (bytes, or a function writing the stream) to
    ``path``; returns its SHA-256.  Every byte the store writes goes here."""
    with open(path, "wb") as stream:
        if isinstance(payload, bytes):
            stream.write(payload)
            return hashlib.sha256(payload).hexdigest()
        payload(stream)
    return _sha256(path)


def _pickled(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class CacheMiss(Exception):
    """Internal: entry absent, stale, or failed verification."""


def _manifest_digest(manifest: dict) -> str:
    """Canonical digest of the manifest minus its own checksum field."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    payload = json.dumps(body, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class StoredRun:
    """One verified entry, deserialized: a completed run or a checkpoint."""

    path: Path
    complete: bool
    #: First day the run still has to simulate.
    next_day: int
    #: The verified manifest (``counters``: nta, ntb, ntc, live_dropped,
    #: unrouted).
    manifest: dict
    #: Completed: telescope name -> records, -> ``origin``; the scenario.
    records: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)
    scenario: object = None
    #: Telescope name -> ``StreamSummary`` (completed) or
    #: ``StreamAnalyzer`` (mid-run); None for batch runs.
    streams: dict | None = None
    #: Observe runs: the ``{"days", "records"}`` summary (completed) or
    #: the observer cursor (mid-run).
    observatory: object = None
    #: Completed observe runs: day file name -> bytes.
    day_files: dict = field(default_factory=dict)
    #: Mid-run: telescope name -> captured chunks (batch runs), and the
    #: journal lines so far.
    captures: dict = field(default_factory=dict)
    journal: list = field(default_factory=list)

    def result(self):
        """The completed entry as a :class:`ScenarioResult`, journaled
        as a ``cache_hit``."""
        from repro.sim.runner import ScenarioResult

        get_journal().emit("cache_hit", path=str(self.path),
                           config_hash=self.manifest["config_hash"])
        registry = get_registry()
        return ScenarioResult(
            scenario=self.scenario, nta=self.records["NT-A"],
            ntb=self.records["NT-B"], ntc=self.records["NT-C"],
            telemetry=registry.snapshot() if registry.enabled else {},
            truth=self.truth, streaming=self.streams,
        )


#: Name of the root-level file recording pinned entry keys.
PINS_FILE = "pins.json"


@dataclass(frozen=True)
class CacheEntryInfo:
    """One entry's lifecycle accounting row."""

    key: str
    path: Path
    bytes: int
    #: Last-use time: the entry directory's mtime, refreshed by every
    #: successful load/probe (and set by every write into the entry).
    last_used: float
    pinned: bool


def _tree_bytes(root: Path) -> int:
    """Sum of apparent file sizes under ``root`` (matches ``du -b``
    minus directory-inode overhead; symlinks are not followed)."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue  # racing eviction/rewrite: file vanished
    return total


class ScenarioCache:
    """Content-addressed store of scenario runs, finished or mid-run.

    ``max_bytes`` sets the eviction budget enforced by :meth:`evict`
    (``None`` disables eviction entirely).
    """

    def __init__(self, cache_dir: str | os.PathLike,
                 max_bytes: int | None = None):
        self.root = Path(cache_dir)
        self.max_bytes = max_bytes
        self._memo = (None, {})

    # -- keys -------------------------------------------------------------

    def _run_fields(self, config) -> dict:
        """``config``'s run manifest fields, kept for the last config
        object and package version (a run commits several times)."""
        from repro import __version__

        if (self._memo[0] is not config
                or self._memo[1]["repro_version"] != __version__):
            self._memo = (config,
                          RunManifest.from_config(config).to_record_fields())
        return self._memo[1]

    def key(self, config, mode: str = "batch") -> str:
        fields = self._run_fields(config)
        return f"{fields['repro_version']}-{fields['config_hash']}-{mode}"

    def entry_dir(self, config, mode: str = "batch") -> Path:
        return self.root / self.key(config, mode)

    # -- write ------------------------------------------------------------

    def _commit(self, config, mode: str, next_day: int, counters,
                payloads: dict, kept: dict | None = None, **fields) -> dict:
        """Write one entry, returning its manifest: each payload (name ->
        bytes or a stream writer) via a temp file, then the manifest, whose
        ``os.replace`` commits, then drop files it does not list (``kept``
        lists files already on disk).  A failed write removes its temps."""
        entry = self.entry_dir(config, mode)
        entry.mkdir(parents=True, exist_ok=True)
        temps = {name: entry / f".{name}.{os.getpid()}.tmp"
                 for name in [*payloads, _MANIFEST]}
        try:
            files = dict(kept or {})
            files.update((name, _write_file(temps[name], payload))
                         for name, payload in payloads.items())
            manifest = {
                "cache_schema": CACHE_SCHEMA_VERSION,
                **self._run_fields(config),
                "mode": mode,
                "next_day": int(next_day),
                "counters": [int(counters.nta), int(counters.ntb),
                             int(counters.ntc), int(counters.live_dropped),
                             int(counters.unrouted)],
                **fields,
                "files": files,
            }
            # Self-checksum: the per-file digests cover every payload
            # byte, this covers every manifest byte — so a bit flip
            # anywhere in the entry fails verification.
            manifest["manifest_sha256"] = _manifest_digest(manifest)
            _write_file(temps[_MANIFEST], (json.dumps(
                manifest, sort_keys=True, default=repr) + "\n").encode())
            for name in payloads:
                os.replace(temps[name], entry / name)
            os.replace(temps[_MANIFEST], entry / _MANIFEST)
        except BaseException:
            for temp in temps.values():
                temp.unlink(missing_ok=True)
            raise
        for child in entry.iterdir():
            if child.name != _MANIFEST and child.name not in files:
                with contextlib.suppress(OSError):
                    child.unlink()
        return manifest

    def store(self, result) -> Path:
        """Persist a finished run as its mode's completed entry; returns
        the entry directory."""
        registry = get_registry()
        with stage("scenario.cache_store"):
            frozen = freeze_result(result)
            config = frozen.config
            mode = ("observe" if frozen.observatory is not None
                    else "batch" if frozen.streaming is None else "stream")
            records = frozen.telescopes()
            payloads = {f"{stem}.npz": records[name].save_npz
                        for name, stem in _TELESCOPES}
            truth_files = {f"origin-{name}.npy": name for name in frozen.truth}
            for filename, name in truth_files.items():
                payloads[filename] = functools.partial(
                    np.save, arr=frozen.truth[name], allow_pickle=False)
            payloads["meta.pkl"] = _pickled(frozen.scenario)
            fields = {"truth": truth_files}
            if mode != "batch":
                payloads["streams.pkl"] = _pickled(frozen.streaming)
            if mode == "observe":
                from repro.observatory.index import list_day_files

                summary = frozen.observatory
                for day, path in list_day_files(summary["directory"]):
                    if day < config.duration_days:
                        payloads[path.name] = path.read_bytes()
                fields["observatory"] = {"days": summary["days"],
                                         "records": summary["records"]}
            self._commit(config, mode, config.duration_days,
                         frozen.scenario.counters, payloads, **fields)
            entry = self.entry_dir(config, mode)
        registry.counter("scenario.cache.stores").inc()
        get_journal().emit(
            "cache_store",
            config_hash=self._run_fields(config)["config_hash"],
            path=str(entry))
        return entry

    def checkpoint(self, scenario, mode: str, next_day: int, journal,
                   streams: dict | None = None, cursor=None,
                   previous: dict | None = None) -> dict:
        """Persist a live run at a day boundary as its mode's mid-run
        entry; returns its manifest.  The capture and journal segments of
        ``previous`` (this run's last checkpoint manifest) are kept, and
        only the rows and lines since are written."""
        previous = previous or {"files": {}, "rows": {}, "lines": 0}
        kept = {name: sha for name, sha in previous["files"].items()
                if name.startswith(_SEGMENTS)}
        stamp = f"{next_day:05d}"
        payloads = {f"journal.{stamp}.jsonl": "".join(
            line + "\n" for line in journal[previous["lines"]:]).encode()}
        if mode == "batch":
            payloads[f"captures.{stamp}.pkl"] = _pickled(
                {name: cap.chunks(previous["rows"].get(name, 0))
                 for name, cap in scenario.capturers.items()})
        else:
            payloads[f"state.{stamp}.pkl"] = _pickled(
                {"streams": streams, "observatory": cursor})
        return self._commit(
            scenario.config, mode, next_day, scenario.counters, payloads,
            kept=kept, lines=len(journal),
            rows={name: len(cap) for name, cap in scenario.capturers.items()})

    # -- read -------------------------------------------------------------

    def _verified_manifest(self, config, mode: str, entry: Path) -> dict:
        """Read the manifest and checksum every file, or raise CacheMiss."""
        try:
            manifest = json.loads((entry / _MANIFEST).read_text())
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as error:
            raise CacheMiss(f"unreadable manifest: {error}") from error
        if not isinstance(manifest, dict):
            raise CacheMiss("manifest is not an object")
        declared = manifest.pop("manifest_sha256", None)
        if declared != _manifest_digest(manifest):
            raise CacheMiss("manifest self-checksum mismatch")
        fields = self._run_fields(config)
        for name, value in (("cache_schema", CACHE_SCHEMA_VERSION),
                            ("repro_version", fields["repro_version"]),
                            ("config_hash", fields["config_hash"]),
                            ("mode", mode)):
            if manifest.get(name) != value:
                raise CacheMiss(f"{name} mismatch")
        files = manifest.get("files")
        if not isinstance(files, dict) or not files:
            raise CacheMiss("manifest lists no files")
        for name, expected in files.items():
            path = entry / name
            if not path.is_file():
                raise CacheMiss(f"missing file {name}")
            if _sha256(path) != expected:
                raise CacheMiss(f"checksum mismatch on {name}")
        return manifest

    def _deserialize(self, config, mode: str, entry: Path,
                     manifest: dict) -> StoredRun:
        from repro.analysis.records import PacketRecords

        def unpickle(name):
            with open(entry / name, "rb") as stream:
                return pickle.load(stream)

        next_day = int(manifest["next_day"])
        stored = StoredRun(
            path=entry, complete=next_day >= config.duration_days,
            next_day=next_day, manifest=manifest)
        names = sorted(manifest["files"])
        if stored.complete:
            stored.records = {
                name: PacketRecords.load_npz(entry / f"{stem}.npz")
                for name, stem in _TELESCOPES}
            stored.truth = {
                name: np.load(entry / filename, allow_pickle=False)
                for filename, name in manifest["truth"].items()}
            stored.scenario = unpickle("meta.pkl")
            if mode != "batch":
                stored.streams = unpickle("streams.pkl")
            stored.observatory = manifest.get("observatory")
            stored.day_files = {name: (entry / name).read_bytes()
                                for name in names
                                if name.startswith("observer-")}
            return stored
        for name in names:
            if name.startswith("journal."):
                stored.journal += (entry / name).read_text().splitlines()
            elif name.startswith("captures."):
                for telescope, chunks in unpickle(name).items():
                    stored.captures.setdefault(telescope, []).extend(chunks)
        if mode != "batch":
            state = unpickle(f"state.{next_day:05d}.pkl")
            stored.streams = state["streams"]
            stored.observatory = state["observatory"]
        return stored

    def read(self, config, mode: str = "batch") -> StoredRun | None:
        """The verified entry for ``config`` in run ``mode``, completed or
        mid-run, or None: a corrupt or stale entry is a miss (and counts
        as ``scenario.cache.invalid``), never a crash.  Only a completed
        entry counts as a hit."""
        registry = get_registry()
        entry = self.entry_dir(config, mode)
        with stage("scenario.cache_load", key=entry.name) as span:
            try:
                manifest = self._verified_manifest(config, mode, entry)
                stored = self._deserialize(config, mode, entry, manifest)
            except (CacheMiss, OSError, pickle.UnpicklingError, EOFError,
                    ValueError, KeyError, TypeError) as miss:
                # A deserialization that tears after verification passed
                # is a miss too; the caller re-simulates.
                span.set(outcome="miss", reason=str(miss))
                if entry.exists():
                    registry.counter("scenario.cache.invalid").inc()
                registry.counter("scenario.cache.misses").inc()
                return None
            span.set(outcome="hit" if stored.complete else "resume")
        self._touch(entry)
        registry.counter("scenario.cache.hits" if stored.complete
                         else "scenario.cache.misses").inc()
        return stored

    def load(self, config, mode: str = "batch"):
        """The cached :class:`ScenarioResult` for ``config``, or None
        when no completed entry verifies."""
        stored = self.read(config, mode)
        if stored is None or not stored.complete:
            return None
        return stored.result()

    def probe(self, config, mode: str = "batch") -> bool:
        """True when a verified *completed* entry exists for ``config``:
        :meth:`read`'s verification without deserializing — the service's
        warm check, so a checkpoint is not warm.  Refreshes recency."""
        entry = self.entry_dir(config, mode)
        try:
            manifest = self._verified_manifest(config, mode, entry)
        except CacheMiss:
            return False
        if manifest["next_day"] < config.duration_days:
            return False
        self._touch(entry)
        return True

    # -- lifecycle: size accounting, pinning, eviction ---------------------

    @staticmethod
    def _touch(entry: Path) -> None:
        try:
            os.utime(entry)
        except OSError:
            pass  # entry raced away; the caller already has its data

    def total_bytes(self) -> int:
        """Apparent size of everything under the cache root — entries,
        the pin file, stray temp dirs — so it matches a ``du`` of the
        directory, not just the healthy entries."""
        if not self.root.is_dir():
            return 0
        return _tree_bytes(self.root)

    def entries(self) -> list[CacheEntryInfo]:
        """Accounting rows for every entry directory (named like a key,
        or holding a manifest), LRU first; other directories under the
        root, such as the service's ``journals``, are never evicted."""
        if not self.root.is_dir():
            return []
        pinned = self.pinned()
        rows = []
        for child in self.root.iterdir():
            if not child.is_dir() or not (child.name.endswith(MODES) or (
                    child / _MANIFEST).is_file()):
                continue
            try:
                last_used = child.stat().st_mtime
            except OSError:
                continue
            rows.append(CacheEntryInfo(
                key=child.name, path=child, bytes=_tree_bytes(child),
                last_used=last_used, pinned=child.name in pinned,
            ))
        rows.sort(key=lambda row: (row.last_used, row.key))
        return rows

    def _resolve_key(self, config_or_key) -> str:
        if isinstance(config_or_key, str):
            return config_or_key
        return self.key(config_or_key)

    def pinned(self) -> set[str]:
        """The pinned entry keys (empty when no pin file exists)."""
        path = self.root / PINS_FILE
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return set()
        pins = payload.get("pins", [])
        return {str(key) for key in pins} if isinstance(pins, list) else set()

    def _write_pins(self, pins: set[str]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"pins": sorted(pins)}, indent=2) + "\n"
        fd, tmp = tempfile.mkstemp(prefix=PINS_FILE + ".", dir=self.root)
        try:
            with os.fdopen(fd, "w") as stream:
                stream.write(payload)
            os.replace(tmp, self.root / PINS_FILE)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def pin(self, config_or_key) -> str:
        """Mark an entry as evict-proof; returns the pinned key."""
        key = self._resolve_key(config_or_key)
        self._write_pins(self.pinned() | {key})
        return key

    def unpin(self, config_or_key) -> str:
        """Remove an entry's pin (a no-op when it was not pinned)."""
        key = self._resolve_key(config_or_key)
        self._write_pins(self.pinned() - {key})
        return key

    def evict(self, protect=()) -> list[str]:
        """Remove least-recently-used entries until they fit ``max_bytes``.

        Pinned entries and any key in ``protect`` (the service passes its
        in-flight run ids) are never removed, even when that leaves the
        cache over budget.  Returns the evicted keys, oldest first, and
        keeps the ``scenario.cache.bytes`` gauge current.
        """
        registry = get_registry()
        evicted: list[str] = []
        if self.max_bytes is not None:
            protected = set(protect)
            rows = self.entries()
            entry_bytes = sum(row.bytes for row in rows)
            for row in rows:
                if entry_bytes <= self.max_bytes:
                    break
                if row.pinned or row.key in protected:
                    continue
                shutil.rmtree(row.path, ignore_errors=True)
                entry_bytes -= row.bytes
                evicted.append(row.key)
                registry.counter("scenario.cache.evictions").inc()
        registry.gauge("scenario.cache.bytes").set(self.total_bytes())
        return evicted
