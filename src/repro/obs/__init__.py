"""Lightweight observability for the telescope pipeline.

Three cooperating layers, each process-wide and disabled by default:

* **metrics** (:mod:`repro.obs.registry`) — counters, gauges, stage
  timings.  Components bind their metric objects at construction
  time, so enable metrics *before* building the scenario.
* **tracing** (:mod:`repro.obs.trace`) — nested spans with attributes,
  exportable as Chrome/Perfetto trace-event JSON plus a self-time table.
  Instrumented code fetches the tracer at call time, so a tracer can be
  installed at any point.
* **journal** (:mod:`repro.obs.journal`) — an append-only JSONL record of
  the run's consequential events (manifest, per-day progress, session and
  honeyprefix lifecycle, detection summaries), making two runs diffable
  from artifacts alone.

Pipeline stages are instrumented with one primitive,
:func:`~repro.obs.stage.stage`: ``with stage(name, **attrs):`` times the
block into the active registry's ``Timing(name)`` and opens a span
``name`` under the active tracer, both fetched at call time.

Until something calls the ``set_*`` installers (or the CLI's
``--metrics``/``--trace``/``--journal`` flags do), every layer is a shared
no-op null object and the instrumented hot paths cost one no-op method
call per event.
"""

from repro.obs.journal import (
    JOURNAL_SCHEMA_VERSION,
    Journal,
    JournalError,
    JournalTail,
    NULL_JOURNAL,
    NullJournal,
    RECORD_SCHEMAS,
    RecordingJournal,
    RunManifest,
    config_hash,
    get_journal,
    load_manifest,
    read_journal,
    set_journal,
    use_journal,
    validate_record,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    Timing,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.rss import PEAK_RSS_GAUGE, peak_rss_bytes, sample_peak_rss
from repro.obs.stage import stage
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "JournalError",
    "JournalTail",
    "MetricsRegistry",
    "NULL_JOURNAL",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullJournal",
    "NullRegistry",
    "NullTracer",
    "PEAK_RSS_GAUGE",
    "RECORD_SCHEMAS",
    "RecordingJournal",
    "RunManifest",
    "Span",
    "Timing",
    "Tracer",
    "config_hash",
    "get_journal",
    "get_registry",
    "get_tracer",
    "load_manifest",
    "peak_rss_bytes",
    "read_journal",
    "sample_peak_rss",
    "set_journal",
    "set_registry",
    "set_tracer",
    "stage",
    "use_journal",
    "use_registry",
    "use_tracer",
    "validate_record",
]
