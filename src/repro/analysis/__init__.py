"""Analysis pipeline: flow aggregation, scan detection, metadata joins,
telescope comparison, causal effect estimation, and the paper's
figure-specific analyses (scope, tactics, Hilbert maps).
"""

from repro.analysis.records import PacketRecords
from repro.analysis.flows import Flow, aggregate_flows
from repro.analysis.scandetect import ScanEvent, SessionTracker, detect_scans
from repro.analysis.jaccard import jaccard_similarity, overlap_report
from repro.analysis.asinfo import MetadataJoiner, SourceBreakdown
from repro.analysis.bstm import BstmModel, CausalImpact
from repro.analysis.effects import EffectEstimate, daily_series, estimate_effect
from repro.analysis.scope import scanner_scope
from repro.analysis.tactics import label_tactics
from repro.analysis.hilbert import hilbert_map
from repro.analysis.blocklist import (
    BlocklistEntry,
    recommend_blocklist,
    render_blocklist,
)
from repro.analysis.streaming import StreamAnalyzer, StreamSummary

__all__ = [
    "PacketRecords",
    "Flow",
    "aggregate_flows",
    "ScanEvent",
    "detect_scans",
    "jaccard_similarity",
    "overlap_report",
    "MetadataJoiner",
    "SourceBreakdown",
    "BstmModel",
    "CausalImpact",
    "EffectEstimate",
    "daily_series",
    "estimate_effect",
    "scanner_scope",
    "label_tactics",
    "hilbert_map",
    "BlocklistEntry",
    "recommend_blocklist",
    "render_blocklist",
    "SessionTracker",
    "StreamAnalyzer",
    "StreamSummary",
]
