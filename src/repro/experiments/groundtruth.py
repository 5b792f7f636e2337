"""Ground-truth detection scoring experiment.

Not a figure from the paper: the simulator's bonus experiment.  Because the
simulation knows which agent emitted every captured packet, the paper's
scan-event detector can be *graded* — precision, recall, fragmentation, and
merge rate at each of the paper's three source-aggregation levels (/128,
/64, /48).  The scores quantify the paper's motivation for aggregating
sources: per-address detection fragments rotating scanners (low recall,
high fragmentation), while coarse /48 aggregation merges co-located ones
(rising merge rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.groundtruth import DetectionScore, score_all_levels
from repro.net.batch import UNKNOWN_ORIGIN
from repro.sim.runner import ScenarioResult

#: The paper's three source-aggregation levels.
LEVELS: tuple[int, ...] = (128, 64, 48)


@dataclass(frozen=True)
class GroundTruthResult:
    """Detection scores per telescope per aggregation level."""

    #: telescope name -> {source_length -> score}
    scores: dict[str, dict[int, DetectionScore]]
    #: telescope name -> truth rows available
    truth_rows: dict[str, int]

    def render(self) -> str:
        lines = [
            "Ground truth — detection scored against the simulated "
            "scanner population",
        ]
        for name in sorted(self.scores):
            lines.append(
                f" {name} ({self.truth_rows.get(name, 0):,} truth packets)"
            )
            for length in sorted(self.scores[name], reverse=True):
                lines.append(self.scores[name][length].render_row())
        return "\n".join(lines)


def groundtruth(
    result: ScenarioResult,
    levels: tuple[int, ...] = LEVELS,
) -> GroundTruthResult:
    """Score scan detection against each telescope's ``origin`` column."""
    scores: dict[str, dict[int, DetectionScore]] = {}
    truth_rows: dict[str, int] = {}
    telescopes = result.telescopes()
    for name, records in sorted(telescopes.items()):
        origin = result.truth.get(name)
        if origin is None:
            origin = np.full(len(records), UNKNOWN_ORIGIN, dtype=np.int32)
        truth_rows[name] = int((origin >= 0).sum())
        scores[name] = score_all_levels(records, origin, levels=levels)
    return GroundTruthResult(scores=scores, truth_rows=truth_rows)
