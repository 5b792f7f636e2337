"""§5.3.1's trigger-retraction experiment."""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import DAY
from repro.sim.runner import ScenarioResult


@dataclass(frozen=True)
class RetractionResult:
    """Traffic to a withdrawn honeyprefix before and after the retraction."""

    name: str
    withdrawn_at: float
    packets_week_before: int
    packets_week_after: int

    @property
    def suppression(self) -> float:
        """Fraction of the pre-withdrawal traffic that disappeared."""
        if self.packets_week_before == 0:
            return 0.0
        return 1.0 - self.packets_week_after / self.packets_week_before

    def render(self) -> str:
        return (
            "§5.3.1 — BGP retraction (paper: scanning dies within hours)\n"
            f"  {self.name}: {self.packets_week_before} packets/week before "
            f"-> {self.packets_week_after} after "
            f"({self.suppression:.0%} suppressed)"
        )


def s531_retraction(result: ScenarioResult,
                    name: str = "H_BGP2") -> RetractionResult:
    """Measure scanning before/after the honeyprefix withdrawal."""
    hp = result.honeyprefixes.get(name)
    if hp is None or hp.withdrawn_at is None:
        raise ValueError(
            f"{name} was never withdrawn (scenario horizon too short?)"
        )
    records = result.honeyprefix_records(name)
    w = hp.withdrawn_at
    before = records.select(records.mask_time(w - 7 * DAY, w))
    after = records.select(records.mask_time(w + 2 * DAY, w + 9 * DAY))
    return RetractionResult(
        name=name,
        withdrawn_at=w,
        packets_week_before=len(before),
        packets_week_after=len(after),
    )
