"""CDN longitudinal experiments: Figures 1, 2, 13 and Table 6."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.sim.cdn import CdnVantage


@lru_cache(maxsize=None)
def _default_vantage(seed: int = 0, n_weeks: int = 104) -> CdnVantage:
    """The vantage the drivers build when none is passed, one per process.

    Figs 1, 2, 13 and Table 6 read the same events, so the report builds
    them once.  The cached vantage is private: no driver returns it or
    draws from its generator.  Its events are built before it is cached,
    so callers only ever read it.
    """
    vantage = CdnVantage(rng=seed, n_weeks=n_weeks)
    vantage.events()
    return vantage


def _trend_ratio(series: np.ndarray, head: int = 8, tail: int = 8) -> float:
    """Late-window mean over early-window mean (the growth factor)."""
    if len(series) < head + tail:
        raise ValueError("series too short for trend ratio")
    early = float(np.mean(series[:head]))
    late = float(np.mean(series[-tail:]))
    return late / early if early > 0 else float("inf")


@dataclass(frozen=True)
class Fig1Result:
    """Weekly scan sources at the CDN, per aggregation level."""

    weeks: np.ndarray
    sources_128: np.ndarray
    sources_64: np.ndarray
    sources_48: np.ndarray

    @property
    def growth_128(self) -> float:
        return _trend_ratio(self.sources_128)

    @property
    def growth_64(self) -> float:
        return _trend_ratio(self.sources_64)

    @property
    def growth_48(self) -> float:
        return _trend_ratio(self.sources_48)

    def render(self) -> str:
        lines = ["Fig 1 — weekly CDN scan sources (paper: /128 2x, /64 and "
                 "/48 ~3x over two years)"]
        lines.append(
            f"  growth factors: /128 {self.growth_128:.1f}x, "
            f"/64 {self.growth_64:.1f}x, /48 {self.growth_48:.1f}x"
        )
        for w in range(0, len(self.weeks), 13):
            lines.append(
                f"  week {w:3d}: /128 {self.sources_128[w]:7.0f}  "
                f"/64 {self.sources_64[w]:6.0f}  /48 {self.sources_48[w]:6.0f}"
            )
        return "\n".join(lines)


def fig1(vantage: CdnVantage | None = None, seed: int = 0) -> Fig1Result:
    """Figure 1: weekly scan sources more than double over the window."""
    vantage = vantage or _default_vantage(seed)
    return Fig1Result(
        weeks=np.arange(vantage.n_weeks),
        sources_128=vantage.weekly_sources(128),
        sources_64=vantage.weekly_sources(64),
        sources_48=vantage.weekly_sources(48),
    )


@dataclass(frozen=True)
class Fig2Result:
    """Weekly scan packets: total and top-source share."""

    weeks: np.ndarray
    total: np.ndarray
    top_source: np.ndarray

    @property
    def growth(self) -> float:
        return _trend_ratio(self.total)

    @property
    def early_top_share(self) -> float:
        mask = self.total[:8] > 0
        if not mask.any():
            return 0.0
        return float(np.mean(
            self.top_source[:8][mask] / self.total[:8][mask]
        ))

    @property
    def late_top_share(self) -> float:
        mask = self.total[-8:] > 0
        if not mask.any():
            return 0.0
        return float(np.mean(
            self.top_source[-8:][mask] / self.total[-8:][mask]
        ))

    def render(self) -> str:
        return (
            "Fig 2 — weekly CDN scan packets (paper: ~100x growth; early "
            "weeks dominated by top source)\n"
            f"  total growth {self.growth:.0f}x; top-source share "
            f"{self.early_top_share:.0%} early -> {self.late_top_share:.0%} late"
        )


def fig2(vantage: CdnVantage | None = None, seed: int = 0) -> Fig2Result:
    """Figure 2: packet volume grows ~100x and de-concentrates."""
    vantage = vantage or _default_vantage(seed)
    total, top = vantage.weekly_packets()
    return Fig2Result(weeks=np.arange(vantage.n_weeks), total=total,
                      top_source=top)


@dataclass(frozen=True)
class Fig13Result:
    """Weekly count of scanning ASes at the CDN."""

    weeks: np.ndarray
    ases: np.ndarray

    @property
    def growth(self) -> float:
        return _trend_ratio(self.ases)

    def render(self) -> str:
        return (
            "Fig 13 — weekly scanning ASes at the CDN (paper: steady "
            f"growth)\n  {self.ases[0]:.0f} -> {self.ases[-1]:.0f} ASes "
            f"({self.growth:.1f}x)"
        )


def fig13(vantage: CdnVantage | None = None, seed: int = 0) -> Fig13Result:
    """Figure 13: the number of scanning ASes grows steadily."""
    vantage = vantage or _default_vantage(seed)
    return Fig13Result(weeks=np.arange(vantage.n_weeks),
                       ases=vantage.weekly_ases())


@dataclass(frozen=True)
class Table6Result:
    """Top-20 CDN source ASes."""

    rows: list

    def render(self) -> str:
        lines = ["Table 6 — top 20 CDN source ASes"]
        lines.append(f"  {'rank':4s} {'type':15s} {'packets':>12s} "
                     f"{'share':>6s} {'/48s':>5s} {'/64s':>5s} {'/128s':>6s}")
        for i, row in enumerate(self.rows, 1):
            lines.append(
                f"  #{i:<3d} {row['as_type'] + ' (' + row['country'] + ')':15s} "
                f"{row['packets']:12.0f} {row['share']:6.1%} "
                f"{row['n_48']:5d} {row['n_64']:5d} {row['n_128']:6d}"
            )
        return "\n".join(lines)


def table6(vantage: CdnVantage | None = None, seed: int = 0,
           n: int = 20) -> Table6Result:
    """Table 6: top source ASes with their source-prefix footprints."""
    vantage = vantage or _default_vantage(seed)
    return Table6Result(rows=vantage.top_as_table(n))
