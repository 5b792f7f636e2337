"""Effect-size experiments: Table 4, Figures 7, 8, and 10.

Every driver here takes ``jobs`` and fans its per-honeyprefix estimation
out through :func:`repro.exec.parallel.parallel_map`.  The task arguments
carry everything a worker needs (records, control series, seeds derived
from ``rng_seed``) and results come back in task order, so the rendered
output is byte-identical for every ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# The BSTM fits behind Table 4 and Fig 7 need scipy.optimize, which
# repro.analysis.bstm imports only on first use so that simulating never
# pays for it.  A process that imports the experiments is going to fit,
# so it pays here, at import, not inside the first section it renders.
import scipy.optimize  # noqa: F401

from repro._util import DAY
from repro.analysis.effects import (
    EffectEstimate,
    convergence_day,
    daily_series,
    estimate_effect,
    pointwise_effect_matrix,
)
from repro.core.features import Feature
from repro.exec.parallel import parallel_map
from repro.sim.runner import ScenarioResult

#: The honeyprefixes Table 4 reports (H_TCP excluded: its announcement
#: never propagated).
TABLE4_PREFIXES = (
    "H_BGP1", "H_Alias", "H_TCP", "H_UDP", "H_Com", "H_Org/net",
    "H_Combined", "H_TPot1",
)


def _bgp_time(result: ScenarioResult, name: str) -> float:
    hp = result.honeyprefixes[name]
    t = hp.feature_time(Feature.BGP)
    return t if t is not None else hp.deployed_at


@dataclass(frozen=True)
class Table4Result:
    """Per-honeyprefix traffic and ASN effect sizes."""

    traffic: dict[str, EffectEstimate]
    asn: dict[str, EffectEstimate]
    #: Trigger-level rows: TPot1's hitlist insertion and TLS issuance.
    triggers: dict[str, EffectEstimate]

    def render(self) -> str:
        lines = ["Table 4 — effect sizes of controlled experiments"]
        lines.append(f"  {'honeyprefix':14s} {'Δtraffic':>10s} "
                     f"{'95% CI':>20s} {'ΔASN':>7s} {'sig':>4s}")
        for name, est in self.traffic.items():
            asn = self.asn.get(name)
            lines.append(
                f"  {name:14s} {est.aes:10,.1f} "
                f"[{est.ci_high:8,.0f} –{est.ci_low:8,.0f}] "
                f"{asn.aes if asn else 0:7.1f} "
                f"{'yes' if est.significant else 'no':>4s}"
            )
        for name, est in self.triggers.items():
            lines.append(
                f"  {name:14s} {est.aes:10,.1f} "
                f"[{est.ci_high:8,.0f} –{est.ci_low:8,.0f}] "
                f"{'':7s} {'yes' if est.significant else 'no':>4s}"
            )
        return "\n".join(lines)


def table4(result: ScenarioResult, rng_seed: int = 0,
           jobs: int = 1) -> Table4Result:
    """Table 4: BSTM effect sizes for every honeyprefix + TPot triggers.

    The eligibility logic stays in-process (it only reads feature
    timelines); each eligible (prefix, metric) estimation becomes one
    :func:`estimate_effect` task, fanned out ``jobs`` at a time.  Seeds
    travel in the task arguments, so the table is identical for any
    ``jobs``.
    """
    control = result.control_records()
    # (kind, name) labels paired with estimate_effect argument tuples.
    labels: list[tuple[str, str]] = []
    tasks: list[tuple] = []
    for name in TABLE4_PREFIXES:
        hp = result.honeyprefixes.get(name)
        if hp is None:
            continue
        records = result.honeyprefix_records(name)
        if hp.config.announce_fails or len(records) == 0:
            continue  # H_TCP: no announcement, (almost) no traffic
        t0 = _bgp_time(result, name)
        # The per-honeyprefix row measures the *initial* deployment only:
        # later triggers (hitlist insertion, TLS issuance) are reported as
        # their own rows, exactly as Table 4 separates H_TPot1 (1,115
        # pkts/day) from its TLS trigger (224k pkts/day).
        end = result.end
        later = [hp.feature_time(f)
                 for f in (Feature.HITLIST, Feature.TLS_ROOT)
                 if hp.config.tpot and hp.feature_time(f) is not None]
        if later:
            end = min(end, min(later))
        if end - t0 < 2 * DAY:
            continue
        labels.append(("traffic", name))
        tasks.append((name, records, control, t0, result.start, end,
                      "packets", None, 0.05, rng_seed))
        labels.append(("asn", name))
        tasks.append((name, records, control, t0, result.start, end,
                      "asns", result.joiner, 0.05, rng_seed + 1))
    tpot = result.honeyprefixes.get("H_TPot1")
    if tpot is not None:
        records = result.honeyprefix_records("H_TPot1")
        for label, feature in (("TPot1+Hitlist", Feature.HITLIST),
                               ("TPot1+TLS", Feature.TLS_ROOT)):
            t = tpot.feature_time(feature)
            if t is not None and t < result.end - 3 * DAY:
                labels.append(("trigger", label))
                tasks.append((label, records, control, t, result.start,
                              result.end, "packets", None, 0.05,
                              rng_seed + 2))
    estimates = parallel_map(estimate_effect, tasks, jobs=jobs)
    traffic: dict[str, EffectEstimate] = {}
    asn: dict[str, EffectEstimate] = {}
    triggers: dict[str, EffectEstimate] = {}
    buckets = {"traffic": traffic, "asn": asn, "trigger": triggers}
    for (kind, name), estimate in zip(labels, estimates):
        buckets[kind][name] = estimate
    return Table4Result(traffic=traffic, asn=asn, triggers=triggers)


@dataclass(frozen=True)
class Fig7Result:
    """Daily traffic effect heatmap aligned at each BGP announcement."""

    names: list[str]
    matrix: np.ndarray
    convergence_days: dict[str, int | None]
    #: Relative traffic jump at each TPot1 trigger (order-of-magnitude in
    #: the paper).
    trigger_jumps: dict[str, float]

    def render(self) -> str:
        lines = ["Fig 7 — heatmap of daily traffic effects (day 0 = BGP "
                 "announcement)"]
        for i, name in enumerate(self.names):
            row = self.matrix[i]
            finite = row[np.isfinite(row)]
            conv = self.convergence_days.get(name)
            lines.append(
                f"  {name:12s} peak={np.max(finite):8.0f} "
                f"final={finite[-1] if len(finite) else 0:8.0f} "
                f"converges~day {conv}"
            )
        for label, jump in self.trigger_jumps.items():
            lines.append(f"  trigger {label}: traffic x{jump:.1f}")
        return "\n".join(lines)


def fig7(result: ScenarioResult,
         names: tuple[str, ...] = ("H_Com", "H_Alias", "H_TPot1"),
         rng_seed: int = 0, jobs: int = 1) -> Fig7Result:
    """Figure 7: effect heatmap + trigger-induced order-of-magnitude jumps."""
    control = result.control_records()
    tasks = []
    kept = []
    for name in names:
        # A honeyprefix deployed after the run's horizon has no records.
        if name not in result.honeyprefixes:
            continue
        records = result.honeyprefix_records(name)
        if len(records) == 0:
            continue
        kept.append(name)
        tasks.append((name, records, control, _bgp_time(result, name),
                      result.start, result.end, "packets", None, 0.05,
                      rng_seed))
    estimates = parallel_map(estimate_effect, tasks, jobs=jobs)
    n_days = max((len(e.impact.pointwise) for e in estimates), default=0)
    matrix = pointwise_effect_matrix(estimates, n_days)
    convergence = {
        name: convergence_day(est.impact.pointwise)
        for name, est in zip(kept, estimates)
    }
    # Trigger jumps on TPot1: mean daily traffic in the week after each
    # trigger vs. the week before.
    jumps: dict[str, float] = {}
    tpot = result.honeyprefixes.get("H_TPot1")
    if tpot is not None:
        records = result.honeyprefix_records("H_TPot1")
        series = daily_series(records, result.start, result.end)
        for label, feature in (("hitlist", Feature.HITLIST),
                               ("tls", Feature.TLS_ROOT)):
            t = tpot.feature_time(feature)
            if t is None:
                continue
            day = int((t - result.start) // DAY)
            if not 7 <= day < len(series) - 7:
                continue
            before = float(np.mean(series[day - 7:day]))
            after = float(np.mean(series[day + 1:day + 8]))
            jumps[label] = after / before if before > 0 else float("inf")
    return Fig7Result(names=kept, matrix=matrix,
                      convergence_days=convergence, trigger_jumps=jumps)


@dataclass(frozen=True)
class Fig8Result:
    """Longitudinal daily ASN effects: flat while traffic decays."""

    names: list[str]
    asn_series: dict[str, np.ndarray]
    traffic_series: dict[str, np.ndarray]

    def stability(self, name: str) -> float:
        """Late/early ratio of daily unique ASNs (≈1 means stable)."""
        series = self.asn_series[name]
        active = series[series > 0]
        if len(active) < 10:
            return 0.0
        k = max(5, len(active) // 4)
        early = float(np.mean(active[:k]))
        late = float(np.mean(active[-k:]))
        return late / early if early > 0 else 0.0

    def traffic_decay(self, name: str) -> float:
        """Late/early ratio of daily traffic (<1 means decaying)."""
        series = self.traffic_series[name]
        active_idx = np.nonzero(series > 0)[0]
        if len(active_idx) < 10:
            return 1.0
        first = active_idx[0]
        active = series[first:]
        k = max(5, len(active) // 4)
        early = float(np.mean(active[:k]))
        late = float(np.mean(active[-k:]))
        return late / early if early > 0 else 1.0

    def render(self) -> str:
        lines = ["Fig 8 — daily source-ASN counts stay flat while traffic "
                 "decays from its initial burst"]
        for name in self.names:
            lines.append(
                f"  {name:12s} ASN late/early={self.stability(name):5.2f} "
                f"traffic late/early={self.traffic_decay(name):5.2f}"
            )
        return "\n".join(lines)


def fig8(result: ScenarioResult,
         names: tuple[str, ...] = ("H_Com", "H_Alias", "H_TPot1"),
         jobs: int = 1) -> Fig8Result:
    """Figure 8: ΔASN stays consistent; traffic volume decays."""
    tasks = []
    kept = []
    for name in names:
        if name not in result.honeyprefixes:
            continue
        records = result.honeyprefix_records(name)
        if len(records) == 0:
            continue
        kept.append(name)
        tasks.append((records, result.start, result.end, "asns",
                      result.joiner))
        tasks.append((records, result.start, result.end, "packets", None))
    series = parallel_map(daily_series, tasks, jobs=jobs)
    asn_series = dict(zip(kept, series[0::2]))
    traffic_series = dict(zip(kept, series[1::2]))
    return Fig8Result(names=kept, asn_series=asn_series,
                      traffic_series=traffic_series)


@dataclass(frozen=True)
class Fig10Result:
    """Hyper-specific honeyprefix traffic: bimodal, length-uncorrelated."""

    lengths: list[int]
    packets: list[int]

    @property
    def low_mode_fraction(self) -> float:
        """Fraction of prefixes in the low-traffic mode."""
        if not self.packets:
            return 0.0
        threshold = self.split_threshold
        return float(np.mean([p < threshold for p in self.packets]))

    @property
    def split_threshold(self) -> float:
        """Midpoint between the two modes (geometric mean of extremes)."""
        values = sorted(self.packets)
        if len(values) < 2:
            return 1.0
        lo = max(1.0, float(np.mean(values[:len(values) // 2])))
        hi = max(lo, float(np.mean(values[len(values) // 2:])))
        return float(np.sqrt(lo * hi))

    @property
    def length_correlation(self) -> float:
        """|Pearson r| between announced length and packet count."""
        if len(set(self.packets)) < 2:
            return 0.0
        return float(abs(np.corrcoef(self.lengths, self.packets)[0, 1]))

    def render(self) -> str:
        lines = ["Fig 10 — H_specific traffic (paper: bimodal, 75% low; no "
                 "length correlation)"]
        for length, pkts in zip(self.lengths, self.packets):
            lines.append(f"  /{length}: {pkts} packets")
        lines.append(
            f"  low-mode fraction {self.low_mode_fraction:.0%}; "
            f"|corr(length, packets)| = {self.length_correlation:.2f}"
        )
        return "\n".join(lines)


def _specific_packet_count(nta, prefix) -> int:
    """Packets captured for one hyper-specific prefix (fig10 task body)."""
    return int(np.count_nonzero(nta.mask_dst_in(prefix)))


def fig10(result: ScenarioResult, jobs: int = 1) -> Fig10Result:
    """Figure 10: per-hyper-specific-prefix traffic totals."""
    lengths = []
    tasks = []
    for length in range(49, 65):
        name = f"H_Specific/{length}"
        if name not in result.honeyprefixes:
            continue
        lengths.append(length)
        tasks.append((result.nta, result.honeyprefixes[name].prefix))
    packets = parallel_map(_specific_packet_count, tasks, jobs=jobs)
    return Fig10Result(lengths=lengths, packets=packets)
