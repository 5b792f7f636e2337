"""The CDN vantage point (§1, Appendix C: Figs 1, 2, 13; Table 6).

The paper motivates the study with two years of unsolicited IPv6 traffic
captured at a large CDN (230k machines): weekly scan sources more than
doubled, weekly scan packets grew 100x, and traffic went from dominated by
one or two sources to broadly dispersed.

``CdnVantage`` is a generative model of that two-year window: a roster of
scanning ASes (the Table 6 archetypes plus a steadily arriving long tail)
emits weekly scan events whose aggregate series reproduce those growth
shapes.  The events are columns (:class:`CdnEvents`): each week's weights
are one vector over the roster, only the two per-event random draws stay
sequential, and the figures' series are ``bincount`` passes over them.
``sample_packets`` can additionally materialize packet records for any
week, so the scan-detection pipeline can be exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import WEEK, make_rng
from repro.analysis.records import PacketRecords
from repro.net.addr import IPv6Prefix

#: Table 6 archetypes: (name, type, country, share of total packets,
#: /48s, /64s, /128s used over the window).
TABLE6_ARCHETYPES = (
    ("TRANSIT-GLOBAL", "transit", "US", 0.176, 1, 3, 2745),
    ("DATACENTER-CN-1", "datacenter", "CN", 0.154, 10, 12, 45),
    ("CYBERSEC-US-1", "cybersecurity", "US", 0.141, 7, 7, 367),
    ("DATACENTER-US", "datacenter", "US", 0.120, 1, 1, 11),
    ("CLOUD-CN-1", "cloud", "CN", 0.098, 15, 17, 310),
    ("CLOUD-CN-2", "cloud", "CN", 0.091, 6, 7, 36),
    ("DATACENTER-CN-2", "datacenter", "CN", 0.065, 2, 2, 11),
    ("CLOUD-GLOBAL-1", "cloud", "US", 0.034, 35, 43, 3312),
    ("CLOUD-GLOBAL-2", "cloud", "US", 0.031, 4, 4, 53),
    ("DATACENTER-CN-3", "datacenter", "CN", 0.023, 1, 1, 4),
    ("CLOUD-GLOBAL-3", "cloud", "US", 0.020, 12, 12, 2277),
    ("CLOUD-GLOBAL-4", "cloud", "US", 0.015, 12, 19, 4475),
    ("CLOUD-GLOBAL-5", "cloud", "US", 0.014, 22, 22, 41),
    ("CLOUD-GLOBAL-6", "cloud", "US", 0.009, 7, 7, 21),
    ("CYBERSEC-US-2", "cybersecurity", "US", 0.003, 2, 2, 198),
    ("DATACENTER-CN-4", "datacenter", "CN", 0.002, 32, 138, 142),
    ("CLOUD-US", "cloud", "US", 0.001, 1, 1, 2),
    ("UNIVERSITY-CN", "university", "CN", 0.001, 1, 2, 2),
    ("DATACENTER-CA", "datacenter", "CA", 0.0005, 1, 1, 1),
    ("RESEARCH-DE", "research", "DE", 0.0005, 1, 1, 1),
)


@dataclass(frozen=True)
class CdnScannerSpec:
    """One scanning AS at the CDN."""

    asn: int
    name: str
    as_type: str
    country: str
    share: float
    arrival_week: int
    n_48: int
    n_64: int
    n_128: int
    source_prefix: IPv6Prefix
    #: Early-window concentration: >1 front-loads this AS's traffic.
    early_bias: float = 1.0


@dataclass(frozen=True)
class CdnEvents:
    """One row per (AS, week) with traffic, week-major in roster order."""

    week: np.ndarray
    asn: np.ndarray
    packets: np.ndarray
    sources_128: np.ndarray
    sources_64: np.ndarray
    sources_48: np.ndarray
    targets: np.ndarray


class CdnVantage:
    """Two-year CDN capture model."""

    def __init__(
        self,
        rng: np.random.Generator | int | None = 0,
        n_weeks: int = 104,
        base_weekly_packets: float = 20e6,
        final_weekly_packets: float = 1e9,
        volume_scale: float = 1.0,
        tail_arrival_rate0: float = 0.9,
        tail_arrival_growth: float = 0.006,
    ):
        self._rng = make_rng(rng)
        self.n_weeks = n_weeks
        self.volume_scale = volume_scale
        self.base_weekly = base_weekly_packets
        self.growth = (final_weekly_packets / base_weekly_packets) ** (
            1.0 / max(n_weeks - 1, 1)
        )
        self.tail_arrival_rate0 = tail_arrival_rate0
        self.tail_arrival_growth = tail_arrival_growth
        self.specs = self._build_specs()
        self._events: CdnEvents | None = None

    # -- roster ----------------------------------------------------------

    def _build_specs(self) -> list[CdnScannerSpec]:
        specs = []
        base = IPv6Prefix.parse("2a00::/11")
        for i, (name, as_type, country, share, n48, n64, n128) in enumerate(
            TABLE6_ARCHETYPES
        ):
            # The top-10 are present from week 0, the biggest heavily
            # front-loaded — the early-2022 dominance of Fig. 2; the rest
            # arrive over the first ~7 months.
            arrival = 0 if i < 10 else int(self._rng.integers(0, 30))
            early_bias = (8.0, 3.0, 2.0)[i] if i < 3 else 1.0
            specs.append(CdnScannerSpec(
                asn=100_000 + i, name=name, as_type=as_type, country=country,
                share=share, arrival_week=arrival,
                n_48=n48, n_64=n64, n_128=n128,
                source_prefix=base.subnet_at(i, 32),
                early_bias=early_bias,
            ))
        # Long tail: small ASes arriving throughout at a growing rate.
        week = 0
        idx = len(TABLE6_ARCHETYPES)
        while week < self.n_weeks:
            rate = self.tail_arrival_rate0 + self.tail_arrival_growth * week
            for _ in range(int(self._rng.poisson(rate))):
                n64 = int(self._rng.integers(1, 4))
                specs.append(CdnScannerSpec(
                    asn=100_000 + idx,
                    name=f"CDN-TAIL-AS{100_000 + idx}",
                    as_type="cloud" if idx % 2 else "datacenter",
                    country=("US", "CN", "DE", "NL", "GB")[idx % 5],
                    share=float(self._rng.uniform(1e-5, 4e-4)),
                    arrival_week=week,
                    n_48=max(1, n64 - 1), n_64=n64,
                    n_128=int(self._rng.integers(1, 40)),
                    source_prefix=base.subnet_at(idx, 32),
                ))
                idx += 1
            week += 1
        return specs

    # -- weekly events -------------------------------------------------------

    def events(self) -> CdnEvents:
        """Generate (and cache) all weekly scan events as columns."""
        if self._events is not None:
            return self._events
        arrival, share, early_bias = np.array(
            [(s.arrival_week, s.share, s.early_bias) for s in self.specs]).T
        kept = []
        for week in range(self.n_weeks):
            total = self.base_weekly * self.growth ** week * self.volume_scale
            # Front-loaded specs decay toward weight 1; tails ramp up.
            age = week - arrival
            bias = 1.0 + (early_bias - 1.0) * np.exp(-age / 30.0)
            ramp = 1.0 - np.exp(-(age + 1) / 8.0)
            weights = np.where(age >= 0, share * bias * ramp, 0.0)
            weight_sum = weights.sum()
            if weight_sum <= 0:
                continue
            expected = (total * weights / weight_sum).tolist()
            # Only kept events draw a /128 jitter, so draws stay in order.
            for i in np.flatnonzero(weights > 0).tolist():
                volume = expected[i] * self._rng.lognormal(0.0, 0.25)
                if volume >= 1:
                    kept.append((week, i, volume, self._rng.uniform(0.6, 1.0)))
        week, index, packets, jitter = np.array(kept).reshape(-1, 4).T
        week = week.astype(np.int64)
        asn, n128, n64, n48 = np.array(
            [(s.asn, s.n_128, s.n_64, s.n_48) for s in self.specs]
        )[index.astype(np.int64)].T
        # Source-address usage grows with the window, doubling the /128
        # count over two years (Fig. 1).
        growth_frac = 0.5 + 0.5 * week / max(self.n_weeks - 1, 1)
        n64 = np.maximum(1, (n64 * growth_frac).astype(np.int64))
        self._events = CdnEvents(
            week=week, asn=asn, packets=packets,
            sources_128=np.maximum(1, (n128 * growth_frac * jitter
                                       / 10).astype(np.int64)),
            sources_64=n64, sources_48=np.maximum(1, np.minimum(n48, n64)),
            targets=np.minimum(packets, 100 + packets * 0.2).astype(np.int64),
        )
        return self._events

    # -- aggregate series (the figures) -----------------------------------------

    def weekly_packets(self) -> tuple[np.ndarray, np.ndarray]:
        """(total weekly packets, weekly packets of the top source) — Fig 2."""
        events = self.events()
        top = np.zeros(self.n_weeks)
        np.maximum.at(top, events.week, events.packets)
        return np.bincount(events.week, weights=events.packets,
                           minlength=self.n_weeks), top

    def weekly_sources(self, prefix_length: int = 64) -> np.ndarray:
        """Weekly count of distinct scan sources at an aggregation — Fig 1."""
        events = self.events()
        sources = {128: events.sources_128, 64: events.sources_64,
                   48: events.sources_48}[prefix_length]
        return np.bincount(events.week, weights=sources,
                           minlength=self.n_weeks)

    def weekly_ases(self) -> np.ndarray:
        """Weekly count of distinct scanning ASes — Fig 13."""
        # An AS has at most one event per week, so events count ASes.
        return np.bincount(self.events().week,
                           minlength=self.n_weeks).astype(np.float64)

    def top_as_table(self, n: int = 20) -> list[dict]:
        """Table 6: top ASes by total packets with their source footprints."""
        events = self.events()
        asns, first, group = np.unique(events.asn, return_index=True,
                                       return_inverse=True)
        packets = np.bincount(group, weights=events.packets)
        footprint = np.zeros((len(asns), 3), dtype=np.int64)
        np.maximum.at(footprint, group, np.column_stack(
            (events.sources_48, events.sources_64, events.sources_128)))
        # ASes in order of first appearance: the order the total is summed
        # in and the tie-break of the stable sort.
        seen = np.argsort(first, kind="stable")
        total = sum(packets[seen])
        by_asn = {spec.asn: spec for spec in self.specs}
        rows = []
        for i in seen[np.argsort(-packets[seen], kind="stable")][:n]:
            spec = by_asn[int(asns[i])]
            n48, n64, n128 = footprint[i].tolist()
            rows.append({
                "asn": spec.asn, "packets": packets[i],
                "n_48": n48, "n_64": n64, "n_128": n128,
                "name": spec.name, "as_type": spec.as_type,
                "country": spec.country,
                "share": packets[i] / total if total else 0.0,
            })
        return rows

    # -- packet materialization ---------------------------------------------------

    def sample_packets(self, week: int,
                       max_packets: int = 200_000) -> PacketRecords:
        """Materialize one week's events as packet records.

        Lets integration tests run the real scan-detection pipeline over
        CDN-shaped traffic.  Packet counts are capped; per-event volumes are
        scaled down proportionally when the cap binds.
        """
        events = self.events()
        at = np.flatnonzero(events.week == week)
        total = sum(events.packets[at])
        scale = min(1.0, max_packets / total) if total else 1.0
        cdn_space = IPv6Prefix.parse("2600:9000::/28")
        cols: tuple[list, ...] = ([], [], [], [], [], [], [], [])
        by_asn = {spec.asn: spec for spec in self.specs}
        week_start = week * WEEK
        for i in at:
            spec = by_asn[events.asn[i]]
            n = max(1, int(events.packets[i] * scale))
            sources = [
                spec.source_prefix.random_address(self._rng).value
                for _ in range(min(events.sources_128[i], 64))
            ]
            for _ in range(n):
                ts = week_start + float(self._rng.uniform(0, WEEK))
                src = sources[int(self._rng.integers(len(sources)))]
                dst = cdn_space.random_address(self._rng).value
                cols[0].append(ts)
                cols[1].append((src >> 64) & 0xFFFFFFFFFFFFFFFF)
                cols[2].append(src & 0xFFFFFFFFFFFFFFFF)
                cols[3].append((dst >> 64) & 0xFFFFFFFFFFFFFFFF)
                cols[4].append(dst & 0xFFFFFFFFFFFFFFFF)
                cols[5].append(58)
                cols[6].append(128)
                cols[7].append(0)
        return PacketRecords.from_columns(*cols)
