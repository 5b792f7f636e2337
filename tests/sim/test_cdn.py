"""Tests for the CDN vantage model."""

import numpy as np
import pytest

from repro.analysis.scandetect import detect_scans
from repro.experiments.cdn_growth import _default_vantage
from repro.sim.cdn import CdnVantage, TABLE6_ARCHETYPES

COLUMNS = ("week", "asn", "packets", "sources_128", "sources_64",
           "sources_48", "targets")


@pytest.fixture(scope="module")
def vantage():
    return CdnVantage(rng=0, n_weeks=52)


def test_archetype_shares_sum_below_one():
    assert sum(row[3] for row in TABLE6_ARCHETYPES) < 1.0


def test_weekly_packets_grow(vantage):
    totals, top = vantage.weekly_packets()
    assert len(totals) == 52
    assert np.mean(totals[-8:]) > np.mean(totals[:8]) * 5
    assert np.all(top <= totals)


def test_sources_grow(vantage):
    for level in (128, 64, 48):
        series = vantage.weekly_sources(level)
        assert np.mean(series[-8:]) > np.mean(series[:8])


def test_source_hierarchy(vantage):
    """/128 counts dominate /64 counts dominate /48 counts."""
    s128 = vantage.weekly_sources(128)
    s64 = vantage.weekly_sources(64)
    s48 = vantage.weekly_sources(48)
    assert np.all(s64 >= s48)
    assert s128.sum() > s64.sum()


def test_weekly_ases_grow(vantage):
    ases = vantage.weekly_ases()
    assert ases[-1] > ases[0]


def test_top_as_table(vantage):
    rows = vantage.top_as_table(20)
    assert len(rows) == 20
    shares = [r["share"] for r in rows]
    assert shares == sorted(shares, reverse=True)
    assert abs(sum(shares)) <= 1.0
    assert all("as_type" in r and "country" in r for r in rows)


def test_early_dominance(vantage):
    totals, top = vantage.weekly_packets()
    early_share = top[0] / totals[0]
    late_share = top[-1] / totals[-1]
    assert early_share > late_share


def test_events_cached(vantage):
    assert vantage.events() is vantage.events()


def test_default_vantage_shared():
    assert _default_vantage(0) is _default_vantage(0)


def _oracle_weight(spec, week):
    if week < spec.arrival_week:
        return 0.0
    age = week - spec.arrival_week
    bias = 1.0 + (spec.early_bias - 1.0) * np.exp(-age / 30.0)
    ramp = 1.0 - np.exp(-(age + 1) / 8.0)
    return spec.share * bias * ramp


def _oracle_events(vantage):
    """The per-spec, per-week scalar loop: one tuple per event in
    :data:`COLUMNS` order, plus the number of events skipped for having
    less than one packet."""
    rng = vantage._rng
    events, skipped = [], 0
    for week in range(vantage.n_weeks):
        total = (vantage.base_weekly * vantage.growth ** week
                 * vantage.volume_scale)
        weights = np.array([
            _oracle_weight(spec, week) for spec in vantage.specs
        ])
        weight_sum = weights.sum()
        if weight_sum <= 0:
            continue
        for spec, weight in zip(vantage.specs, weights):
            if weight <= 0:
                continue
            packets = total * weight / weight_sum * float(
                rng.lognormal(0.0, 0.25)
            )
            if packets < 1:
                skipped += 1
                continue
            growth_frac = 0.5 + 0.5 * week / max(vantage.n_weeks - 1, 1)
            n128 = max(1, int(spec.n_128 * growth_frac
                              * rng.uniform(0.6, 1.0) / 10))
            n64 = max(1, int(spec.n_64 * growth_frac))
            n48 = max(1, min(spec.n_48, n64))
            events.append((week, spec.asn, packets, n128, n64, n48,
                           int(min(packets, 100 + packets * 0.2))))
    return events, skipped


def _oracle_top_as_table(vantage, events, n):
    per_as = {}
    for week, asn, packets, n128, n64, n48, _ in events:
        row = per_as.setdefault(asn, {
            "asn": asn, "packets": 0.0, "n_48": 0, "n_64": 0, "n_128": 0,
        })
        row["packets"] += packets
        row["n_48"] = max(row["n_48"], n48)
        row["n_64"] = max(row["n_64"], n64)
        row["n_128"] = max(row["n_128"], n128)
    by_asn = {spec.asn: spec for spec in vantage.specs}
    total = sum(r["packets"] for r in per_as.values())
    rows = sorted(per_as.values(), key=lambda r: -r["packets"])[:n]
    for row in rows:
        spec = by_asn[row["asn"]]
        row["name"] = spec.name
        row["as_type"] = spec.as_type
        row["country"] = spec.country
        row["share"] = row["packets"] / total if total else 0.0
    return rows


@pytest.mark.parametrize("volume_scale", [1.0, 1e-4, 1e-7])
@pytest.mark.parametrize("n_weeks", [10, 52, 104])
@pytest.mark.parametrize("seed", range(6))
def test_columnar_events_equal_scalar_loop(seed, n_weeks, volume_scale):
    """Columns, series and Table 6 rows match the scalar loop bit for bit,
    including the skipped /128 draw of sub-packet events."""
    oracle = CdnVantage(rng=seed, n_weeks=n_weeks, volume_scale=volume_scale)
    expected, skipped = _oracle_events(oracle)
    if volume_scale == 1e-7:
        assert skipped > 0
    vantage = CdnVantage(rng=seed, n_weeks=n_weeks,
                         volume_scale=volume_scale)
    events = vantage.events()
    for name, column in zip(COLUMNS, zip(*expected), strict=True):
        assert np.array_equal(getattr(events, name), np.array(column)), name

    totals = np.zeros(n_weeks)
    top = np.zeros(n_weeks)
    ases = [set() for _ in range(n_weeks)]
    sources = {level: np.zeros(n_weeks) for level in (128, 64, 48)}
    for week, asn, packets, n128, n64, n48, _ in expected:
        totals[week] += packets
        top[week] = max(top[week], packets)
        ases[week].add(asn)
        for level, count in zip((128, 64, 48), (n128, n64, n48)):
            sources[level][week] += count
    got_totals, got_top = vantage.weekly_packets()
    assert np.array_equal(got_totals, totals)
    assert np.array_equal(got_top, top)
    assert np.array_equal(vantage.weekly_ases(), [len(s) for s in ases])
    for level, series in sources.items():
        assert np.array_equal(vantage.weekly_sources(level), series)
    assert vantage.top_as_table(20) == _oracle_top_as_table(
        oracle, expected, 20)


def test_sample_packets_feed_scan_detection():
    vantage = CdnVantage(rng=1, n_weeks=10, volume_scale=1e-4)
    records = vantage.sample_packets(week=5, max_packets=20_000)
    assert len(records) > 0
    # The materialized week runs through the real scan-detection pipeline.
    events = detect_scans(records, source_length=32, min_targets=50)
    assert len(events) > 0


def test_sample_packets_cap():
    vantage = CdnVantage(rng=1, n_weeks=10)
    records = vantage.sample_packets(week=5, max_packets=5_000)
    assert len(records) <= 5_000 * 1.2
