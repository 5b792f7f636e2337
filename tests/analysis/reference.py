"""Per-row oracles for the columnar report analyses.

Each function here is the per-row walk a report analysis (Figs 5, 9, 11,
14, Tables 1, 3) made before it grouped its columns: one 128-bit int and
one dict, set or Hilbert lookup per packet.  The columnar code must match
them exactly, dict and ``Counter`` insertion order included.
"""

from collections import Counter

import numpy as np

from repro.analysis.asinfo import AsnRow, CategoryStats
from repro.analysis.hilbert import hilbert_d2xy
from repro.core.features import Feature, combo_label
from repro.net.packet import ICMPV6, TCP, UDP


def row_asns_oracle(joiner, records):
    out = np.zeros(len(records), dtype=np.int64)
    for i, src in enumerate(records.src_addresses()):
        out[i] = joiner.asn_of(src)
    return out


def top_asns_oracle(joiner, records, n=20):
    if len(records) == 0:
        return []
    asns = row_asns_oracle(joiner, records)
    rows = []
    unique_asns, counts = np.unique(asns, return_counts=True)
    order = np.argsort(counts)[::-1]
    for idx in order[:n]:
        asn = int(unique_asns[idx])
        sub = records.select(asns == asn)
        rows.append(AsnRow(
            asn=asn, name=joiner.asdb.name(asn), packets=int(counts[idx]),
            share=float(counts[idx]) / len(records),
            unique_128=sub.unique_sources(128),
            unique_64=sub.unique_sources(64),
            unique_48=sub.unique_sources(48),
        ))
    return rows


def category_breakdown_oracle(joiner, records):
    asns = row_asns_oracle(joiner, records)
    categories = {asn: joiner.asdb.classify(int(asn))
                  for asn in np.unique(asns)}
    out = {}
    for asn, category in categories.items():
        stats = out.setdefault(category, CategoryStats(category=category))
        sub = records.select(asns == asn)
        stats.packets += len(sub)
        stats.packets_icmp += int(np.sum(sub.proto == ICMPV6))
        stats.packets_tcp += int(np.sum(sub.proto == TCP))
        stats.packets_udp += int(np.sum(sub.proto == UDP))
    for category, stats in out.items():
        cat_asns = [a for a, c in categories.items() if c is category]
        sub = records.select(np.isin(asns, cat_asns))
        stats.unique_sources_128 = sub.unique_sources(128)
        stats.unique_destinations_128 = sub.unique_destinations(128)
    return out


def hilbert_map_oracle(records, covering, cell_length=48):
    bits = cell_length - covering.length
    if bits <= 0 or bits % 2 != 0:
        raise ValueError("odd")
    order = bits // 2
    grid = np.zeros((1 << order, 1 << order))
    shift = 128 - cell_length
    base_index = covering.network >> shift
    for dst in records.dst_addresses():
        if dst not in covering:
            continue
        x, y = hilbert_d2xy(order, (dst >> shift) - base_index)
        grid[y, x] += 1
    return grid


def scanner_scope_oracle(records, covering, honeyprefixes, source_length):
    shift = 128 - source_length
    per_scanner = {}
    honey_nets = {hp.supernet(48).network if hp.length > 48 else hp.network
                  for hp in honeyprefixes}
    first16 = {covering.subnet_at(i, 48).network for i in range(16)}
    honey = other = other_low = 0
    for src, dst in zip(records.src_addresses(), records.dst_addresses()):
        source = (src >> shift) << shift
        dst48 = (dst >> 80) << 80
        per_scanner.setdefault(source, set()).add(dst48)
        if dst48 in honey_nets:
            honey += 1
        else:
            other += 1
            other_low += dst48 in first16
    counts = sorted(len(s) for s in per_scanner.values())
    return counts, honey, other, other_low


def classify_probe_oracle(hp, ts, dst, proto, dport):
    """One probe's feature: the decision tree Fig 11 applies per row."""
    hitlist_time = hp.feature_time(Feature.HITLIST)
    tls_root_time = hp.feature_time(Feature.TLS_ROOT)
    tls_sub_time = hp.feature_time(Feature.TLS_SUB)
    if (dst in hp.manual_hitlist_addresses and hitlist_time is not None
            and ts >= hitlist_time):
        return Feature.HITLIST
    if dst in hp.domain_targets.values():
        if tls_root_time is not None and ts >= tls_root_time:
            return Feature.TLS_ROOT
        return Feature.DOMAIN
    if dst in hp.subdomain_targets.values():
        if tls_sub_time is not None and ts >= tls_sub_time:
            return Feature.TLS_SUB
        return Feature.SUBDOMAIN
    if proto == ICMPV6:
        return Feature.ICMP if hp.responds(dst, ICMPV6, None) else Feature.OTHER
    if proto == TCP:
        return Feature.TCP if hp.responds(dst, TCP, dport) else Feature.OTHER
    if proto == UDP:
        return Feature.UDP if hp.responds(dst, UDP, dport) else Feature.OTHER
    return Feature.OTHER


def label_tactics_oracle(records, hp, source_length=48):
    shift = 128 - source_length
    per_source = {}
    rows = zip(records.src_addresses(), records.dst_addresses(),
               records.ts.tolist(), records.proto.tolist(),
               records.dport.tolist())
    for src, dst, ts, proto, dport in rows:
        feature = classify_probe_oracle(hp, ts, dst, proto, dport)
        per_source.setdefault((src >> shift) << shift, set()).add(feature)
    combos = Counter()
    for features in per_source.values():
        combos[combo_label(features)] += 1
    return combos, len(per_source)
