"""Per-row oracles for the columnar analyses.

Each function here is the per-packet (or per-resample) loop a columnar
analysis replaced: scan detection, flow aggregation, the §5.1 overlap
shares, the BSTM bootstrap, the blocklist, and the report analyses of
Figs 5, 9, 11, 14 and Tables 1, 3 (one 128-bit int and one dict, set or
Hilbert lookup per packet).  The columnar code must match them exactly,
dict and ``Counter`` insertion order included.  They live in ``tests/``
because only the equivalence tests and the microbenchmarks call them,
as do the two per-row record helpers they share.
"""

from collections import Counter

import numpy as np

from repro._util import check_positive
from repro.analysis.asinfo import AsnRow, CategoryStats
from repro.analysis.blocklist import BlocklistEntry, _covering_prefixes
from repro.analysis.flows import DEFAULT_FLOW_TIMEOUT, Flow, _flow_order
from repro.analysis.hilbert import hilbert_d2xy
from repro.analysis.scandetect import (
    DEFAULT_MIN_TARGETS,
    DEFAULT_TIMEOUT,
    ScanEvent,
    _event_order,
    _validate,
)
from repro.core.features import Feature, combo_label
from repro.net.packet import ICMPV6, TCP, UDP


def sorted_by_time(records):
    """``records`` in stable timestamp order."""
    return records.select(np.argsort(records.ts, kind="stable"))


def src_addresses(records):
    """Each row's source address as one 128-bit int."""
    for hi, lo in zip(records.src_hi, records.src_lo):
        yield (int(hi) << 64) | int(lo)


def row_asns_oracle(joiner, records):
    out = np.zeros(len(records), dtype=np.int64)
    for i, src in enumerate(src_addresses(records)):
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
    for src, dst in zip(src_addresses(records), records.dst_addresses()):
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
    rows = zip(src_addresses(records), records.dst_addresses(),
               records.ts.tolist(), records.proto.tolist(),
               records.dport.tolist())
    for src, dst, ts, proto, dport in rows:
        feature = classify_probe_oracle(hp, ts, dst, proto, dport)
        per_source.setdefault((src >> shift) << shift, set()).add(feature)
    combos = Counter()
    for features in per_source.values():
        combos[combo_label(features)] += 1
    return combos, len(per_source)


def detect_scans_reference(records, source_length=64,
                           min_targets=DEFAULT_MIN_TARGETS,
                           timeout=DEFAULT_TIMEOUT):
    """Per-packet scan detection: the oracle of :func:`detect_scans` and of
    :class:`SessionTracker` over single-chunk and chunked feeds."""
    _validate(min_targets, timeout)
    if len(records) == 0:
        return []

    ordered = sorted_by_time(records)
    groups = ordered.source_groups(source_length)
    # Representative truncated source value per group.
    reps = {}
    src_iter = src_addresses(ordered)
    dst_iter = ordered.dst_addresses()

    mask_shift = 128 - source_length
    sessions = {}
    events = []

    def _close(state, source):
        if len(state["targets"]) >= min_targets:
            events.append(ScanEvent(
                source=source,
                source_length=source_length,
                start=state["start"],
                end=state["last"],
                packets=state["packets"],
                unique_targets=len(state["targets"]),
            ))

    for i in range(len(ordered)):
        src = next(src_iter)
        dst = next(dst_iter)
        ts = float(ordered.ts[i])
        group = int(groups[i])
        if group not in reps:
            reps[group] = ((src >> mask_shift) << mask_shift if mask_shift
                           else src)
        state = sessions.get(group)
        if state is not None and ts - state["last"] > timeout:
            _close(state, reps[group])
            state = None
        if state is None:
            state = sessions[group] = {
                "start": ts, "last": ts, "packets": 0, "targets": set(),
            }
        state["last"] = ts
        state["packets"] += 1
        state["targets"].add(dst)

    for group, state in sessions.items():
        _close(state, reps[group])
    events.sort(key=_event_order)
    return events


def aggregate_flows_reference(records, timeout=DEFAULT_FLOW_TIMEOUT):
    """Per-packet flow aggregation: the oracle of :func:`aggregate_flows`."""
    check_positive("timeout", timeout)
    if len(records) == 0:
        return []
    ordered = sorted_by_time(records)
    flows = []
    # 5-tuple -> open state: [first_seen, last_seen, packets]
    open_flows = {}

    src_iter = src_addresses(ordered)
    dst_iter = ordered.dst_addresses()
    for i in range(len(ordered)):
        src = next(src_iter)
        dst = next(dst_iter)
        ts = float(ordered.ts[i])
        key = (src, dst, int(ordered.proto[i]),
               int(ordered.sport[i]), int(ordered.dport[i]))
        state = open_flows.get(key)
        if state is not None and ts - state[1] <= timeout:
            state[1] = ts
            state[2] += 1
            continue
        if state is not None:
            flows.append(Flow(*key, first_seen=state[0],
                              last_seen=state[1], packets=state[2]))
        open_flows[key] = [ts, ts, 1]

    for key, state in open_flows.items():
        flows.append(Flow(*key, first_seen=state[0],
                          last_seen=state[1], packets=state[2]))
    flows.sort(key=_flow_order)
    return flows


def _traffic_share_reference(records, shared, prefix_length):
    """Per-packet oracle of ``jaccard._traffic_share``."""
    if len(records) == 0 or not shared:
        return 0.0
    shift = 128 - prefix_length
    count = 0
    for src in src_addresses(records):
        truncated = (src >> shift) << shift if shift else src
        if truncated in shared:
            count += 1
    return count / len(records)


def _dest_share_reference(records, shared, prefix_length):
    """Per-packet oracle of ``jaccard._dest_share``."""
    if len(records) == 0 or not shared:
        return 0.0
    shift = 128 - prefix_length
    shared_dests = set()
    all_dests = set()
    src_iter = src_addresses(records)
    for dst in records.dst_addresses():
        src = next(src_iter)
        truncated = (src >> shift) << shift if shift else src
        all_dests.add(dst)
        if truncated in shared:
            shared_dests.add(dst)
    return len(shared_dests) / len(all_dests) if all_dests else 0.0


def bootstrap_draws_reference(estimator, pointwise, cf_sd, rng):
    """Scalar per-resample loop: the oracle of
    :meth:`CausalImpact.bootstrap_draws` under the same generator state."""
    n_post = len(pointwise)
    idx_rows = [rng.integers(0, n_post, size=n_post)
                for _ in range(estimator.n_resamples)]
    draws = np.empty(estimator.n_resamples)
    for b, idx in enumerate(idx_rows):
        noise = rng.normal(0.0, cf_sd[idx])
        draws[b] = np.mean(pointwise[idx] + noise - noise.mean())
    return draws


def recommend_blocklist_reference(records, joiner, max_entries_per_as=16,
                                  min_packets=10):
    """Per-AS scan over every row: the oracle of
    :func:`recommend_blocklist`."""
    if len(records) == 0:
        return []
    asns = joiner.row_asns(records)
    entries = []
    sources = list(src_addresses(records))
    for asn in np.unique(asns):
        if asn <= 0:
            continue
        mask = asns == asn
        packets = int(mask.sum())
        if packets < min_packets:
            continue
        as_sources = sorted({s for s, m in zip(sources, mask) if m})
        prefixes = _covering_prefixes(as_sources, max_entries_per_as)
        covered = sum(p.num_addresses for p in prefixes)
        overreach = float(np.log2(max(covered / len(as_sources), 1.0)))
        entries.append(BlocklistEntry(
            asn=int(asn),
            as_name=joiner.asdb.name(int(asn)),
            prefixes=prefixes,
            packets=packets,
            sources_128=len(as_sources),
            overreach_bits=overreach,
        ))
    entries.sort(key=lambda e: -e.packets)
    return entries
