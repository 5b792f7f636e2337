"""Test oracles for the observer's seen-source state and tactic mix.

Before the seen sources were :class:`~repro.net.addr.KeySet` columns, the
observer held them as Python sets, and checkpoints pickled them that way:
the high half as an int at levels <= 64, ``(hi, lo)`` tuples at /128.
:class:`SeenSourcesReference` is that set code, and :func:`as_sets` turns
a packed state back into the set layout.

Before the observer classified a day's tactics in one pass, it selected
each deployed honeyprefix's probes and ran the Figure 11 kernel on each
in turn, deduping special-address probes and walking a python decision
tree once per distinct tuple.  :func:`day_tactics_reference` is that
path, and :func:`tactic_combos_reference` its per-prefix kernel.
"""

from collections import Counter

import numpy as np

from repro.analysis.tactics import _TACTIC_FEATURES
from repro.core.features import Feature, combo_label
from repro.net.addr import _cached_mask, pack_key_u64, split_u64
from repro.net.packet import ICMPV6, TCP, UDP


class SeenSourcesReference:
    """New-source counting over Python sets, per level."""

    def __init__(self):
        self.seen: dict[int, set] = {}

    def add(self, level: int, hi, lo) -> int:
        seen = self.seen.setdefault(level, set())
        before = len(seen)
        if level <= 64:
            seen.update(hi.tolist())
        else:
            seen.update(zip(hi.tolist(), lo.tolist()))
        return len(seen) - before


def as_sets(keys, level: int) -> set:
    """A :class:`~repro.net.addr.KeySet` of seen sources in the set layout
    of :class:`SeenSourcesReference`."""
    if level <= 64:
        return set(keys.cols[0].tolist())
    return set(zip(keys.cols[0].tolist(), keys.cols[1].tolist()))


def classify_rows_reference(records, hp):
    """One ``_TACTIC_FEATURES`` index per probe, the per-honeyprefix way.

    The classifier the observer and Figure 11 ran before the one-pass
    kernel: probes to the honeyprefix's special addresses are deduped on
    ``(dst, proto, dport, time flags)`` and the python decision tree runs
    once per distinct tuple; every other probe gets the default.
    """
    aliased = hp.config.aliased
    pnet = hp.prefix.network
    pmask = _cached_mask(hp.prefix.length)
    codes = np.full(len(records), 8, dtype=np.uint16)  # OTHER
    if aliased:
        codes[(records.proto == ICMPV6)
              & records.mask_dst_in(hp.prefix)] = 0  # ICMP

    domain_addrs = set(hp.domain_targets.values())
    sub_addrs = set(hp.subdomain_targets.values())
    manual = set(hp.manual_hitlist_addresses)
    responsive = hp.responsive
    special = domain_addrs | sub_addrs | manual | set(responsive)
    special_hi, special_lo = split_u64(special)
    rows = np.flatnonzero(np.isin(records.dst_hi, special_hi)
                          & np.isin(records.dst_lo, special_lo))
    if len(rows) == 0:
        return codes

    ts = records.ts[rows]
    meta = ((records.proto[rows].astype(np.uint64) << np.uint64(32))
            | (records.dport[rows].astype(np.uint64) << np.uint64(8)))
    for bit, feature in enumerate((Feature.TLS_ROOT, Feature.TLS_SUB,
                                   Feature.HITLIST)):
        threshold = hp.feature_time(feature)
        if threshold is not None:
            meta |= (ts >= threshold).astype(np.uint64) << np.uint64(bit)
    dst_hi, dst_lo = records.dst_hi[rows], records.dst_lo[rows]
    order = np.lexsort((meta, dst_lo, dst_hi))
    hi_s, lo_s, meta_s = dst_hi[order], dst_lo[order], meta[order]
    firsts = np.ones(len(rows), dtype=bool)
    firsts[1:] = ((hi_s[1:] != hi_s[:-1]) | (lo_s[1:] != lo_s[:-1])
                  | (meta_s[1:] != meta_s[:-1]))
    icmp_echo = (ICMPV6, None)
    distinct = []
    for hi, lo, m in zip(hi_s[firsts].tolist(), lo_s[firsts].tolist(),
                         meta_s[firsts].tolist()):
        dst = (hi << 64) | lo
        if dst in manual and m & 4:
            code = 7  # HITLIST
        elif dst in domain_addrs:
            code = 4 if m & 1 else 3  # TLS_ROOT / DOMAIN
        elif dst in sub_addrs:
            code = 6 if m & 2 else 5  # TLS_SUB / SUBDOMAIN
        else:
            proto = m >> 32
            bindings = responsive.get(dst)
            if proto == ICMPV6:
                responds = (aliased and dst & pmask == pnet) \
                    or (bindings and icmp_echo in bindings)
                code = 0 if responds else 8  # ICMP / OTHER
            elif proto == TCP:
                code = 1 if bindings and (TCP, (m >> 8) & 0xFFFF) \
                    in bindings else 8
            elif proto == UDP:
                code = 2 if bindings and (UDP, (m >> 8) & 0xFFFF) \
                    in bindings else 8
            else:
                code = 8  # OTHER
        distinct.append(code)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(firsts) - 1
    codes[rows] = np.array(distinct, dtype=np.uint16)[inverse]
    return codes


def tactic_combos_reference(records, hp, source_length=48):
    """One honeyprefix's ``(combos, sources)``, labels inserted in order
    of the sources' first rows (what ``Counter.most_common`` ties keep)."""
    combos = Counter()
    n = len(records)
    if n == 0:
        return combos, 0
    codes = classify_rows_reference(records, hp)
    source = pack_key_u64(records.src_hi, records.src_lo, source_length)
    if source is None:
        source = records.source_groups(source_length)
    order = np.argsort(source)
    sorted_source = source[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = sorted_source[1:] != sorted_source[:-1]
    start_idx = np.flatnonzero(starts)
    masks = np.bitwise_or.reduceat(np.uint16(1) << codes[order], start_idx)
    first_row = np.minimum.reduceat(order, start_idx)
    masks = masks[np.argsort(first_row)]
    distinct, first, counts = np.unique(masks, return_index=True,
                                        return_counts=True)
    for k in np.argsort(first).tolist():
        features = {f for bit, f in enumerate(_TACTIC_FEATURES)
                    if int(distinct[k]) >> bit & 1}
        combos[combo_label(features)] += int(counts[k])
    return combos, len(masks)


def day_tactics_reference(records, honeyprefixes, source_length=48):
    """The observer's tactic section the per-honeyprefix way:
    ``(combos, sources, first_seen)``.

    Each honeyprefix's probes are selected from the day and classified on
    their own, in name order, and the per-prefix counts summed;
    ``first_seen`` maps every probed honeyprefix's name to its earliest
    probe time.
    """
    combos, sources, first_seen = Counter(), 0, {}
    for name in sorted(honeyprefixes):
        hp = honeyprefixes[name]
        selected = records.select(records.mask_dst_in(hp.prefix))
        if len(selected):
            first_seen[name] = float(selected.ts.min())
            hp_combos, hp_sources = tactic_combos_reference(
                selected, hp, source_length)
            combos += hp_combos
            sources += hp_sources
    return combos, sources, first_seen
