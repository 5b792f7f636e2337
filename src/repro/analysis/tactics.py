"""Scan-tactic attribution (§5.4, Figure 11).

For each (scanner source /48, honeyprefix) pair, determine which deployed
features the scanner's probes match: protocol + destination port identify
ICMP/TCP/UDP probing; destination addresses identify domain, subdomain, and
hitlist targets; and probe *timing* disambiguates features sharing addresses
and ports — a probe to a domain-target web port before TLS issuance is
attributed to the domain (zone files), after issuance to the certificate
(CT logs).  Probes matching nothing responsive get the catch-all ``O``.

One kernel, :func:`tactic_combos`, serves Figure 11 (:func:`label_tactics`)
and the observatory's per-day tactic mix
(:func:`repro.observatory.observer.day_tactics`).  It classifies each
distinct ``(dst, proto, dport, time flags)`` tuple aimed at a special
address once, assigns every other probe its default vectorized, and
collapses the packets into per-source feature masks with numpy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords
from repro.core.features import Feature, combo_label
from repro.core.honeyprefix import Honeyprefix
from repro.net.addr import _cached_mask, pack_key_u64, split_u64
from repro.net.packet import ICMPV6, TCP, UDP
from repro.obs import stage


@dataclass(frozen=True)
class TacticReport:
    """Figure 11 data for one honeyprefix."""

    honeyprefix: str
    #: combination label (e.g. "ID", "ITH") -> number of scanner sources.
    combos: Counter
    #: total scanner sources observed.
    total_sources: int

    def sources_using(self, code: str) -> int:
        """Sources whose combination includes feature code ``code``."""
        return sum(n for label, n in self.combos.items() if code in label)


#: Feature code order for the classifier: the index of a feature here is
#: its bit in the per-source combination mask.  Only the features a probe
#: can be attributed to.
_TACTIC_FEATURES = (
    Feature.ICMP, Feature.TCP, Feature.UDP, Feature.DOMAIN,
    Feature.TLS_ROOT, Feature.SUBDOMAIN, Feature.TLS_SUB,
    Feature.HITLIST, Feature.OTHER,
)


def _classify_rows(records: PacketRecords, hp: Honeyprefix) -> np.ndarray:
    """One ``_TACTIC_FEATURES`` index per probe.

    The decision tree: a manual hitlist target probed after the hitlist
    went live is HITLIST; a domain (subdomain) target is DOMAIN
    (SUBDOMAIN), or TLS_ROOT (TLS_SUB) once its certificate was issued;
    otherwise ICMP/TCP/UDP when the address answers that probe (every
    in-prefix address answers ICMP on an aliased prefix), else OTHER.

    Only probes to the honeyprefix's *special* addresses — domain and
    subdomain targets, manual hitlist entries and addresses with a
    responsive binding — can leave the default (aliased-prefix ICMP or
    the catch-all OTHER), which is assigned vectorized.  The rows whose
    address halves both match a special address's are deduped on
    ``(dst, proto, dport, time flags)``, and the python tree runs once
    per distinct tuple: it depends on a probe's time only through the
    three feature thresholds, folded into flags.
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

    # proto (bits 32+), dport (bits 8..23) and the TLS_ROOT, TLS_SUB and
    # HITLIST time flags (bits 0..2) packed into one key, so the dedupe is
    # a 3-key lexsort.
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


def tactic_combos(records: PacketRecords, hp: Honeyprefix,
                  source_length: int = 48) -> tuple[Counter, int]:
    """Figure 11 tactic combinations for one honeyprefix's records:
    ``(combos, sources)``.

    Each probe is classified (:func:`_classify_rows`), then the probes
    collapse into one feature-combination mask per source with numpy.
    ``combos`` counts the sources per combination label, inserted in
    order of the sources' first rows (``most_common`` ties follow that
    order).
    """
    combos: Counter = Counter()
    n = len(records)
    if n == 0:
        return combos, 0
    codes = _classify_rows(records, hp)

    # Per-source feature masks: sort rows by source, then OR the feature
    # bits and take the first row of each source's run.
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

    # Each distinct mask at its first source, sources in first-row order:
    # the insertion order of a per-row walk.
    masks = masks[np.argsort(first_row)]
    distinct, first, counts = np.unique(masks, return_index=True,
                                        return_counts=True)
    for k in np.argsort(first).tolist():
        features = {f for bit, f in enumerate(_TACTIC_FEATURES)
                    if int(distinct[k]) >> bit & 1}
        combos[combo_label(features)] += int(counts[k])
    return combos, len(masks)


def label_tactics(
    records: PacketRecords,
    hp: Honeyprefix,
    source_length: int = 48,
) -> TacticReport:
    """Build the Figure 11 tactic combinations for one honeyprefix.

    ``records`` should already be restricted to traffic destined to the
    honeyprefix (use ``records.select(records.mask_dst_in(hp.prefix))``).
    """
    with stage("analysis.label_tactics", honeyprefix=hp.name,
               records=len(records)):
        combos, sources = tactic_combos(records, hp, source_length)
    return TacticReport(honeyprefix=hp.name, combos=combos,
                        total_sources=sources)
