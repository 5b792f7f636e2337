"""Scan-tactic attribution (§5.4, Figure 11).

For each (scanner source /48, honeyprefix) pair, determine which deployed
features the scanner's probes match: protocol + destination port identify
ICMP/TCP/UDP probing; destination addresses identify domain, subdomain, and
hitlist targets; and probe *timing* disambiguates features sharing addresses
and ports — a probe to a domain-target web port before TLS issuance is
attributed to the domain (zone files), after issuance to the certificate
(CT logs).  Probes matching nothing responsive get the catch-all ``O``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.records import PacketRecords
from repro.core.features import Feature, combo_label
from repro.core.honeyprefix import Honeyprefix
from repro.net.packet import ICMPV6, TCP, UDP


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


def _classify_probe(
    hp: Honeyprefix,
    domain_addrs: set[int],
    sub_addrs: set[int],
    manual: set[int],
    ts: float,
    dst: int,
    proto: int,
    dport: int,
    tls_root_time: float | None,
    tls_sub_time: float | None,
    hitlist_time: float | None,
) -> Feature:
    """Attribute one probe to one feature.

    ``domain_addrs``, ``sub_addrs`` and ``manual`` are the honeyprefix's
    domain, subdomain and manual-hitlist target addresses, built once per
    honeyprefix by the caller.
    """
    if dst in manual and hitlist_time is not None and ts >= hitlist_time:
        return Feature.HITLIST
    if dst in domain_addrs:
        if tls_root_time is not None and ts >= tls_root_time:
            return Feature.TLS_ROOT
        return Feature.DOMAIN
    if dst in sub_addrs:
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


def label_tactics(
    records: PacketRecords,
    hp: Honeyprefix,
    source_length: int = 48,
) -> TacticReport:
    """Build the Figure 11 tactic combinations for one honeyprefix.

    ``records`` should already be restricted to traffic destined to the
    honeyprefix (use ``records.select(records.mask_dst_in(hp.prefix))``).
    """
    from repro.obs import stage

    with stage("analysis.label_tactics", honeyprefix=hp.name,
               records=len(records)):
        return _label_tactics_impl(records, hp, source_length)


def _label_tactics_impl(
    records: PacketRecords,
    hp: Honeyprefix,
    source_length: int,
) -> TacticReport:
    tls_root_time = hp.feature_time(Feature.TLS_ROOT)
    tls_sub_time = hp.feature_time(Feature.TLS_SUB)
    hitlist_time = hp.feature_time(Feature.HITLIST)
    domain_addrs = set(hp.domain_targets.values())
    sub_addrs = set(hp.subdomain_targets.values())
    manual = set(hp.manual_hitlist_addresses)

    shift = 128 - source_length
    per_source: dict[int, set[Feature]] = {}
    src_iter = records.src_addresses()
    dst_iter = records.dst_addresses()
    for i in range(len(records)):
        src = next(src_iter)
        dst = next(dst_iter)
        source = (src >> shift) << shift if shift else src
        feature = _classify_probe(
            hp,
            domain_addrs,
            sub_addrs,
            manual,
            float(records.ts[i]),
            dst,
            int(records.proto[i]),
            int(records.dport[i]),
            tls_root_time,
            tls_sub_time,
            hitlist_time,
        )
        per_source.setdefault(source, set()).add(feature)

    combos: Counter = Counter()
    for features in per_source.values():
        combos[combo_label(features)] += 1
    return TacticReport(
        honeyprefix=hp.name,
        combos=combos,
        total_sources=len(per_source),
    )
