"""Scan-tactic attribution (§5.4, Figure 11).

For each (scanner source /48, honeyprefix) pair, determine which deployed
features the scanner's probes match: protocol + destination port identify
ICMP/TCP/UDP probing; destination addresses identify domain, subdomain, and
hitlist targets; and probe *timing* disambiguates features sharing addresses
and ports — a probe to a domain-target web port before TLS issuance is
attributed to the domain (zone files), after issuance to the certificate
(CT logs).  Probes matching nothing responsive get the catch-all ``O``.

One kernel, :func:`tactic_masks`, serves Figure 11 (:func:`label_tactics`,
one honeyprefix) and the observatory's per-day tactic mix
(:func:`repro.observatory.observer.day_tactics`, every deployed
honeyprefix in one pass).  Each honeyprefix's *special* addresses —
domain and subdomain targets, manual hitlist entries and addresses with a
responsive binding, the only ones whose probes can leave the default —
are held as sorted key columns in a :class:`TacticTable`, with their
roles as bits and their TCP/UDP bindings as sorted integer keys.  The
kernel then classifies every probe with numpy: one lookup finds the
probes aimed at a special address, the decision tree is a few masked
assignments over them, and one grouping of ``(honeyprefix, source)``
with one ``reduceat`` ORs the probes' feature bits into per-source masks.
No python runs per probe, per distinct probe tuple or per honeyprefix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.records import PacketRecords
from repro.core.features import Feature, combo_label
from repro.core.honeyprefix import Honeyprefix
from repro.net.addr import (
    _cached_mask,
    find_keys,
    split_u64,
)
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


_U64 = 0xFFFFFFFFFFFFFFFF


def _binding_key(address, proto, port):
    """Sort key of a TCP/UDP binding: the special address's index, then
    the protocol, then the port (16 bits)."""
    return (address << 25) | (proto << 17) | port


@dataclass(frozen=True)
class TacticTable:
    """One honeyprefix's attribution inputs, one row per special address
    (domain and subdomain targets, manual hitlist entries, addresses
    with a binding), in ascending address order.

    * ``hi``/``lo``: the address;
    * ``role`` and ``role_time``: 3 (DOMAIN) for a domain target and 5
      (SUBDOMAIN) for a subdomain target, each one more (TLS_ROOT,
      TLS_SUB) from its certificate's issue time; 8 and ``inf`` for the
      other addresses;
    * ``hit_time``: when a manual hitlist entry went live (HITLIST from
      then on); ``inf`` for the other addresses and before the insertion;
    * ``echo``: whether the address answers ICMP echo on its own;
    * ``bindings``: the sorted :func:`_binding_key` of every TCP and UDP
      (address row, port) binding;
    * ``net``: the prefix as ``(net_hi, net_lo, mask_hi, mask_lo)``.

    Every field follows from the honeyprefix's addresses and timeline, so
    a holder rebuilds it only when the honeyprefix records a feature.
    """

    aliased: bool
    hi: np.ndarray
    lo: np.ndarray
    role: np.ndarray
    role_time: np.ndarray
    hit_time: np.ndarray
    echo: np.ndarray
    bindings: np.ndarray
    net: tuple[int, int, int, int]

    @classmethod
    def of(cls, hp: Honeyprefix) -> "TacticTable":
        tls_root, tls_sub, hitlist = (
            math.inf if t is None else t
            for t in map(hp.feature_time, (Feature.TLS_ROOT,
                                           Feature.TLS_SUB,
                                           Feature.HITLIST)))
        domain = set(hp.domain_targets.values())
        sub = set(hp.subdomain_targets.values())
        manual = set(hp.manual_hitlist_addresses)
        special = sorted(domain | sub | manual | set(hp.responsive))
        row = {address: i for i, address in enumerate(special)}
        role = np.array([3 if address in domain else 5 if address in sub
                         else 8 for address in special], dtype=np.uint8)
        echo = np.zeros(len(special), dtype=bool)
        echo[[row[address] for address, held in hp.responsive.items()
              if (ICMPV6, None) in held]] = True
        bindings = [_binding_key(row[address], proto, port)
                    for address, held in hp.responsive.items()
                    for proto, port in held
                    if port is not None and proto in (TCP, UDP)]
        hi, lo = split_u64(special)
        net, mask = hp.prefix.network, _cached_mask(hp.prefix.length)
        return cls(
            aliased=hp.config.aliased, hi=hi, lo=lo, role=role,
            role_time=np.select([role == 3, role == 5], [tls_root, tls_sub],
                                math.inf),
            hit_time=np.array([hitlist if address in manual else math.inf
                               for address in special], dtype=np.float64),
            echo=echo,
            bindings=np.sort(np.array(bindings, dtype=np.int64)),
            net=(net >> 64, net & _U64, mask >> 64, mask & _U64))


_ROWS = ("hi", "lo", "role", "role_time", "hit_time", "echo")


@dataclass(frozen=True)
class TacticTables:
    """Several honeyprefixes' tactic tables joined into one.

    The rows of ``tables[i]`` carry ``owner == i`` and ``alias`` (whether
    that honeyprefix is aliased); ``bindings`` keys name the joined rows;
    ``aliased`` holds one entry per table plus a False one for owner -1
    (a row that probes no honeyprefix).  With several tables, an address
    outside its own prefix is left out: only a probe of that honeyprefix
    is classified against it, and such a probe falls inside the prefix.
    Every address then has one owner.
    """

    hi: np.ndarray
    lo: np.ndarray
    role: np.ndarray
    role_time: np.ndarray
    hit_time: np.ndarray
    echo: np.ndarray
    owner: np.ndarray
    alias: np.ndarray
    bindings: np.ndarray
    aliased: np.ndarray

    @classmethod
    def of(cls, tables) -> "TacticTables":
        parts = []
        for table in tables:
            columns = [getattr(table, name) for name in _ROWS]
            bindings = table.bindings
            if len(tables) > 1:
                net_hi, net_lo, mask_hi, mask_lo = table.net
                inside = (((table.hi & np.uint64(mask_hi))
                           == np.uint64(net_hi))
                          & ((table.lo & np.uint64(mask_lo))
                             == np.uint64(net_lo)))
                if not inside.all():
                    renumber = np.cumsum(inside) - 1
                    bindings = bindings[inside[bindings >> 25]]
                    bindings = ((renumber[bindings >> 25] << 25)
                                | (bindings & ((1 << 25) - 1)))
                    columns = [column[inside] for column in columns]
            parts.append((columns, bindings))
        sizes = [len(columns[0]) for columns, _ in parts]
        offsets = np.cumsum([0] + sizes[:-1]).tolist()
        joined = {name: np.concatenate([columns[j] for columns, _ in parts])
                  for j, name in enumerate(_ROWS)}
        aliased = np.array([t.aliased for t in tables] + [False])
        owner = np.repeat(np.arange(len(parts)), sizes)
        return cls(
            **joined, owner=owner, alias=aliased[owner],
            bindings=np.concatenate([
                bindings + _binding_key(offset, 0, 0)
                for (_, bindings), offset in zip(parts, offsets)]),
            aliased=aliased)

    def special_ids(self, dst_hi: np.ndarray, dst_lo: np.ndarray,
                    owner: np.ndarray) -> np.ndarray:
        """The special-address row of each destination aimed at
        ``tables[owner[i]]``, or -1 when it is none of that table's."""
        special = find_keys((self.hi, self.lo), (dst_hi, dst_lo))
        if len(self.aliased) > 2:
            hit = np.flatnonzero(special >= 0)
            special[hit[self.owner[special[hit]] != owner[hit]]] = -1
        return special


def _blend(codes: np.ndarray, mask: np.ndarray, code: int) -> None:
    """``codes[mask] = code`` without a branch per row: uint8 arithmetic
    wraps, so ``codes + (code - codes)`` is ``code``."""
    codes += mask.view(np.uint8) * (np.uint8(code) - codes)


def _classify(records: PacketRecords, tables: TacticTables,
              owner: np.ndarray, special: np.ndarray,
              inside: np.ndarray | None) -> np.ndarray:
    """One ``_TACTIC_FEATURES`` index per row of ``records``: a probe of
    honeyprefix ``owner`` to special address ``special`` (-1: none).

    The decision tree: a manual hitlist target probed after the hitlist
    went live is HITLIST; a domain (subdomain) target is DOMAIN
    (SUBDOMAIN), or TLS_ROOT (TLS_SUB) once its certificate was issued;
    otherwise ICMP/TCP/UDP when the address answers that probe (every
    in-prefix address answers ICMP on an aliased prefix), else OTHER.
    Only probes to a special address can leave the default (an aliased
    prefix's ICMP, or OTHER).  Over those, the role codes come from the
    address's row and the probe time; only the probes of an address with
    no domain role read their protocol, and only the TCP and UDP ones
    look their port up among the bindings.  ``inside`` says which rows
    fall in their honeyprefix (default: all).
    """
    # Masks blend codes arithmetically (``8 * ~mask``, ``_blend``): a
    # masked store over rows in no order mispredicts a branch per row.
    aliased = tables.aliased.any()
    if aliased:
        default = (records.proto == ICMPV6) & tables.aliased[owner]
        if inside is not None:
            default &= inside
        codes = (~default).view(np.uint8) * np.uint8(8)  # ICMP or OTHER
    else:
        codes = np.full(len(records), 8, dtype=np.uint8)  # OTHER

    rows = np.flatnonzero(special >= 0)
    if len(rows) == 0:
        return codes
    a = special[rows]
    t = records.ts[rows]
    code = tables.role[a]
    code += t >= tables.role_time[a]  # DOMAIN/SUBDOMAIN -> TLS_ROOT/SUB
    plain = np.flatnonzero(code == 8)
    if len(plain):
        at_plain, a_plain = rows[plain], a[plain]
        proto = records.proto[at_plain]
        echo = tables.echo[a_plain]
        if aliased:
            alias = tables.alias[a_plain]
            if inside is not None:
                alias &= inside[at_plain]
            echo |= alias
        code[plain[(proto == ICMPV6) & echo]] = 0  # ICMP
        bindings = tables.bindings
        served = np.flatnonzero((proto == TCP) | (proto == UDP))
        if len(bindings) and len(served):
            p = proto[served]
            key = _binding_key(a_plain[served], p.astype(np.int64),
                               records.dport[at_plain[served]]
                               .astype(np.int64))
            at = np.searchsorted(bindings, key)
            at[at == len(bindings)] = 0
            bound = np.flatnonzero(bindings[at] == key)
            code[plain[served[bound]]] = np.where(
                p[bound] == TCP, 1, 2)  # TCP / UDP
    _blend(code, t >= tables.hit_time[a], 7)  # HITLIST
    codes[rows] = code
    return codes


def tactic_masks(records: PacketRecords, tables: TacticTables,
                 group: np.ndarray, owner: np.ndarray | None = None,
                 special: np.ndarray | None = None,
                 inside: np.ndarray | None = None,
                 order: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(groups, first, masks)``: every group's id, first probe and
    feature mask (bit ``i`` is ``_TACTIC_FEATURES[i]``), in order of the
    groups' first probes.

    Row ``i`` of ``records`` is a probe of honeyprefix ``owner[i]``
    (default: the first) to special address ``special[i]`` (default:
    looked up), counted in group ``group[i]`` (dense ids).  ``inside``
    says which rows fall in their honeyprefix (default: all).  A group's
    first probe is its least ``order`` (default: the row position).  One
    scatter of ``(group, code)`` pairs ORs every group's feature bits;
    no sort runs over the probes.
    """
    n = len(records)
    if owner is None:
        owner = np.zeros(n, dtype=np.int64)
    if special is None:
        special = tables.special_ids(records.dst_hi, records.dst_lo, owner)
    if order is None:
        order = np.arange(n)
    codes = _classify(records, tables, owner, special, inside)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.uint16)
    n_groups = int(group.max()) + 1
    first = np.full(n_groups, n, dtype=np.int64)
    np.minimum.at(first, group, order)
    groups = np.flatnonzero(first < n)
    groups = groups[np.argsort(first[groups])]
    bits = np.zeros((n_groups, 16), dtype=bool)
    bits.ravel()[group * 16 + codes] = True
    masks = np.packbits(bits[groups], axis=1, bitorder="little")
    return groups, first[groups], masks.view(np.uint16)[:, 0]


@lru_cache(maxsize=None)
def _mask_label(mask: int) -> str:
    return combo_label({f for bit, f in enumerate(_TACTIC_FEATURES)
                        if mask >> bit & 1})


def combo_counts(masks: np.ndarray) -> Counter:
    """Sources per combination label, labels inserted in order of their
    first source (``most_common`` ties follow that order)."""
    combos: Counter = Counter()
    distinct, first, counts = np.unique(masks, return_index=True,
                                        return_counts=True)
    for k in np.argsort(first).tolist():
        combos[_mask_label(int(distinct[k]))] += int(counts[k])
    return combos


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
        _, _, masks = tactic_masks(
            records, TacticTables.of([TacticTable.of(hp)]),
            records.source_groups(source_length),
            inside=(records.mask_dst_in(hp.prefix) if hp.config.aliased
                    else None))
    return TacticReport(honeyprefix=hp.name, combos=combo_counts(masks),
                        total_sources=len(masks))
