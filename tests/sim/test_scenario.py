"""Integration tests over the shared small scenario run.

These exercise the whole stack: fabric, population, telescope, triggers,
capture, and the result bundle.  The heavy lifting happens once in the
session-scoped ``small_result`` fixture.
"""

import numpy as np
import pytest

from repro._util import DAY
from repro.core.features import Feature
from repro.net.packet import ICMPV6


class TestDeployment:
    def test_all_honeyprefixes_deployed(self, small_result):
        assert len(small_result.honeyprefixes) == 27

    def test_honeyprefixes_in_upper_half(self, small_result):
        covering = small_result.scenario.nta_covering
        half = covering.network | (1 << 95)
        for hp in small_result.honeyprefixes.values():
            assert hp.prefix.network >= half

    def test_bgp_recorded_for_announced(self, small_result):
        for name, hp in small_result.honeyprefixes.items():
            if hp.config.announce_fails:
                assert hp.feature_time(Feature.BGP) is None
            else:
                assert hp.feature_time(Feature.BGP) is not None

    def test_triggers_fired(self, small_result):
        tpot = small_result.honeyprefixes["H_TPot1"]
        assert tpot.feature_time(Feature.HITLIST) is not None
        assert tpot.feature_time(Feature.TLS_ROOT) is not None
        assert (tpot.feature_time(Feature.TLS_ROOT)
                > tpot.feature_time(Feature.HITLIST))

    def test_withdrawal_happened(self, small_result):
        assert small_result.honeyprefixes["H_BGP2"].withdrawn_at is not None
        assert small_result.honeyprefixes["H_BGP3"].withdrawn_at is not None
        assert small_result.honeyprefixes["H_BGP1"].withdrawn_at is None


class TestTraffic:
    def test_all_telescopes_captured(self, small_result):
        assert len(small_result.nta) > 1000
        assert len(small_result.ntc) > 100
        assert len(small_result.ntb) >= 0

    def test_nta_dominates(self, small_result):
        assert len(small_result.nta) > len(small_result.ntc)
        assert len(small_result.ntc) > len(small_result.ntb)

    def test_icmp_dominates(self, small_result):
        icmp = int(small_result.nta.mask_proto(ICMPV6).sum())
        assert icmp / len(small_result.nta) > 0.7

    def test_live_prefixes_not_captured(self, small_result):
        for live in small_result.scenario.live_prefixes:
            assert int(small_result.nta.mask_dst_in(live).sum()) == 0

    def test_most_traffic_hits_honeyprefixes(self, small_result):
        total = 0
        for hp in small_result.honeyprefixes.values():
            total += int(small_result.nta.mask_dst_in(hp.prefix).sum())
        assert total / len(small_result.nta) > 0.9

    def test_announcement_precedes_traffic(self, small_result):
        hp = small_result.honeyprefixes["H_Alias"]
        records = small_result.honeyprefix_records("H_Alias")
        assert len(records) > 0
        assert float(records.ts.min()) >= hp.feature_time(Feature.BGP)


def _answered(small_result, tpot: bool) -> bool:
    """Whether some captured NT-A row into a T-Pot (or, with ``tpot``
    false, a Twinklenet) honeyprefix is one the telescope's oracle
    answers at its capture time: what a scanner learns responds."""
    telescope = small_result.scenario.telescope
    nta = small_result.nta
    rows = (row for hp in small_result.honeyprefixes.values()
            if bool(hp.config.tpot) == tpot
            for row in np.flatnonzero(nta.mask_dst_in(hp.prefix)).tolist())
    return any(telescope.responds(pkt.dst, pkt.proto, pkt.dport,
                                  pkt.timestamp)
               for pkt in map(nta.packet_at, rows))


class TestHoneypotInteraction:
    def test_twinklenet_responded(self, small_result):
        """Scanners probed addresses Twinklenet answers for."""
        assert _answered(small_result, tpot=False)

    def test_tpot_gateway_replied(self, small_result):
        """Scanners probed the T-Pot surface its gateway answers on."""
        assert _answered(small_result, tpot=True)

    def test_hitlist_published_entries(self, small_result):
        entries = small_result.scenario.fabric.hitlist.entries()
        assert len(entries) > 10
        assert any(e.manual for e in entries)

    def test_certificates_issued_and_logged(self, small_result):
        log = small_result.scenario.fabric.ct_log
        assert len(log) > 50


class TestResultBundle:
    def test_control_records_not_honeyprefix(self, small_result):
        control = small_result.control_records()
        honey_nets = {hp.prefix.network
                      for hp in small_result.honeyprefixes.values()}
        if len(control):
            dsts = {(d >> 80) << 80 for d in control.dst_addresses()}
            assert len(dsts) == 1
            assert not dsts & honey_nets

    def test_honeyprefix_records_scoped(self, small_result):
        records = small_result.honeyprefix_records("H_TPot1")
        hp = small_result.honeyprefixes["H_TPot1"]
        assert all(d in hp.prefix for d in records.dst_addresses())

    def test_telescopes_mapping(self, small_result):
        scopes = small_result.telescopes()
        assert set(scopes) == {"NT-A", "NT-B", "NT-C"}

    def test_joiner_resolves_most_sources(self, small_result):
        asns = small_result.joiner.row_asns(small_result.nta)
        assert np.mean(asns > 0) > 0.95


class TestRetractionBehavior:
    def test_scanning_dies_after_withdrawal(self, small_result):
        hp = small_result.honeyprefixes["H_BGP2"]
        records = small_result.honeyprefix_records("H_BGP2")
        w = hp.withdrawn_at
        before = records.select(records.mask_time(w - 7 * DAY, w))
        after = records.select(records.mask_time(w + 2 * DAY, w + 9 * DAY))
        assert len(before) > 0
        assert len(after) < len(before) * 0.2
