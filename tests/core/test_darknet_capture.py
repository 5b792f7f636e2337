"""Tests for the passive darknet telescope and the packet capturer."""

import pytest

from repro.core.capture import PacketCapturer
from repro.core.darknet import DarknetTelescope
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.net.packet import icmp_echo_request
from tests.analysis.reference import src_addresses

COVERING = IPv6Prefix.parse("2001:db8::/32")


def _one(pkt):
    """One packet as a one-row batch."""
    return PacketBatch.from_packets([pkt])


class TestDarknet:
    def test_captures_dark_traffic(self):
        telescope = DarknetTelescope("NT", COVERING)
        pkt = icmp_echo_request(1.0, 9, COVERING.network | 5)
        telescope.handle_batch(_one(pkt))
        records = telescope.capturer.to_records()
        assert list(records.iter_packets()) == [pkt]
        assert telescope.captured_count == 1

    def test_ignores_out_of_prefix(self):
        telescope = DarknetTelescope("NT", COVERING)
        telescope.handle_batch(_one(icmp_echo_request(1.0, 9, 42)))
        assert telescope.ignored_count == 1

    def test_assigned_subnets_not_monitored(self):
        telescope = DarknetTelescope("NT", COVERING)
        live = COVERING.subnet_at(0, 33)
        telescope.assign(live)
        assert not telescope.monitors(live.network | 1)
        assert telescope.monitors(COVERING.subnet_at(1, 33).network | 1)
        telescope.handle_batch(_one(icmp_echo_request(1.0, 9,
                                                      live.network | 1)))
        assert telescope.ignored_count == 1

    def test_unassign_restores(self):
        telescope = DarknetTelescope("NT", COVERING)
        live = COVERING.subnet_at(0, 33)
        telescope.assign(live)
        telescope.unassign(live)
        assert telescope.monitors(live.network | 1)

    def test_assign_rejects_outside(self):
        telescope = DarknetTelescope("NT", COVERING)
        with pytest.raises(ValueError):
            telescope.assign(IPv6Prefix.parse("2002::/48"))

    def test_dark_fraction(self):
        telescope = DarknetTelescope("NT", COVERING)
        assert telescope.dark_fraction() == 1.0
        telescope.assign(COVERING.subnet_at(0, 33))
        assert telescope.dark_fraction() == pytest.approx(0.5)


class TestCapturer:
    def test_columns_roundtrip(self):
        capturer = PacketCapturer()
        pkt = icmp_echo_request(3.5, 0xABCDEF << 64, COVERING.network | 9)
        capturer.capture_batch(_one(pkt))
        records = capturer.to_records()
        assert len(records) == 1
        assert list(src_addresses(records)) == [pkt.src]
        assert list(records.dst_addresses()) == [pkt.dst]
        assert records.ts[0] == 3.5

    def test_len(self):
        capturer = PacketCapturer()
        assert len(capturer) == 0
        capturer.capture_batch(_one(icmp_echo_request(1.0, 1, 2)))
        assert len(capturer) == 1
