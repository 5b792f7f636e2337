"""Tests for records persistence and conn.log export."""

import numpy as np
import pytest

from repro.analysis.flows import aggregate_flows, write_conn_log
from repro.analysis.records import PacketRecords
from repro.net.packet import TcpFlags, icmp_echo_request, tcp_segment
from tests.analysis.reference import src_addresses

SRC = 0x20010DB8 << 96 | 7
DST = 0x20010DB8 << 96 | 9


@pytest.fixture
def packets():
    return [
        icmp_echo_request(1.0, SRC, DST),
        tcp_segment(2.0, SRC, DST, 4000, 443, TcpFlags.SYN),
        tcp_segment(2.5, SRC, DST, 4000, 443, TcpFlags.ACK, seq=1),
    ]


class TestRecordsPersistence:
    def test_save_load_roundtrip(self, tmp_path, packets):
        records = PacketRecords.from_packets(packets)
        path = tmp_path / "records.npz"
        records.save_npz(path)
        loaded = PacketRecords.load_npz(path)
        assert len(loaded) == len(records)
        assert list(src_addresses(loaded)) == list(src_addresses(records))
        assert np.array_equal(loaded.ts, records.ts)
        assert np.array_equal(loaded.proto, records.proto)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        PacketRecords.empty().save_npz(path)
        assert len(PacketRecords.load_npz(path)) == 0

    def test_hyper_specific_addresses_roundtrip(self, tmp_path):
        """Addresses whose discriminating bits sit below the /48 boundary
        (hyper-specific prefixes up to /64 and full interface ids) survive
        the uint64-pair columns exactly."""
        addresses = [
            (0x20010DB8 << 96) | (0xBEEF << 64) | (1 << 63),   # /49 bit set
            (0x20010DB8 << 96) | (0xBEEF << 64) | 0xDEADBEEF,  # low-64 bits
            (1 << 127) | ((1 << 64) - 1),                      # extremes
        ]
        packets = [icmp_echo_request(float(i), a, DST)
                   for i, a in enumerate(addresses)]
        path = tmp_path / "specific.npz"
        PacketRecords.from_packets(packets).save_npz(path)
        loaded = PacketRecords.load_npz(path)
        assert list(src_addresses(loaded)) == addresses


class TestConnLog:
    def test_zeek_format(self, tmp_path, packets):
        flows = aggregate_flows(PacketRecords.from_packets(packets))
        path = tmp_path / "conn.log"
        assert write_conn_log(flows, path) == 2
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#separator")
        assert lines[1].startswith("#fields\tts\tuid")
        columns = lines[2].split("\t")
        assert len(columns) == 9
        assert columns[2] == "2001:db8::7"
        assert columns[6] in ("icmp6", "tcp")

    def test_empty(self, tmp_path):
        path = tmp_path / "conn.log"
        assert write_conn_log([], path) == 0
        assert path.read_text().count("\n") == 2  # headers only

