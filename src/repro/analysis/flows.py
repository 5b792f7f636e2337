"""Zeek-like flow aggregation.

Packets sharing a 5-tuple (src, dst, proto, sport, dport) within an
inactivity timeout form one flow.  The paper used Zeek to aggregate captures
into flows before analysis; this module provides the same building block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.analysis.records import PacketRecords
from repro.obs import get_registry, stage

#: Zeek's default UDP/ICMP inactivity timeout is 60 s; TCP's is longer.  A
#: single uniform timeout keeps flow semantics simple and matches how the
#: paper's analysis consumed flows (as probe groupings, not byte counters).
DEFAULT_FLOW_TIMEOUT = 60.0


@dataclass(frozen=True, slots=True)
class Flow:
    """One aggregated flow."""

    src: int
    dst: int
    proto: int
    sport: int
    dport: int
    first_seen: float
    last_seen: float
    packets: int

    @property
    def duration(self) -> float:
        return self.last_seen - self.first_seen


def _flow_order(flow: Flow) -> tuple:
    # Total order over distinct flows: two flows of the same 5-tuple are
    # separated by > timeout and cannot share a first_seen, so the full
    # tuple disambiguates every tie.
    return (flow.first_seen, flow.src, flow.dst,
            flow.proto, flow.sport, flow.dport)


def aggregate_flows(
    records: PacketRecords, timeout: float = DEFAULT_FLOW_TIMEOUT
) -> list[Flow]:
    """Aggregate packet records into flows.

    Packets are processed in timestamp order; a packet extends an existing
    flow when it shares the 5-tuple and arrives within ``timeout`` of the
    flow's last packet, otherwise it opens a new flow.

    Columnar implementation: one lexsort by (5-tuple, timestamp) makes each
    flow a contiguous run, split where the within-tuple gap exceeds the
    timeout; Python only materializes the resulting :class:`Flow` objects.
    The per-packet loop is kept as the test oracle
    ``aggregate_flows_reference`` in ``tests/analysis/reference.py``.
    """
    with stage("analysis.aggregate_flows", records=len(records)):
        flows = _aggregate_flows_impl(records, timeout)
    registry = get_registry()
    registry.counter("analysis.aggregate_flows.records_in").inc(len(records))
    registry.counter("analysis.aggregate_flows.flows_out").inc(len(flows))
    return flows


def _aggregate_flows_impl(records: PacketRecords, timeout: float) -> list[Flow]:
    check_positive("timeout", timeout)
    n = len(records)
    if n == 0:
        return []
    ts = records.ts
    tuple_cols = (records.src_hi, records.src_lo,
                  records.dst_hi, records.dst_lo,
                  records.proto, records.sport, records.dport)
    # Primary keys: the 5-tuple columns; timestamp varies fastest.
    order = np.lexsort((ts,) + tuple_cols[::-1])
    cols = [c[order] for c in tuple_cols]
    t = ts[order]

    new_flow = np.empty(n, dtype=bool)
    new_flow[0] = True
    split = t[1:] - t[:-1] > timeout
    for c in cols:
        split |= c[1:] != c[:-1]
    new_flow[1:] = split
    starts = np.flatnonzero(new_flow)
    ends = np.append(starts[1:], n) - 1
    counts = np.diff(np.append(starts, n))

    # tolist() converts whole columns to Python scalars at C speed; the
    # per-flow work below is just shifts and Flow construction.
    rows = zip(*(c[starts].tolist() for c in cols),
               t[starts].tolist(), t[ends].tolist(), counts.tolist())
    flows = [
        Flow(src=(sh << 64) | sl, dst=(dh << 64) | dl,
             proto=pr, sport=sp, dport=dp,
             first_seen=first, last_seen=last, packets=count)
        for sh, sl, dh, dl, pr, sp, dp, first, last, count in rows
    ]
    flows.sort(key=_flow_order)
    return flows


#: Zeek conn.log-style column header.
CONN_LOG_FIELDS = ("ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h",
                   "id.resp_p", "proto", "duration", "orig_pkts")

_PROTO_NAMES = {1: "icmp", 6: "tcp", 17: "udp", 58: "icmp6"}


def write_conn_log(flows: list[Flow], path) -> int:
    """Write flows as a Zeek-style tab-separated ``conn.log``.

    Emits the ``#fields`` header Zeek consumers expect; returns the number
    of rows written.
    """
    from repro.net.addr import format_address

    with open(path, "w") as stream:
        stream.write("#separator \\x09\n")
        stream.write("#fields\t" + "\t".join(CONN_LOG_FIELDS) + "\n")
        for index, flow in enumerate(flows):
            row = (
                f"{flow.first_seen:.6f}",
                f"C{index:08x}",
                format_address(flow.src),
                str(flow.sport),
                format_address(flow.dst),
                str(flow.dport),
                _PROTO_NAMES.get(flow.proto, str(flow.proto)),
                f"{flow.duration:.6f}",
                str(flow.packets),
            )
            stream.write("\t".join(row) + "\n")
    return len(flows)
