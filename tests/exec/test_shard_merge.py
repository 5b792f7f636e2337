"""``merge_day`` rebuilds serial order from per-worker day deltas.

Each shard worker ships one capture delta per telescope per day, its rows
in ascending agent order over the agents it owns.  The merge concatenates
the workers' rows and stably sorts them on the truth ``origin`` column;
these tests check it against a serial concatenation in agent order on
synthetic payloads, with agents interleaved across two workers.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.capture import PacketCapturer
from repro.exec.shard import merge_day
from repro.net.addr import IPv6Prefix
from repro.net.batch import PacketBatch
from repro.obs.journal import RecordingJournal
from repro.sim.scenario import DispatchCounters

#: Telescope key -> a destination /48 inside that telescope.
TELESCOPES = {
    "nta": IPv6Prefix.parse("2403:e800:8000::/48"),
    "ntb": IPv6Prefix.parse("2001:770:200::/48"),
    "ntc": IPv6Prefix.parse("2620:10a:8000::/48"),
}
AGENTS = range(6)
WORKERS = ((0, 2, 4), (1, 3, 5))
COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo", "proto",
           "sport", "dport")


def _agent_batch(rng, agent: int) -> PacketBatch:
    """One agent's day: rows landing at NT-A, NT-B and NT-C, mixed."""
    n = int(rng.integers(5, 40))
    keys = list(TELESCOPES)
    dst_hi = np.array([TELESCOPES[keys[k]].network >> 64
                       for k in rng.integers(3, size=n)], dtype=np.uint64)
    return PacketBatch.from_columns(
        ts=np.sort(rng.uniform(0, 86_400, n)),
        src_hi=rng.integers(0, 2**63, n, dtype=np.uint64),
        src_lo=np.full(n, agent, dtype=np.uint64),
        dst_hi=dst_hi,
        dst_lo=rng.integers(0, 2**63, n, dtype=np.uint64),
        proto=rng.choice([6, 17, 58], n),
        sport=rng.integers(0, 65_536, n),
        dport=rng.integers(0, 65_536, n),
        origin=np.full(n, agent),
    )


def _split(batch: PacketBatch) -> dict:
    return {key: batch.select(batch.mask_dst_in(prefix))
            for key, prefix in TELESCOPES.items()}


def _scenario():
    return SimpleNamespace(
        telescope=SimpleNamespace(capturer=PacketCapturer("NT-A")),
        ntb_capturer=PacketCapturer("NT-B"),
        ntc_capturer=PacketCapturer("NT-C"),
        counters=DispatchCounters(),
    )


def _capturers(scenario) -> dict:
    return {"nta": scenario.telescope.capturer,
            "ntb": scenario.ntb_capturer, "ntc": scenario.ntc_capturer}


def _records(agent: int) -> list:
    return [("session_start", {"agent": agent, "asn": 64_500 + agent,
                               "trigger": "bgp", "at": float(k)})
            for k in range(agent % 3)]


def _payload(batches: dict, agents) -> dict:
    """A worker's day: its agents' rows captured in agent order."""
    day = PacketBatch.concat([batches[a] for a in agents])
    captures = {}
    for key, sub in _split(day).items():
        chunks = [sub] if len(sub) else []
        captures[key] = ([c.drop_origin() for c in chunks], chunks)
    return {
        "engine": [],
        "records": [r for a in agents for r in _records(a)],
        "emitted": len(day),
        "captures": captures,
        "counters": tuple(len(sub) for sub in _split(day).values())
        + (0, 0),
    }


@pytest.mark.parametrize("seed", range(5))
def test_merge_equals_serial_agent_order(seed):
    rng = np.random.default_rng(seed)
    batches = {a: _agent_batch(rng, a) for a in AGENTS}

    serial = _scenario()
    serial_day = PacketBatch.concat([batches[a] for a in AGENTS])
    for key, sub in _split(serial_day).items():
        _capturers(serial)[key].capture_batch(sub)
    serial_journal = [r for a in AGENTS for r in _records(a)]
    serial_journal.append(("day", {"day": 3, "emitted": len(serial_day)}))

    merged = _scenario()
    journal = RecordingJournal()
    emitted = merge_day(merged, journal, 3, [],
                        [_payload(batches, agents) for agents in WORKERS])

    assert emitted == len(serial_day)
    assert journal.plain_records() == serial_journal
    for key, cap in _capturers(merged).items():
        want = _capturers(serial)[key]
        got_records, want_records = cap.to_records(), want.to_records()
        assert len(got_records) == len(want_records) > 0, key
        for column in COLUMNS:
            assert np.array_equal(getattr(got_records, column),
                                  getattr(want_records, column)), key
        assert np.array_equal(cap.to_truth().origin,
                              want.to_truth().origin), key
    counters = merged.counters
    assert (counters.nta, counters.ntb, counters.ntc) == tuple(
        len(sub) for sub in _split(serial_day).values())


def _one_payload(batch: PacketBatch, truth: list) -> dict:
    return {"engine": [], "records": [], "emitted": len(batch),
            "captures": {"nta": ([batch.drop_origin()], truth),
                         "ntb": ([], []), "ntc": ([], [])},
            "counters": (len(batch), 0, 0, 0, 0)}


def test_chunk_without_origin_raises():
    batch = _agent_batch(np.random.default_rng(9), 2)
    payload = _one_payload(batch, [batch.drop_origin()])
    with pytest.raises(ValueError, match="origin"):
        merge_day(_scenario(), RecordingJournal(), 0, [], [payload])


def test_row_count_mismatch_raises():
    batch = _agent_batch(np.random.default_rng(9), 2)
    payload = _one_payload(batch, [batch.select(np.arange(len(batch) - 1))])
    with pytest.raises(ValueError, match="rows differ"):
        merge_day(_scenario(), RecordingJournal(), 0, [], [payload])
