"""Observer record schema, serialization, and torn-file tolerance.

The observer JSON contract: every day file round-trips through the
canonical ``observer_line`` serialization, validation rejects structural
corruption loudly, and the ``observations.jsonl`` mirror tolerates the
same crash artifacts (torn final line) the run journal does — mirrored
on ``tests/obs/test_journal_tail.py``.
"""

import copy
import json
import pickle
from collections import Counter

import numpy as np
import pytest

from repro._util import DAY, HOUR
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import DayIndex
from repro.analysis.tactics import TacticTable, label_tactics
from repro.core.features import Feature
from repro.net.packet import ICMPV6, TCP, UDP
from repro.obs import JournalTail
from repro.observatory import (
    ObservatoryError,
    day_file_path,
    day_tactics,
    load_observer_day,
    observer_line,
    validate_observer,
)
from repro.observatory.index import (
    list_day_files,
    read_index,
    read_observations,
    update_index,
)
from repro.net.addr import prefix_groups_u64
from repro.observatory import Observatory
from repro.observatory.observer import OBSERVATIONS_NAME, TELESCOPES
from tests.analysis.reference import label_tactics_oracle
from repro.sim import ScenarioConfig
from tests.observatory.reference import (
    SeenSourcesReference,
    as_sets,
    day_tactics_reference,
    tactic_combos_reference,
)

from tests.observatory.conftest import DAYS, OBS_CONFIG


@pytest.fixture()
def record(serial_observatory):
    directory, _ = serial_observatory
    return load_observer_day(day_file_path(directory, DAYS - 1))


class TestSchema:
    def test_round_trip_is_canonical(self, record):
        line = observer_line(record)
        assert line.endswith("\n")
        parsed = json.loads(line)
        assert parsed == record
        assert observer_line(parsed) == line
        validate_observer(parsed)

    def test_day_files_cover_horizon_and_validate(self, serial_observatory):
        directory, result = serial_observatory
        days = [day for day, _ in list_day_files(directory)]
        assert days == list(range(DAYS))
        observations = read_observations(directory)  # validates every file
        assert [r["day"] for r in observations] == days
        assert result.observatory["days"] == DAYS
        assert result.observatory["records"] == sum(
            section["records"]
            for r in observations for section in r["telescopes"].values())

    def test_wrong_type_rejected(self, record):
        bad = dict(record, type="observer_index")
        with pytest.raises(ObservatoryError, match="expected an observer"):
            validate_observer(dict(bad, file="x", sha256="y"))

    def test_missing_telescope_rejected(self, record):
        bad = copy.deepcopy(record)
        del bad["telescopes"][TELESCOPES[0]]
        with pytest.raises(ObservatoryError, match="telescope sections"):
            validate_observer(bad)

    def test_non_integer_count_rejected(self, record):
        bad = copy.deepcopy(record)
        bad["telescopes"]["NT-A"]["events_closed"]["64"] = 1.5
        with pytest.raises(ObservatoryError, match="bad count"):
            validate_observer(bad)

    def test_combo_sum_mismatch_rejected(self, record):
        bad = copy.deepcopy(record)
        bad["tactics"]["sources"] += 1
        with pytest.raises(ObservatoryError, match="sum to sources"):
            validate_observer(bad)

    def test_incoherent_reaction_latency_rejected(self, record):
        bad = copy.deepcopy(record)
        name, entry = next(
            (name, entry) for name, entry in bad["honeyprefixes"].items()
            if entry["first_seen"] is not None)
        entry["reaction_s"] += 1.0
        with pytest.raises(ObservatoryError, match="reaction_s"):
            validate_observer(bad)

    def test_torn_day_file_rejected(self, serial_observatory, tmp_path):
        directory, _ = serial_observatory
        torn = tmp_path / "observer-00000.json"
        torn.write_text(day_file_path(directory, 0).read_text()[:-20])
        with pytest.raises(ObservatoryError, match="unreadable day file"):
            load_observer_day(torn)


class TestObservationsStream:
    def test_jsonl_is_day_file_concatenation(self, serial_observatory):
        directory, _ = serial_observatory
        body = b"".join(path.read_bytes()
                        for _, path in list_day_files(directory))
        stream = (directory / OBSERVATIONS_NAME).read_bytes()
        assert stream.startswith(body)
        trailer = stream[len(body):].decode().splitlines()
        assert len(trailer) == 1
        assert json.loads(trailer[0])["type"] == "observatory_end"

    def test_tail_tolerates_torn_final_line(self, serial_observatory,
                                            tmp_path):
        """Mirror of the journal-tail crash contract for observations."""
        directory, _ = serial_observatory
        path = tmp_path / OBSERVATIONS_NAME
        complete = (directory / OBSERVATIONS_NAME).read_bytes()
        path.write_bytes(complete + b'{"v": 1, "type": "observer", "da')

        tail = JournalTail(path)
        records = tail.poll()
        assert [r["day"] for r in records if r["type"] == "observer"] \
            == list(range(DAYS))
        assert records[-1]["type"] == "observatory_end"
        assert tail.poll() == []  # torn line held back, never yielded


class TestIndex:
    def test_index_matches_day_files(self, serial_observatory):
        directory, _ = serial_observatory
        entries = read_index(directory)
        assert [e["day"] for e in entries] == list(range(DAYS))
        for entry in entries:
            assert entry["type"] == "observer_index"
            assert len(entry["sha256"]) == 64

    def test_update_is_idempotent(self, serial_observatory):
        directory, _ = serial_observatory
        before = read_index(directory)
        assert update_index(directory) == []
        assert read_index(directory) == before

    def test_forked_history_refused(self, serial_observatory, tmp_path):
        import shutil

        directory, _ = serial_observatory
        clone = tmp_path / "data"
        shutil.copytree(directory, clone)
        day0 = day_file_path(clone, 0)
        record = json.loads(day0.read_text())
        record["telescopes"]["NT-A"]["records"] += 1  # rewrite history
        day0.write_text(observer_line(record))
        with pytest.raises(ObservatoryError, match="index entry"):
            update_index(clone)

    def test_missing_directory_is_empty(self, tmp_path):
        assert list_day_files(tmp_path / "never-written") == []
        assert read_index(tmp_path / "never-written") == []


class TestDayTactics:
    def test_matches_label_tactics_per_honeyprefix(self, serial_observatory):
        """The tactic kernel Fig 11 and the observer share is pinned
        against the per-packet oracle on real scenario traffic."""
        from repro.sim import run_scenario

        _directory, _ = serial_observatory
        result = run_scenario(OBS_CONFIG)  # batch run, full records
        nta = result.nta
        checked = 0
        for name in sorted(result.scenario.honeyprefixes):
            hp = result.scenario.honeyprefixes[name]
            selected = nta.select(nta.mask_dst_in(hp.prefix))
            reference, reference_sources = label_tactics_oracle(selected, hp)
            combos, sources, _ = day_tactics(selected, [hp])
            assert combos == reference, name
            assert sources == reference_sources, name
            assert label_tactics(selected, hp).combos == reference, name
            checked += bool(len(selected))
        assert checked > 0  # the scenario actually exercised the kernel

    def test_bad_source_length_rejected(self):
        from repro.analysis.records import PacketRecords

        with pytest.raises(ValueError):
            day_tactics(PacketRecords.empty(), None, source_length=0)


#: Every trigger inside eight days (the digest config of
#: ``test_observatory_digest.py`` at a lower volume): TLS issued, T-Pot
#: and H_UDP hitlisted, two BGP-only prefixes withdrawn.
TRIGGERS_CONFIG = ScenarioConfig(
    seed=29, duration_days=8, volume_scale=1e-5, n_tail=5, phase1_day=1,
    phase2_day=2, phase3_day=3, specific_start_day=4, tls_offset_days=1,
    tpot_hitlist_offset_days=2, tpot_tls_offset_days=3,
    udp_hitlist_offset_days=1, withdraw_after_days=3,
    hitlist_first_cycle_day=1, hitlist_cycle_days=2)


@pytest.fixture(scope="module")
def triggered():
    """The honeyprefixes of a run that fired every trigger, by name."""
    from repro.sim import run_scenario

    return run_scenario(TRIGGERS_CONFIG, stream_analysis=True).honeyprefixes


def _random_day(rng, hps, n):
    """``n`` probes over the honeyprefixes: about half to their special
    addresses, the rest to random addresses in them, in /48s next to
    them and far outside.  A third come from four heavy scanner /48s
    (so one /48 probes several honeyprefixes), the rest from many light
    ones, whose few probes keep their feature masks apart; half the
    probes land within two hours of some trigger."""
    special = {hp.name: sorted(set(hp.responsive)
                               | set(hp.domain_targets.values())
                               | set(hp.subdomain_targets.values())
                               | set(hp.manual_hitlist_addresses))
               for hp in hps}
    ports = sorted({port for hp in hps for bindings in hp.responsive.values()
                    for _, port in bindings if port is not None})
    triggers = sorted({t for hp in hps for t, _, _ in hp.timeline})
    dsts = []
    for _ in range(n):
        hp = hps[rng.integers(len(hps))]
        roll = rng.random()
        if roll < 0.5 and special[hp.name]:
            mine = special[hp.name]
            dsts.append(mine[rng.integers(len(mine))])
        elif roll < 0.85:
            dsts.append(hp.prefix.network | int(rng.integers(1 << 62)))
        elif roll < 0.95:
            dsts.append((hp.prefix.network ^ (1 << 80))
                        | int(rng.integers(1 << 16)))
        else:
            dsts.append(0x3FFF << 112 | int(rng.integers(1 << 32)))
    srcs = [(0x2001_0DB8_0000 + int(rng.integers(4)) if rng.random() < 0.3
             else 0x2001_0DB9_0000 + int(rng.integers(n // 3))) << 80
            | int(rng.integers(4)) << 64 | int(rng.integers(1 << 8))
            for _ in range(n)]
    near = rng.random(n) < 0.5
    ts = np.where(near, rng.choice(triggers, n)
                  + rng.uniform(-2 * HOUR, 2 * HOUR, n),
                  rng.uniform(0.0, 8 * DAY, n))
    return PacketRecords.from_columns(
        ts=np.maximum(ts, 0.0),
        src_hi=[s >> 64 for s in srcs],
        src_lo=[s & (1 << 64) - 1 for s in srcs],
        dst_hi=[d >> 64 for d in dsts],
        dst_lo=[d & (1 << 64) - 1 for d in dsts],
        proto=rng.choice([ICMPV6, TCP, UDP, 0], n, p=[0.4, 0.3, 0.2, 0.1]),
        sport=np.full(n, 4000),
        dport=rng.choice(ports + [0, 9, 53, 80, 443], n))


class TestOnePassTactics:
    """The one-pass day kernel against the per-honeyprefix path it
    replaced (``tests.observatory.reference``), on randomized days over
    honeyprefixes in every state: aliased and not, T-Pot, TLS-issued,
    hitlisted and withdrawn."""

    def test_fixture_covers_every_state(self, triggered):
        hps = triggered.values()
        assert any(hp.config.aliased for hp in hps)
        assert any(not hp.config.aliased for hp in hps)
        assert any(hp.config.tpot for hp in hps)
        assert any(hp.feature_time(Feature.TLS_SUB) is not None
                   for hp in hps)
        assert any(hp.feature_time(Feature.HITLIST) is not None
                   for hp in hps)
        assert any(hp.withdrawn_at is not None for hp in hps)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_honeyprefix_path(self, triggered, seed):
        rng = np.random.default_rng(seed)
        names = sorted(triggered)
        # A random subset of the prefixes is deployed on this day.
        names = [n for n in names if rng.random() < 0.8]
        hps = [triggered[name] for name in names]
        records = _random_day(rng, hps, 3_000)
        expect = day_tactics_reference(
            records, {name: triggered[name] for name in names})
        assert day_tactics(records, hps) == expect
        index = DayIndex(records)
        assert day_tactics(records, hps, index=index) == expect
        # One scanner /48 probed several honeyprefixes.
        owners = {}
        for hp in hps:
            rows = records.mask_dst_in(hp.prefix)
            for source in np.unique(records.src_hi[rows] >> 16).tolist():
                owners.setdefault(source, set()).add(hp.name)
        assert max(len(seen) for seen in owners.values()) > 1

    @pytest.mark.parametrize("seed", range(3))
    def test_label_tactics_keeps_first_row_order(self, triggered, seed):
        """Fig 11 reads ``most_common``, whose ties keep the labels'
        insertion order: the sources' first rows, as before."""
        rng = np.random.default_rng(10 + seed)
        records = _random_day(rng, list(triggered.values()), 2_000)
        for name, hp in sorted(triggered.items()):
            selected = records.select(records.mask_dst_in(hp.prefix))
            combos, sources = tactic_combos_reference(selected, hp)
            report = label_tactics(selected, hp)
            assert list(report.combos.items()) == list(combos.items()), name
            assert report.total_sources == sources, name

    def test_no_probes(self, triggered):
        hps = list(triggered.values())
        records = _random_day(np.random.default_rng(0), hps, 50)
        outside = records.select(records.dst_hi >> np.uint64(48)
                                 == np.uint64(0x3FFF))
        assert day_tactics(outside, hps) == (Counter(), 0, {})
        assert day_tactics(records, []) == (Counter(), 0, {})

    def test_table_rebuilt_only_when_a_feature_is_recorded(
            self, tmp_path, triggered):
        hp = copy.deepcopy(triggered["H_UDP"])
        observatory = Observatory(tmp_path / "data")
        try:
            table = observatory._tactic_table(hp)
            assert observatory._tactic_table(hp) is table
            address = hp.prefix.network | 0xABCD
            hp.manual_hitlist_addresses.append(address)
            hp.record(9 * DAY, Feature.HITLIST)
            rebuilt = observatory._tactic_table(hp)
            assert rebuilt is not table
            fresh = TacticTable.of(hp)
            assert address & (1 << 64) - 1 in rebuilt.lo.tolist()
            for name in ("hi", "lo", "role", "hit_time", "bindings"):
                assert np.array_equal(getattr(rebuilt, name),
                                      getattr(fresh, name))
        finally:
            observatory.close()


class _DaySources:
    """An analyzer stand-in that hands the observer one day's sources."""

    def __init__(self, hi, lo, level):
        _, self.hi, self.lo = prefix_groups_u64(hi, lo, level)

    def day_sources(self, level):
        return self.hi, self.lo


#: Two /128 sources built to share one 64-bit key hash (as in
#: ``tests/analysis/test_streaming.py::TestPairIds``).
_MIX = 0x9E3779B97F4A7C15
_COLLIDING = ((1, 0), (2, ((2 * _MIX) & ((1 << 64) - 1)) ^ _MIX))


class TestSeenSources:
    """The packed seen-source columns count exactly the new sources the
    Python sets they replaced counted, at every level."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("level", [128, 64, 48])
    def test_matches_set_oracle(self, tmp_path, seed, level):
        rng = np.random.default_rng(seed)
        # A pool of sources in few /48s and /64s, with shared low halves,
        # drawn with repeats so most days see old sources again.
        n_pool = 500
        pool_hi = (np.uint64(0x20010DB8 << 32)
                   | (rng.integers(0, 6, n_pool).astype(np.uint64)
                      << np.uint64(16))
                   | rng.integers(0, 3, n_pool).astype(np.uint64))
        pool_lo = rng.integers(0, 40, n_pool).astype(np.uint64)
        observatory = Observatory(tmp_path / "data")
        oracle = SeenSourcesReference()
        try:
            for day in range(12):
                pick = rng.integers(0, n_pool, int(rng.integers(0, 120)))
                hi, lo = pool_hi[pick], pool_lo[pick]
                if day in (3, 8):  # one colliding source each
                    pair = _COLLIDING[day == 8]
                    hi = np.append(hi, np.uint64(pair[0]))
                    lo = np.append(lo, np.uint64(pair[1]))
                sources = _DaySources(hi, lo, level)
                new = observatory._count_new_sources("NT-A", level, sources)
                assert new == oracle.add(level, sources.hi, sources.lo)
                seen = observatory.state.seen_sources["NT-A"]
                if day == 9:  # what a checkpoint does to the state
                    observatory.state = pickle.loads(
                        pickle.dumps(observatory.state))
                    seen = observatory.state.seen_sources["NT-A"]
                assert as_sets(seen[level], level) == oracle.seen[level]
            keys = observatory.state.seen_sources["NT-A"][level]
            assert len(keys) == len(oracle.seen[level])
            # One-column keys hash bijectively; at /128 the built pair
            # shares a hash, so lookups took the exact fallback.
            assert keys.index.shared == (level == 128)
        finally:
            observatory.close()
