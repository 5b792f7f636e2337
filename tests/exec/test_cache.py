"""Tests for the on-disk scenario cache: hit/miss, invalidation, recovery."""

import json

import numpy as np
import pytest

from repro.exec import ScenarioCache, freeze_result
from repro.exec.cache import _manifest_digest, _sha256
from repro.obs import MetricsRegistry, use_registry
from repro.sim import ScenarioConfig, run_scenario

#: Small enough to simulate in well under a second, large enough to capture
#: packets on every telescope.
TINY = ScenarioConfig(seed=3, duration_days=3, volume_scale=1e-5, n_tail=2)


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(TINY)


class TestStoreLoad:
    def test_load_before_store_misses(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        registry = MetricsRegistry()
        with use_registry(registry):
            assert cache.load(TINY) is None
        snap = registry.snapshot()["counters"]
        assert snap["scenario.cache.misses"] == 1
        # Nothing existed, so nothing was "invalid".
        assert "scenario.cache.invalid" not in snap

    def test_roundtrip_preserves_everything(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        cache.store(tiny_result)
        loaded = cache.load(TINY)
        assert loaded is not None
        for name in ("nta", "ntb", "ntc"):
            original = getattr(tiny_result, name)
            restored = getattr(loaded, name)
            assert np.array_equal(original.ts, restored.ts)
            assert np.array_equal(original.src_hi, restored.src_hi)
            assert np.array_equal(original.src_lo, restored.src_lo)
            assert np.array_equal(original.dport, restored.dport)
        assert set(loaded.truth) == set(tiny_result.truth)
        for name, origin in tiny_result.truth.items():
            assert np.array_equal(origin, loaded.truth[name])
            assert loaded.truth[name].dtype == np.int32
        assert loaded.config == TINY
        assert loaded.honeyprefixes.keys() == tiny_result.honeyprefixes.keys()
        # The frozen scenario still supports the experiment-facing surface.
        assert loaded.scenario.live_prefixes == tiny_result.scenario.live_prefixes
        assert len(loaded.control_records()) == len(tiny_result.control_records())

    def test_loaded_result_is_frozen(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        cache.store(tiny_result)
        loaded = cache.load(TINY)
        assert loaded.scenario.frozen
        with pytest.raises(RuntimeError):
            loaded.scenario.run()

    def test_different_config_misses(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        cache.store(tiny_result)
        other = ScenarioConfig(seed=4, duration_days=3,
                               volume_scale=1e-5, n_tail=2)
        assert cache.load(other) is None

    def test_store_is_idempotent(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        entry1 = cache.store(tiny_result)
        entry2 = cache.store(tiny_result)
        assert entry1 == entry2
        assert cache.load(TINY) is not None


class TestInvalidation:
    def test_version_bump_changes_key(self, tmp_path, tiny_result,
                                      monkeypatch):
        cache = ScenarioCache(tmp_path)
        cache.store(tiny_result)
        monkeypatch.setattr("repro.__version__", "99.0-test")
        assert cache.load(TINY) is None

    def test_stale_version_in_manifest_misses(self, tmp_path, tiny_result,
                                              monkeypatch):
        """An entry whose manifest names another version never loads, even
        when it sits at the right path."""
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        manifest_path = entry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["repro_version"] = "0.0-stale"
        manifest_path.write_text(json.dumps(manifest))
        registry = MetricsRegistry()
        with use_registry(registry):
            assert cache.load(TINY) is None
        assert registry.snapshot()["counters"]["scenario.cache.invalid"] == 1

    def test_schema_bump_misses(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        manifest_path = entry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["cache_schema"] = -1
        manifest_path.write_text(json.dumps(manifest))
        assert cache.load(TINY) is None


class TestOriginColumn:
    def test_origin_roundtrip_aligned_with_records(self, tmp_path,
                                                   tiny_result):
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        manifest = json.loads((entry / "manifest.json").read_text())
        assert sorted(manifest["truth"]) == [
            "origin-NT-A.npy", "origin-NT-B.npy", "origin-NT-C.npy"]
        assert set(manifest["truth"]) <= set(manifest["files"])
        loaded = cache.load(TINY)
        for name, records in loaded.telescopes().items():
            origin = loaded.truth[name]
            assert origin.dtype == np.int32
            assert len(origin) == len(records)
            assert np.array_equal(origin, tiny_result.truth[name])

    def test_schema1_truth_tables_are_a_miss(self, tmp_path, tiny_result):
        """An entry in the schema-1 layout (six-column truth tables beside
        the records, self-checksummed) loads as a miss, never as a
        result."""
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        manifest = json.loads((entry / "manifest.json").read_text())
        del manifest["manifest_sha256"]
        truth_files = {}
        for filename, name in manifest.pop("truth").items():
            records = tiny_result.telescopes()[name]
            (entry / filename).unlink()
            del manifest["files"][filename]
            legacy = f"truth-{name}.npz"
            np.savez_compressed(
                entry / legacy, ts=records.ts, src_hi=records.src_hi,
                src_lo=records.src_lo, dst_hi=records.dst_hi,
                dst_lo=records.dst_lo, origin=tiny_result.truth[name])
            manifest["files"][legacy] = _sha256(entry / legacy)
            truth_files[legacy] = name
        manifest["truth"] = truth_files
        manifest["cache_schema"] = 1
        manifest["manifest_sha256"] = _manifest_digest(manifest)
        (entry / "manifest.json").write_text(json.dumps(manifest))
        registry = MetricsRegistry()
        with use_registry(registry):
            assert cache.load(TINY) is None
            assert not cache.probe(TINY)
        assert registry.snapshot()["counters"]["scenario.cache.invalid"] == 1


class TestCorruptionRecovery:
    def test_corrupt_file_is_a_miss(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        payload = bytearray((entry / "nta.npz").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (entry / "nta.npz").write_bytes(bytes(payload))
        registry = MetricsRegistry()
        with use_registry(registry):
            assert cache.load(TINY) is None
        counters = registry.snapshot()["counters"]
        assert counters["scenario.cache.invalid"] == 1
        assert counters["scenario.cache.misses"] == 1

    def test_missing_file_is_a_miss(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        (entry / "meta.pkl").unlink()
        assert cache.load(TINY) is None

    def test_rerun_overwrites_corrupt_entry(self, tmp_path, tiny_result):
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        (entry / "manifest.json").write_text("{not json")
        assert cache.load(TINY) is None
        # A cached run repairs the entry: simulate once, store, then hit.
        rerun = run_scenario(TINY, cache_dir=tmp_path)
        assert np.array_equal(rerun.nta.ts, tiny_result.nta.ts)
        assert cache.load(TINY) is not None


class TestRunScenarioIntegration:
    def test_warm_run_skips_simulation(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            cold = run_scenario(TINY, cache_dir=tmp_path)
        cold_counters = registry.snapshot()["counters"]
        assert cold_counters["scenario.cache.misses"] == 1
        assert cold_counters["scenario.cache.stores"] == 1

        registry = MetricsRegistry()
        with use_registry(registry):
            warm = run_scenario(TINY, cache_dir=tmp_path)
        snap = registry.snapshot()
        assert snap["counters"]["scenario.cache.hits"] == 1
        # The simulation stages never ran on the warm path.
        assert "scenario.build" not in snap["timings"]
        assert "scenario.run" not in snap["timings"]
        assert np.array_equal(cold.nta.ts, warm.nta.ts)

    def test_freeze_is_idempotent(self, tiny_result):
        frozen = freeze_result(tiny_result)
        refrozen = freeze_result(frozen)
        assert refrozen.scenario.frozen
        assert refrozen.config == tiny_result.config
