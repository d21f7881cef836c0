"""Tests for the population engine: determinism, caching, the stored format."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.engine import (
    PopulationCache,
    PopulationEngine,
    ShardedPopulation,
    population_cache_key,
)
from repro.engine.engine import _chunk_host_ids
from repro.engine.serialization import _read_shard
from repro.features.definitions import PAPER_FEATURES
from repro.utils.validation import ValidationError
from repro.workload.drift import DriftModel
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise, generate_host
from repro.workload.profiles import UserRole

CONFIG = EnterpriseConfig(num_hosts=70, num_weeks=2, seed=424)


def _overwrite_last_bin(value):
    """Corrupt a cache entry by replacing its value block's last bin."""

    def corrupt(entry):
        shard = entry / "shard-00000.rpsh"
        blob = shard.read_bytes()
        shard.write_bytes(blob[:-8] + struct.pack("<d", value))

    return corrupt


def _truncate_mid_block(entry):
    shard = entry / "shard-00000.rpsh"
    shard.write_bytes(shard.read_bytes()[:-4000])


#: Ways to corrupt a cached population, each of which must read as a miss.
CORRUPTIONS = {
    "garbage-manifest": lambda entry: (entry / "manifest.json").write_bytes(b"garbage"),
    "truncated-mid-block": _truncate_mid_block,
    "negative-bin": _overwrite_last_bin(-1.0),
    "nan-bin": _overwrite_last_bin(float("nan")),
}


def assert_populations_identical(left, right):
    """Bit-exact equality of two populations (profiles and matrices)."""
    assert left.host_ids == right.host_ids
    assert left.config == right.config
    for host_id in left.host_ids:
        assert left.profile(host_id) == right.profile(host_id)
        left_matrix, right_matrix = left.matrix(host_id), right.matrix(host_id)
        assert left_matrix.features == right_matrix.features
        for feature in left_matrix.features:
            np.testing.assert_array_equal(
                left_matrix.series(feature).values, right_matrix.series(feature).values
            )


class TestParallelDeterminism:
    def test_parallel_output_bit_identical_to_serial(self):
        serial = PopulationEngine(workers=1).generate(CONFIG)
        parallel = PopulationEngine(workers=3, min_parallel_hosts=1).generate(CONFIG)
        assert_populations_identical(serial, parallel)

    def test_worker_count_does_not_change_output(self):
        two = PopulationEngine(workers=2, min_parallel_hosts=1).generate(CONFIG)
        five = PopulationEngine(workers=5, min_parallel_hosts=1).generate(CONFIG)
        assert_populations_identical(two, five)

    def test_engine_matches_generate_enterprise(self):
        via_engine = PopulationEngine(workers=1).generate(CONFIG)
        via_function = generate_enterprise(CONFIG)
        assert_populations_identical(via_engine, via_function)

    def test_small_population_stays_serial(self):
        engine = PopulationEngine(workers=4)
        engine.generate(EnterpriseConfig(num_hosts=8, num_weeks=2, seed=1))
        assert engine.last_report.workers == 1

    def test_role_overrides_apply_in_parallel(self):
        roles = {0: UserRole.SYSTEM_ADMINISTRATOR, 5: UserRole.SALES_MOBILE}
        population = PopulationEngine(workers=2, min_parallel_hosts=1).generate(
            CONFIG, roles=roles
        )
        assert population.profile(0).role == UserRole.SYSTEM_ADMINISTRATOR
        assert population.profile(5).role == UserRole.SALES_MOBILE

    def test_chunking_covers_every_host_once(self):
        for num_hosts, workers in [(1, 4), (7, 2), (350, 8), (64, 64)]:
            chunks = _chunk_host_ids(num_hosts, workers)
            flattened = [host for chunk in chunks for host in chunk]
            assert sorted(flattened) == list(range(num_hosts))


class TestCache:
    def test_cache_round_trip_is_exact(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        cold = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is False
        warm = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is True
        assert_populations_identical(cold, warm)

    def test_warm_cache_skips_generation(self, tmp_path, monkeypatch):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate(CONFIG)

        def fail(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("generation ran despite a warm cache")

        import repro.engine.engine as engine_module

        monkeypatch.setattr(engine_module, "_generate_host_chunk", fail)
        warm = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is True
        assert len(warm) == CONFIG.num_hosts

    def test_cache_key_distinguishes_configs(self):
        base = population_cache_key(CONFIG)
        assert population_cache_key(EnterpriseConfig(num_hosts=70, num_weeks=2, seed=425)) != base
        assert population_cache_key(EnterpriseConfig(num_hosts=71, num_weeks=2, seed=424)) != base
        assert population_cache_key(CONFIG, roles={0: UserRole.RESEARCHER}) != base
        assert population_cache_key(EnterpriseConfig(num_hosts=70, num_weeks=2, seed=424)) == base

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
    def test_corrupt_cache_file_is_a_miss(self, tmp_path, corrupt):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        population = engine.generate(CONFIG)
        corrupt(engine.cache.path_for(CONFIG))
        assert engine.cache.load(CONFIG) is None
        regenerated = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is False
        assert_populations_identical(population, regenerated)
        # Regeneration rewrote the entry, which now loads bit-identically.
        reloaded = engine.cache.load(CONFIG)
        assert reloaded is not None
        assert_populations_identical(population, reloaded)
        np.testing.assert_array_equal(reloaded.block, population.block)

    @pytest.mark.parametrize(
        "sharded_first", [False, True], ids=["monolithic-first", "sharded-first"]
    )
    def test_monolithic_and_sharded_entries_share_a_directory(self, tmp_path, sharded_first):
        config = EnterpriseConfig(num_hosts=40, num_weeks=2, seed=424)
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        if sharded_first:
            sharded = engine.generate_sharded(config, hosts_per_shard=16).materialize()
            monolithic = engine.generate(config)
        else:
            monolithic = engine.generate(config)
            sharded = engine.generate_sharded(config, hosts_per_shard=16).materialize()
        assert_populations_identical(monolithic, sharded)
        assert engine.cache.entry_count() == 2
        assert engine.cache.load(config) is not None
        reopened = ShardedPopulation.open(engine.cache.sharded_path_for(config))
        assert reopened.hosts_per_shard == 16

    def test_clear_removes_cached_populations(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate(CONFIG)
        assert engine.cache.clear() == 1
        assert engine.cache.load(CONFIG) is None

    def test_uncached_engine_has_no_cache(self):
        assert PopulationEngine(workers=1).cache is None

    def test_cache_dir_tilde_is_expanded(self, tmp_path, monkeypatch):
        # The README's cache_dir="~/.cache/repro/populations" example must
        # land in the home directory, not create a literal "~" directory.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        engine = PopulationEngine(workers=1, cache_dir="~/population-cache")
        engine.generate(EnterpriseConfig(num_hosts=3, num_weeks=2, seed=5))
        assert (tmp_path / "population-cache").is_dir()
        assert not (tmp_path / "~").exists()
        assert engine.cache.directory == tmp_path / "population-cache"

    def test_cache_dir_env_tilde_is_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", "~/env-cache")
        from repro.engine import resolve_cache_dir

        assert resolve_cache_dir() == tmp_path / "env-cache"
        assert resolve_cache_dir("~/arg-cache") == tmp_path / "arg-cache"

    def test_from_flags_matches_cli_semantics(self, tmp_path):
        # The shared --workers/--cache-dir/--no-cache construction rule.
        explicit = PopulationEngine.from_flags(workers=3, cache_dir=tmp_path)
        assert explicit.workers == 3
        assert explicit.cache is not None
        # --workers overrides the small-population serial heuristic.
        assert explicit._effective_workers(2) == 2
        no_cache = PopulationEngine.from_flags(cache_dir=tmp_path, no_cache=True)
        assert no_cache.cache is None
        # Without --workers the serial heuristic stays in force.
        assert PopulationEngine.from_flags()._effective_workers(2) == 1

    def test_engine_stats_accounting(self, tmp_path):
        from repro.engine import EngineStats

        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        assert engine.stats == EngineStats()
        config = EnterpriseConfig(num_hosts=4, num_weeks=2, seed=6)
        engine.generate(config)
        engine.generate(config)
        engine.generate(EnterpriseConfig(num_hosts=5, num_weeks=2, seed=6))
        assert engine.stats.generations == 2
        assert engine.stats.cache_hits == 1
        assert engine.stats.requests == 3
        engine.reset_stats()
        assert engine.stats == EngineStats()


class TestSerialization:
    def test_write_read_round_trip(self, tmp_path):
        config = EnterpriseConfig(
            num_hosts=12,
            num_weeks=2,
            seed=77,
            drift=DriftModel.from_kinds("role-churn", probability=0.5),
        )
        population = PopulationEngine(workers=1).generate(config)
        cache = PopulationCache(tmp_path)
        path = cache.store(population)
        assert path == cache.path_for(config) != cache.sharded_path_for(config)
        loaded = cache.load(config)
        assert loaded.config == config
        assert_populations_identical(population, loaded)
        assert loaded.block.dtype == population.block.dtype == np.float64
        for host_id in population.host_ids:
            for feature in PAPER_FEATURES:
                original = population.matrix(host_id).series(feature).values
                restored = loaded.matrix(host_id).series(feature).values
                assert original.dtype == restored.dtype

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "shard-00000.rpsh"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValidationError):
            _read_shard(path, range(1), CONFIG)


class TestGenerationPaths:
    def test_serial_parallel_and_sharded_blocks_are_equal(self):
        serial = PopulationEngine(workers=1).generate(CONFIG)
        parallel = PopulationEngine(workers=2, min_parallel_hosts=1).generate(CONFIG)
        sharded = ShardedPopulation.generate(CONFIG, hosts_per_shard=16).materialize()
        for other in (parallel, sharded):
            np.testing.assert_array_equal(other.block, serial.block)
            assert other.features == serial.features
            assert other.bin_spec == serial.bin_spec

    def test_profiles_equal_the_generated_ones(self):
        population = PopulationEngine(workers=1).generate(CONFIG)
        for host_id in (0, 17, 69):
            expected, matrix = generate_host(CONFIG, host_id)
            assert population.profile(host_id) == expected
            for feature in matrix.features:
                np.testing.assert_array_equal(
                    population.matrix(host_id).series(feature).values,
                    matrix.series(feature).values,
                )

    def test_week_is_a_view_of_the_block(self):
        population = PopulationEngine(workers=1).generate(CONFIG)
        week = population.week(1)
        assert np.shares_memory(week.block, population.block)
        assert not week.block.flags.writeable
        for host_id in (0, 33, 69):
            for feature in population.features:
                np.testing.assert_array_equal(
                    week.matrix(host_id).series(feature).values,
                    population.matrix(host_id).week(1).series(feature).values,
                )
        with pytest.raises(ValueError, match="out of range"):
            population.week(2)

    def test_column_is_every_hosts_bins(self):
        population = PopulationEngine(workers=1).generate(CONFIG)
        for feature in population.features:
            column = population.column(feature)
            assert column.shape == (len(population), population.block.shape[2])
            for host_id in (0, 69):
                np.testing.assert_array_equal(
                    column[host_id], population.matrix(host_id).series(feature).values
                )
