"""Tests for sharded population storage: equality, mmap identity, cache.

The scale-out contract: a population cut into fixed-size host-range shards
(``.rpopd`` directory, one mmap-backed ``.rpsh`` file per shard) must be
indistinguishable — bit for bit — from the same configuration generated
monolithically, and a format-version bump must invalidate every cached
layout rather than silently reading stale bytes.
"""

from __future__ import annotations

import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.evaluation import DetectionProtocol, evaluate_policy
from repro.core.policies import PartialDiversityPolicy
from repro.engine import PopulationEngine, population_cache_key
from repro.engine.cache import PopulationCache
from repro.engine.serialization import (
    _read_shard,
    _write_shard,
    read_manifest,
    write_population_sharded,
)
from repro.engine.sharded import DEFAULT_HOSTS_PER_SHARD, ShardedPopulation
from repro.features.definitions import Feature
from repro.utils.validation import ValidationError
from repro.workload import enterprise as enterprise_module
from repro.workload import profiles as profiles_module
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation, generate_enterprise
from repro.workload.profiles import HOST_RECORD, INTENSITY_RECORD, HostProfileTable

CONFIG = EnterpriseConfig(num_hosts=30, num_weeks=2, seed=511)

PROTOCOL = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))


def assert_matches_monolithic(sharded, population):
    """Bit-exact equality of a sharded population against the monolith."""
    assert tuple(sharded.host_ids) == population.host_ids
    for host_id in population.host_ids:
        assert sharded.profile(host_id) == population.profile(host_id)
        left, right = sharded.matrix(host_id), population.matrix(host_id)
        assert left.features == right.features
        for feature in left.features:
            np.testing.assert_array_equal(
                left.series(feature).values, right.series(feature).values
            )


def _evaluation_payload(evaluation):
    """Repr-precision per-host operating points (bitwise comparable)."""
    return {
        host_id: (
            repr(float(perf.operating_point.false_positive_rate)),
            repr(float(perf.operating_point.false_negative_rate)),
            int(perf.false_alarm_count),
        )
        for host_id, perf in sorted(evaluation.performances.items())
    }


@pytest.fixture(scope="module")
def monolithic():
    return generate_enterprise(CONFIG)


# Byte offsets into a shard file: a 10-byte header, then host 0's record
# (``HOST_RECORD``: id, role, laptop flag, master intensity, intensity
# count) and its first intensity record (``INTENSITY_RECORD``: feature
# index, scale, body_sigma, burst_probability, burst_alpha).
_HOST0 = 10
_ROLE = _HOST0 + 4
_COUNT = _HOST0 + HOST_RECORD.fields["num_intensities"][1]
_INTENSITY0 = _HOST0 + HOST_RECORD.itemsize
_SCALE = _INTENSITY0 + 1
_BURST_PROBABILITY = _SCALE + 16
assert _INTENSITY0 + INTENSITY_RECORD.itemsize == _BURST_PROBABILITY + 16


def _patch(offset, replacement):
    return lambda blob: blob[:offset] + replacement + blob[offset + len(replacement) :]


#: Ways to corrupt a shard file, each of which the loader must reject.
CORRUPTIONS = {
    "bad-magic": _patch(0, b"garbage"),
    "unknown-role": _patch(_ROLE, b"\xff"),
    "unknown-feature": _patch(_INTENSITY0, b"\xff"),
    "zero-scale": _patch(_SCALE, struct.pack("<d", 0.0)),
    "negative-scale": _patch(_SCALE, struct.pack("<d", -1.5)),
    "nan-scale": _patch(_SCALE, struct.pack("<d", math.nan)),
    "burst-probability-0.3": _patch(_BURST_PROBABILITY, struct.pack("<d", 0.3)),
    "zero-intensities": _patch(_COUNT, b"\x00"),
    "empty": lambda blob: b"",
    "truncated-in-header": lambda blob: blob[:6],
    "truncated-in-profiles": lambda blob: blob[: _INTENSITY0 + 200],
    "truncated-in-values": lambda blob: blob[:-8],
}


class TestShardedEqualsMonolithic:
    def test_lazy_generation_matches_monolithic(self, monolithic, tmp_path):
        sharded = ShardedPopulation.generate(
            CONFIG, directory=tmp_path / "pop.rpopd", hosts_per_shard=8
        )
        assert sharded.num_shards == 4
        assert_matches_monolithic(sharded, monolithic)

    def test_in_memory_laziness_matches_monolithic(self, monolithic):
        sharded = ShardedPopulation.generate(CONFIG, hosts_per_shard=7)
        assert_matches_monolithic(sharded, monolithic)

    def test_write_then_open_round_trips(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        reopened = ShardedPopulation.open(directory)
        assert_matches_monolithic(reopened, monolithic)

    def test_reopen_resumes_partially_written_population(self, monolithic, tmp_path):
        directory = tmp_path / "pop.rpopd"
        first = ShardedPopulation.generate(CONFIG, directory=directory, hosts_per_shard=8)
        first.matrix(0)  # realises (and persists) only shard 0
        manifest = read_manifest(directory)
        written = [record for record in manifest["shards"] if record is not None]
        assert len(written) == 1
        assert_matches_monolithic(ShardedPopulation.open(directory), monolithic)

    def test_matrices_for_returns_exactly_the_requested_subset(self, monolithic, tmp_path):
        sharded = ShardedPopulation.generate(
            CONFIG, directory=tmp_path / "pop.rpopd", hosts_per_shard=8
        )
        chosen = [1, 9, 10, 29]
        subset = sharded.matrices_for(chosen)
        assert sorted(subset) == chosen
        full = monolithic.matrices()
        for host_id in chosen:
            np.testing.assert_array_equal(
                subset[host_id].series(Feature.TCP_CONNECTIONS).values,
                full[host_id].series(Feature.TCP_CONNECTIONS).values,
            )

    def test_residency_stays_bounded(self, tmp_path):
        sharded = ShardedPopulation.generate(
            CONFIG,
            directory=tmp_path / "pop.rpopd",
            hosts_per_shard=8,
            max_resident_shards=2,
        )
        for host_id in sharded.host_ids:
            sharded.matrix(host_id)
            assert len(sharded.resident_shards) <= 2
        # LRU order: the two most recently touched shards remain.
        assert sharded.resident_shards == (2, 3)

    def test_shard_hashes_verify(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        sharded = ShardedPopulation.open(directory)
        assert all(sharded.verify_shard(index) for index in range(sharded.num_shards))

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
    def test_corrupt_shard_is_regenerated_identically(self, monolithic, tmp_path, corrupt):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        shard_file = directory / "shard-00000.rpsh"
        original = shard_file.read_bytes()
        shard_file.write_bytes(corrupt(original))
        with pytest.raises(ValidationError):
            _read_shard(shard_file, range(16), CONFIG)
        sharded = ShardedPopulation.open(directory)
        assert not sharded.verify_shard(0)
        assert_matches_monolithic(sharded, monolithic)
        # Regeneration rewrote the shard byte for byte, so its manifest hash
        # verifies again.
        assert shard_file.read_bytes() == original
        assert sharded.verify_shard(0)


    def test_well_formed_shard_with_an_empty_profile_is_rejected(self, monolithic, tmp_path):
        # Byte-consistent layout (written by the writer), but host 2 has no
        # feature intensities, which no HostProfile may have.
        profiles = [monolithic.profile(host_id) for host_id in range(8)]
        emptied = profiles[2]
        profiles[2] = SimpleNamespace(
            host_id=emptied.host_id,
            role=emptied.role,
            is_laptop=emptied.is_laptop,
            master_intensity=emptied.master_intensity,
            intensities={},
        )
        shard = EnterprisePopulation(
            CONFIG,
            range(8),
            monolithic.block[:8],
            monolithic.features,
            monolithic.bin_spec,
            HostProfileTable.of(profiles),
        )
        path = tmp_path / "shard-00000.rpsh"
        _write_shard(path, shard)
        with pytest.raises(ValidationError, match="host 2: no feature intensities"):
            _read_shard(path, range(8), CONFIG)


class TestResidentShard:
    def test_matrices_for_builds_views_for_requested_hosts_only(
        self, monolithic, tmp_path, monkeypatch
    ):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        sharded = ShardedPopulation.open(directory)
        built_matrices, built_profiles = [], []

        class CountingMatrix(enterprise_module.FeatureMatrix):
            def __init__(self, host_id, series):
                built_matrices.append(host_id)
                super().__init__(host_id, series)

        class CountingProfile(profiles_module.HostProfile):
            def __post_init__(self):
                built_profiles.append(self.host_id)
                super().__post_init__()

        monkeypatch.setattr(enterprise_module, "FeatureMatrix", CountingMatrix)
        monkeypatch.setattr(profiles_module, "HostProfile", CountingProfile)
        chosen = [3, 1, 20, 29]
        subset = sharded.matrices_for(chosen)
        assert sorted(subset) == sorted(chosen)
        assert sorted(built_matrices) == sorted(chosen)
        assert built_profiles == []
        # A second request for the same hosts reuses the cached views.
        assert sharded.matrices_for(chosen) == subset
        assert sorted(built_matrices) == sorted(chosen)
        sharded.profile(20)
        assert built_profiles == [20]

    def test_reopened_profiles_equal_generated_field_by_field(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        reopened = ShardedPopulation.open(directory)
        for host_id in monolithic.host_ids:
            loaded, generated = reopened.profile(host_id), monolithic.profile(host_id)
            assert loaded.host_id == generated.host_id == host_id
            assert loaded.role is generated.role
            assert loaded.is_laptop is generated.is_laptop
            assert type(loaded.master_intensity) is float
            assert loaded.master_intensity.hex() == generated.master_intensity.hex()
            assert list(loaded.intensities) == list(generated.intensities)
            for feature, intensity in generated.intensities.items():
                decoded = loaded.intensities[feature]
                for field in ("scale", "body_sigma", "burst_probability", "burst_alpha"):
                    value = getattr(decoded, field)
                    assert type(value) is float
                    assert value.hex() == getattr(intensity, field).hex(), (host_id, field)

    def test_mapped_values_are_plain_read_only_arrays(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        values = ShardedPopulation.open(directory).matrix(9).series(Feature.TCP_CONNECTIONS).values
        assert type(values) is np.ndarray
        assert not values.flags.writeable

    @pytest.mark.parametrize("backed", [True, False], ids=["directory", "in-memory"])
    def test_aggregates_match_monolithic(self, monolithic, tmp_path, backed):
        sharded = ShardedPopulation.generate(
            CONFIG, directory=tmp_path / "pop.rpopd" if backed else None, hosts_per_shard=8
        )
        feature = Feature.UDP_CONNECTIONS
        assert sharded.per_host_percentiles(feature, 99) == monolithic.per_host_percentiles(
            feature, 99
        )
        assert sharded.max_observed(feature) == monolithic.max_observed(feature)
        left, right = sharded.distributions(feature), monolithic.distributions(feature)
        assert sorted(left) == sorted(right)
        for host_id in right:
            np.testing.assert_array_equal(left[host_id].samples, right[host_id].samples)
        pooled = sharded.pooled_distribution(feature)
        np.testing.assert_array_equal(
            pooled.samples, monolithic.pooled_distribution(feature).samples
        )
        materialized = sharded.materialize()
        assert_matches_monolithic(sharded, materialized)
        np.testing.assert_array_equal(materialized.block, monolithic.block)
        np.testing.assert_array_equal(materialized.column(feature), monolithic.column(feature))

    def test_one_shard_materializes_as_its_shard(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=len(monolithic)
        )
        sharded = ShardedPopulation.open(directory)
        materialized = sharded.materialize()
        assert materialized is sharded._shard(0)
        np.testing.assert_array_equal(materialized.block, monolithic.block)


class TestMmapBitIdentity:
    def test_mapped_values_equal_generated_population(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        mapped = ShardedPopulation.open(directory)
        for host_id in monolithic.host_ids:
            for feature in monolithic.matrix(host_id).features:
                np.testing.assert_array_equal(
                    mapped.matrix(host_id).series(feature).values,
                    monolithic.matrix(host_id).series(feature).values,
                )

    def test_evaluation_on_mmap_matches_monolithic(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        mapped = ShardedPopulation.open(directory)
        policy = PartialDiversityPolicy()
        baseline = evaluate_policy(monolithic.matrices(), policy, PROTOCOL)
        via_mmap = evaluate_policy(mapped.matrices(), policy, PROTOCOL)
        assert _evaluation_payload(via_mmap) == _evaluation_payload(baseline)


class TestCacheInvalidation:
    def test_cache_key_depends_on_format_version(self, monkeypatch):
        before = population_cache_key(CONFIG)
        monkeypatch.setattr(
            "repro.engine.cache.POPULATION_FORMAT_VERSION", 99_999_999
        )
        assert population_cache_key(CONFIG) != before

    def test_sharded_path_moves_on_version_bump(self, tmp_path, monkeypatch):
        cache = PopulationCache(tmp_path)
        before = cache.sharded_path_for(CONFIG)
        monkeypatch.setattr(
            "repro.engine.cache.POPULATION_FORMAT_VERSION", 99_999_999
        )
        after = cache.sharded_path_for(CONFIG)
        assert before != after  # a bump never reuses the old layout's path

    def test_stale_manifest_format_is_rejected(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = manifest["format"] - 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="unsupported sharded population format"):
            ShardedPopulation.open(directory)

    def test_generate_over_stale_layout_rebuilds_it(self, monolithic, tmp_path):
        directory = tmp_path / "pop.rpopd"
        write_population_sharded(directory, monolithic, hosts_per_shard=16)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = manifest["format"] - 1
        manifest_path.write_text(json.dumps(manifest))
        # generate() treats the unreadable manifest as "no population here"
        # and starts a fresh layout at the current version.
        sharded = ShardedPopulation.generate(CONFIG, directory=directory, hosts_per_shard=16)
        assert json.loads(manifest_path.read_text())["format"] != manifest["format"]
        assert_matches_monolithic(sharded, monolithic)

    def test_engine_generate_sharded_uses_cache_directory(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        sharded = engine.generate_sharded(CONFIG, hosts_per_shard=8)
        sharded.matrix(0)
        layout = PopulationCache(tmp_path).sharded_path_for(CONFIG)
        assert layout.is_dir()
        assert (layout / "shard-00000.rpsh").is_file()

    def test_config_mismatch_on_existing_layout_is_rejected(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        other = EnterpriseConfig(num_hosts=30, num_weeks=2, seed=512)
        with pytest.raises(ValidationError, match="does not match"):
            ShardedPopulation.generate(other, directory=directory, hosts_per_shard=16)


def test_default_shard_size_is_power_of_two():
    assert DEFAULT_HOSTS_PER_SHARD & (DEFAULT_HOSTS_PER_SHARD - 1) == 0
