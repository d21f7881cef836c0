"""Sharded populations: million-host populations without the memory.

A sharded population is a ``population-<key>.rpopd/`` directory of
fixed-size host-range shards (the layout is described in
:mod:`repro.engine.serialization`).  :class:`ShardedPopulation` mirrors the
:class:`~repro.workload.enterprise.EnterprisePopulation` accessors but keeps
only a bounded LRU set of shards resident.  A resident shard *is* an
:class:`EnterprisePopulation` over its host range: one block plus its
profile table, with per-host objects built only for the hosts a caller asks
for.  Shards are produced on demand: from their ``.rpsh`` file when it
exists (zero-copy mmap), otherwise by regenerating exactly that host range —
per-host streams derive from ``(config.seed, host_id)`` alone, so a shard
generated in isolation is bit-identical to the same hosts cut out of a
monolithic generation.  When the population is backed by a directory,
freshly generated shards are persisted and the manifest updated, so a later
open resumes where this one stopped.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.engine import _generate_host_chunk
from repro.engine.serialization import (
    _new_manifest,
    _read_shard,
    _shard_file_name,
    _shard_record,
    _write_manifest,
    _write_shard,
    config_from_payload,
    config_payload,
    read_manifest,
)
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix
from repro.stats.empirical import EmpiricalDistribution
from repro.telemetry import add_count, set_gauge, trace_span
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation
from repro.workload.profiles import HostProfile, UserRole

#: Default host-range size per shard.  4096 hosts x 6 features x one week of
#: 15-minute bins is ~132 MiB of float64 per five-week shard — big enough to
#: amortise per-shard overhead, small enough that a handful stay resident.
DEFAULT_HOSTS_PER_SHARD = 4096

#: Default number of shards kept resident by :class:`ShardedPopulation`.
DEFAULT_MAX_RESIDENT_SHARDS = 4

PathLike = Union[str, Path]


class ShardedPopulation:
    """A population resolved shard by shard, with bounded residency.

    Mirrors the :class:`~repro.workload.enterprise.EnterprisePopulation`
    accessors.  At most ``max_resident_shards`` shards are held at a time
    (least recently used evicted first), and mmap-backed shards only page in
    the bins actually touched — so a million-host population can be opened,
    sampled and evaluated without the full host array ever existing in
    memory.
    """

    def __init__(
        self,
        config: EnterpriseConfig,
        directory: Optional[Path],
        manifest: dict,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        roles: Optional[Mapping[int, UserRole]] = None,
    ) -> None:
        require(max_resident_shards >= 1, "max_resident_shards must be >= 1")
        self._config = config
        self._directory = directory
        self._manifest = manifest
        self._hosts_per_shard = int(manifest["hosts_per_shard"])
        self._num_hosts = int(manifest["num_hosts"])
        self._max_resident = max_resident_shards
        self._roles: Mapping[int, UserRole] = dict(roles) if roles else {}
        #: shard index -> resident shard; insertion order is LRU order.
        self._resident: Dict[int, EnterprisePopulation] = {}

    # --------------------------------------------------------------- opening
    @classmethod
    def open(
        cls,
        directory: PathLike,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
    ) -> "ShardedPopulation":
        """Open an existing ``.rpopd`` directory (shards load lazily)."""
        directory = Path(directory)
        manifest = read_manifest(directory)
        config = config_from_payload(manifest["config"])
        return cls(config, directory, manifest, max_resident_shards=max_resident_shards)

    @classmethod
    def generate(
        cls,
        config: EnterpriseConfig,
        directory: Optional[PathLike] = None,
        hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        roles: Optional[Mapping[int, UserRole]] = None,
    ) -> "ShardedPopulation":
        """A lazily generated sharded population for ``config``.

        With a ``directory``, existing shard files are reused (resuming a
        partially written population) and newly generated shards are
        persisted there; without one, shards are generated in memory on
        demand and simply evicted when residency runs out.  Either way only
        the shards an evaluation touches are ever produced.
        """
        require(hosts_per_shard >= 1, "hosts_per_shard must be >= 1")
        if directory is not None:
            directory = Path(directory)
            try:
                manifest = read_manifest(directory)
            except ValidationError:
                directory.mkdir(parents=True, exist_ok=True)
                manifest = _new_manifest(config, hosts_per_shard)
                _write_manifest(directory, manifest)
            else:
                require(
                    manifest["config"] == config_payload(config)
                    and int(manifest["hosts_per_shard"]) == hosts_per_shard,
                    "existing sharded population does not match the requested config",
                )
        else:
            manifest = _new_manifest(config, hosts_per_shard)
        return cls(
            config, directory, manifest, max_resident_shards=max_resident_shards, roles=roles
        )

    # ----------------------------------------------------------------- basic
    @property
    def config(self) -> EnterpriseConfig:
        """The configuration the population was generated with."""
        return self._config

    @property
    def directory(self) -> Optional[Path]:
        """Backing ``.rpopd`` directory (None for purely in-memory laziness)."""
        return self._directory

    @property
    def num_shards(self) -> int:
        """Total number of host-range shards."""
        return len(self._manifest["shards"])

    @property
    def hosts_per_shard(self) -> int:
        """Host-range size per shard (the last shard may be smaller)."""
        return self._hosts_per_shard

    @property
    def resident_shards(self) -> Tuple[int, ...]:
        """Currently resident shard indices, least recently used first."""
        return tuple(self._resident)

    @property
    def host_ids(self) -> range:
        """Host identifiers (always the contiguous range ``0..num_hosts``)."""
        return range(self._num_hosts)

    def __len__(self) -> int:
        return self._num_hosts

    def __iter__(self) -> Iterator[int]:
        return iter(self.host_ids)

    # ------------------------------------------------------------ shard state
    def shard_of(self, host_id: int) -> int:
        """Index of the shard holding ``host_id``."""
        require(0 <= host_id < self._num_hosts, "host_id out of range")
        return host_id // self._hosts_per_shard

    def _shard_host_range(self, index: int) -> range:
        first = index * self._hosts_per_shard
        return range(first, min(first + self._hosts_per_shard, self._num_hosts))

    def _shard(self, index: int) -> EnterprisePopulation:
        if index in self._resident:
            # Refresh LRU position.
            shard = self._resident.pop(index)
            self._resident[index] = shard
            return shard
        shard = self._load_or_generate_shard(index)
        self._resident[index] = shard
        add_count("engine.shards_loaded")
        while len(self._resident) > self._max_resident:
            self._resident.pop(next(iter(self._resident)))
        # Residency only changes on this path (load + possible eviction), so
        # the LRU-refresh fast path above stays gauge-free.
        self._update_residency_gauges()
        return shard

    def _shards(self) -> Iterator[EnterprisePopulation]:
        for index in range(self.num_shards):
            yield self._shard(index)

    def _update_residency_gauges(self) -> None:
        """Publish the LRU's current footprint as resource gauges.

        The byte gauge counts the resident value blocks — what the ``.rpsh``
        files hold and what an eviction releases; profiles are negligible.
        """
        set_gauge("engine.shards_resident", float(len(self._resident)))
        set_gauge(
            "engine.shard_bytes_resident",
            float(sum(shard.block.nbytes for shard in self._resident.values())),
        )

    def _load_or_generate_shard(self, index: int) -> EnterprisePopulation:
        record = self._manifest["shards"][index]
        if self._directory is not None and record is not None:
            path = self._directory / record["file"]
            if path.is_file():
                with trace_span("engine.shard.load", shard=index):
                    try:
                        return _read_shard(path, self._shard_host_range(index), self._config)
                    except (ValidationError, OSError, ValueError):
                        # A corrupt shard is regenerated (and rewritten) below.
                        pass
        return self._generate_shard(index)

    def _generate_shard(self, index: int) -> EnterprisePopulation:
        host_range = self._shard_host_range(index)
        with trace_span("engine.shard.generate", shard=index, num_hosts=len(host_range)):
            shard = _generate_host_chunk(self._config, host_range, self._roles)
        if self._directory is not None and self._persist_shard(index, shard):
            # Re-open through the loader so the resident copy is the mapped
            # block, not the generated array.
            try:
                return _read_shard(
                    self._directory / _shard_file_name(index), host_range, self._config
                )
            except (ValidationError, OSError, ValueError):
                pass
        return shard

    def _persist_shard(self, index: int, shard: EnterprisePopulation) -> bool:
        """Write ``shard`` and record it in the manifest; False if unwritable."""
        name = _shard_file_name(index)
        try:
            digest = _write_shard(self._directory / name, shard)
        except OSError:
            # An unwritable cache never discards generated data; the shard
            # simply stays memory-resident for this process.
            return False
        first = shard.host_ids[0]
        self._manifest["shards"][index] = _shard_record(name, first, len(shard), digest)
        try:
            _write_manifest(self._directory, self._manifest)
        except OSError:
            pass
        return True

    def verify_shard(self, index: int) -> bool:
        """Check the shard file on disk against its manifest content hash."""
        record = self._manifest["shards"][index]
        if record is None or self._directory is None:
            return False
        path = self._directory / record["file"]
        if not path.is_file():
            return False
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest() == record["sha256"]

    # ------------------------------------------------------------- accessors
    def profile(self, host_id: int) -> HostProfile:
        """Profile of ``host_id``."""
        return self._shard(self.shard_of(host_id)).profile(host_id)

    def matrix(self, host_id: int) -> FeatureMatrix:
        """Feature matrix of ``host_id``."""
        return self._shard(self.shard_of(host_id)).matrix(host_id)

    def matrices(self) -> Dict[int, FeatureMatrix]:
        """All feature matrices keyed by host id.

        This builds a matrix for every host at once (the arrays themselves
        stay views of the shard blocks) — fine at experiment scale, but
        million-host callers should iterate :meth:`iter_shards` or sample
        instead.
        """
        combined: Dict[int, FeatureMatrix] = {}
        for _, matrices in self.iter_shards():
            combined.update(matrices)
        return combined

    def matrices_for(self, host_ids: Sequence[int]) -> Dict[int, FeatureMatrix]:
        """Feature matrices for ``host_ids`` only (shards resolved in order).

        The sampled-evaluation entry point: grouping the requested hosts by
        shard keeps residency bounded however large the population is, and
        only the requested hosts get matrix objects.
        """
        by_shard: Dict[int, List[int]] = {}
        for host_id in host_ids:
            by_shard.setdefault(self.shard_of(host_id), []).append(host_id)
        combined: Dict[int, FeatureMatrix] = {}
        for index in sorted(by_shard):
            combined.update(self._shard(index).matrices_for(by_shard[index]))
        return combined

    def iter_shards(self) -> Iterator[Tuple[range, Dict[int, FeatureMatrix]]]:
        """Iterate ``(host_range, matrices)`` shard by shard."""
        for index, shard in enumerate(self._shards()):
            yield self._shard_host_range(index), shard.matrices()

    # ------------------------------------------------------------ aggregates
    def distributions(self, feature: Feature) -> Dict[int, EmpiricalDistribution]:
        """Per-host empirical distribution of ``feature``."""
        combined: Dict[int, EmpiricalDistribution] = {}
        for shard in self._shards():
            combined.update(shard.distributions(feature))
        return combined

    def pooled_distribution(self, feature: Feature) -> EmpiricalDistribution:
        """The global (pooled across hosts) distribution of ``feature``."""
        return EmpiricalDistribution.pooled(
            [shard.pooled_distribution(feature) for shard in self._shards()]
        )

    def per_host_percentiles(self, feature: Feature, q: float) -> Dict[int, float]:
        """Per-host ``q``-th percentile of ``feature``."""
        combined: Dict[int, float] = {}
        for shard in self._shards():
            combined.update(shard.per_host_percentiles(feature, q))
        return combined

    def max_observed(self, feature: Feature) -> float:
        """Maximum per-bin value of ``feature`` across all hosts."""
        return max(shard.max_observed(feature) for shard in self._shards())

    def materialize(self) -> EnterprisePopulation:
        """The equivalent fully in-memory :class:`EnterprisePopulation`.

        A one-shard population is its shard; otherwise the shard blocks are
        copied once into one population block.
        """
        if self.num_shards == 1:
            return self._shard(0)
        return EnterprisePopulation.concatenate(self._config, self._shards())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedPopulation(hosts={self._num_hosts}, shards={self.num_shards}, "
            f"resident={len(self._resident)})"
        )
