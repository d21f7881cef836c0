"""On-disk population cache keyed by a content hash of the configuration.

Generating the paper-scale population is pure function of
(:class:`~repro.workload.enterprise.EnterpriseConfig`, explicit role
overrides), so a content hash of those inputs fully identifies the output.
A cached population is a one-shard ``.rpopd`` directory (see
:mod:`repro.engine.serialization`) whose manifest holds the config and the
shard's SHA-256.  The shard is written before the manifest, each atomically
via a temporary file + rename, and any unreadable, stale-format or
out-of-range entry is a miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import warnings
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from repro.engine.serialization import (
    POPULATION_FORMAT_VERSION,
    _read_shard,
    config_from_payload,
    config_payload,
    read_manifest,
    write_population_sharded,
)
from repro.telemetry import set_gauge, trace_span
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation
from repro.workload.profiles import UserRole

logger = logging.getLogger(__name__)

#: Environment variable naming the cache directory (enables caching when set).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory used when caching is requested without a location.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro" / "populations"

PathLike = Union[str, Path]


def population_cache_key(
    config: EnterpriseConfig, roles: Optional[Mapping[int, UserRole]] = None
) -> str:
    """Content hash identifying the population generated from these inputs."""
    payload = {
        "format": POPULATION_FORMAT_VERSION,
        "config": config_payload(config),
        "roles": (
            {str(host_id): role.value for host_id, role in sorted(roles.items())}
            if roles
            else None
        ),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def resolve_cache_dir(cache_dir: Optional[PathLike] = None) -> Optional[Path]:
    """The cache directory to use: explicit argument, else ``REPRO_CACHE_DIR``.

    ``~`` is expanded in both, so ``cache_dir="~/.cache/repro/populations"``
    (the README example) and a tilde in the environment variable land in the
    home directory instead of creating a literal ``~`` directory.
    """
    if cache_dir is not None:
        return Path(cache_dir).expanduser()
    from_env = os.environ.get(CACHE_DIR_ENV)
    return Path(from_env).expanduser() if from_env else None


class PopulationCache:
    """A directory of stored populations addressed by content hash."""

    def __init__(self, directory: PathLike) -> None:
        self._directory = Path(directory).expanduser()

    @property
    def directory(self) -> Path:
        """Root directory of the cache."""
        return self._directory

    def path_for(
        self, config: EnterpriseConfig, roles: Optional[Mapping[int, UserRole]] = None
    ) -> Path:
        """The one-shard ``.rpopd`` directory a monolithic population is stored under.

        It differs from :meth:`sharded_path_for`, so a monolithic entry and
        a sharded layout of the same config (with any shard size) coexist.
        """
        key = population_cache_key(config, roles)
        return self._directory / f"population-{key[:32]}-whole.rpopd"

    def sharded_path_for(
        self, config: EnterpriseConfig, roles: Optional[Mapping[int, UserRole]] = None
    ) -> Path:
        """The ``.rpopd`` directory a sharded population is stored under."""
        key = population_cache_key(config, roles)
        return self._directory / f"population-{key[:32]}.rpopd"

    def load(
        self, config: EnterpriseConfig, roles: Optional[Mapping[int, UserRole]] = None
    ) -> Optional[EnterprisePopulation]:
        """Return the cached population, or None on a miss or unreadable entry.

        The shard is mapped, not copied.  Its bins are checked in one
        vectorised pass (non-negative, which also rejects NaN): a monolithic
        population is evaluated whole, so the pass touches no page that
        evaluation would not.
        """
        path = self.path_for(config, roles)
        with trace_span("engine.cache.read") as span:
            if not path.is_dir():
                span.set(hit=False)
                logger.debug("population cache miss: %s", path)
                return None
            try:
                manifest = read_manifest(path)
                (record,) = manifest["shards"]
                require(
                    config_from_payload(manifest["config"]) == config and record is not None,
                    "cache entry does not hold this population",
                )
                population = _read_shard(path / record["file"], range(config.num_hosts), config)
                require(bool(np.all(population.block >= 0)), "negative or NaN bins")
            except (ValidationError, OSError, ValueError, KeyError, TypeError):
                # A corrupt or stale-format entry is a miss; regeneration overwrites it.
                span.set(hit=False)
                logger.debug("population cache entry unreadable, treating as miss: %s", path)
                return None
            span.set(hit=True)
            logger.debug("population cache hit: %s (%d hosts)", path, len(population))
            return population

    def entry_count(self) -> int:
        """Number of cached populations (each ``.rpopd`` directory counts as one)."""
        if not self._directory.is_dir():
            return 0
        return sum(1 for path in self._directory.glob("population-*.rpopd") if path.is_dir())

    def store(
        self,
        population: EnterprisePopulation,
        roles: Optional[Mapping[int, UserRole]] = None,
    ) -> Optional[Path]:
        """Write ``population`` as a one-shard ``.rpopd``; returns its directory.

        An unwritable or full cache location must never discard a generated
        population, so write failures emit a warning and return None (the
        next run simply misses the cache), mirroring how :meth:`load` treats
        unreadable entries as misses.
        """
        path = self.path_for(population.config, roles)
        with trace_span("engine.cache.write"):
            try:
                write_population_sharded(path, population, hosts_per_shard=len(population))
            except OSError as error:
                warnings.warn(f"population cache write to {path} failed: {error}", stacklevel=2)
                return None
        set_gauge("engine.cache_entries", float(self.entry_count()))
        logger.debug("population cached: %s (%d hosts)", path, len(population))
        return path

    def clear(self) -> int:
        """Delete every cached population; returns the number removed.

        Counts one per population: an ``.rpopd`` directory removes as a
        single entry however many shard files it holds.
        """
        if not self._directory.is_dir():
            return 0
        removed = 0
        for directory in self._directory.glob("population-*.rpopd"):
            if directory.is_dir():
                shutil.rmtree(directory)
                removed += 1
        set_gauge("engine.cache_entries", float(self.entry_count()))
        return removed
