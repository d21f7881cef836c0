"""Sharded population storage: million-host populations without the memory.

A sharded population lives in a ``population-<key>.rpopd/`` directory:

* ``manifest.json`` — format version, the full
  :class:`~repro.workload.enterprise.EnterpriseConfig` payload, the shard
  geometry and, per written shard, its file name and SHA-256 content hash.
* ``shard-NNNNN.rpsh`` — one fixed-size host range each.  A shard file holds
  the profiles of its hosts followed by one contiguous
  ``(num_hosts, num_features, num_bins)`` little-endian float64 block, so the
  whole feature payload of a shard is one array view of the mapped file —
  loading a shard never copies bin values.

:class:`ShardedPopulation` mirrors the
:class:`~repro.workload.enterprise.EnterprisePopulation` accessors but keeps
only a bounded LRU set of shards resident.  A resident shard is one block
plus its decoded profile table; the per-host
:class:`~repro.features.timeseries.FeatureMatrix` and
:class:`~repro.workload.profiles.HostProfile` objects are built only for the
hosts a caller asks for.  Shards are produced on demand:
from their ``.rpsh`` file when it exists (zero-copy mmap), otherwise by
regenerating exactly that host range — per-host streams derive from
``(config.seed, host_id)`` alone, so a shard generated in isolation is
bit-identical to the same hosts cut out of a monolithic generation.  When the
population is backed by a directory, freshly generated shards are persisted
and the manifest updated, so a later open resumes where this one stopped.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.serialization import (
    POPULATION_FORMAT_VERSION,
    _FEATURE_ORDER,
    _HOST_STRUCT,
    _INTENSITY_STRUCT,
    _MATRIX_STRUCT,
    _ROLE_ORDER,
    _feature_at,
    config_payload,
)
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.stats.empirical import EmpiricalDistribution
from repro.telemetry import add_count, set_gauge, trace_span
from repro.traces.serialization import read_header, write_header
from repro.utils.timeutils import BinSpec
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import (
    EnterpriseConfig,
    EnterprisePopulation,
    build_population_events,
    generate_host,
)
from repro.workload.profiles import FeatureIntensity, HostProfile, UserRole
from repro.utils.rng import RandomSource

_SHARD_MAGIC = b"RPSH"
_MANIFEST_NAME = "manifest.json"

#: Default host-range size per shard.  4096 hosts x 6 features x one week of
#: 15-minute bins is ~132 MiB of float64 per five-week shard — big enough to
#: amortise per-shard overhead, small enough that a handful stay resident.
DEFAULT_HOSTS_PER_SHARD = 4096

#: Default number of shards kept resident by :class:`ShardedPopulation`.
DEFAULT_MAX_RESIDENT_SHARDS = 4

PathLike = Union[str, Path]


def _write_shard(
    path: Path,
    host_ids: Sequence[int],
    profiles: Mapping[int, HostProfile],
    matrices: Mapping[int, FeatureMatrix],
) -> str:
    """Write one shard file; returns its SHA-256 hex digest.

    The shard requires a uniform bin grid and feature set across its hosts
    (every generated population satisfies both), which is what makes the
    value block a single rectangular array.
    """
    reference = matrices[host_ids[0]]
    features = reference.features
    num_bins = reference.num_bins
    bin_spec = reference.series(features[0]).bin_spec

    temporary = path.with_suffix(f".tmp{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            sink = _DigestSink(handle)
            write_header(sink, _SHARD_MAGIC, len(host_ids), version=POPULATION_FORMAT_VERSION)
            for host_id in host_ids:
                profile = profiles[host_id]
                matrix = matrices[host_id]
                require(
                    matrix.features == features and matrix.num_bins == num_bins,
                    "sharded populations require a uniform feature set and bin grid",
                )
                sink.write(
                    _HOST_STRUCT.pack(
                        host_id,
                        _ROLE_ORDER.index(profile.role),
                        1 if profile.is_laptop else 0,
                        profile.master_intensity,
                    )
                )
                sink.write(struct.pack("<B", len(profile.intensities)))
                for feature, intensity in profile.intensities.items():
                    sink.write(struct.pack("<B", _FEATURE_ORDER.index(feature)))
                    sink.write(
                        _INTENSITY_STRUCT.pack(
                            intensity.scale,
                            intensity.body_sigma,
                            intensity.burst_probability,
                            intensity.burst_alpha,
                        )
                    )
            sink.write(_MATRIX_STRUCT.pack(num_bins, bin_spec.width, bin_spec.origin))
            sink.write(struct.pack("<B", len(features)))
            for feature in features:
                sink.write(struct.pack("<B", _FEATURE_ORDER.index(feature)))
            # Pad the value block to 8-byte alignment so the memmap view is
            # aligned float64.
            padding = (-sink.position) % 8
            if padding:
                sink.write(b"\x00" * padding)
            for host_id in host_ids:
                matrix = matrices[host_id]
                for feature in features:
                    values = np.ascontiguousarray(matrix.series(feature).values, dtype="<f8")
                    sink.write(values.tobytes())
        os.replace(temporary, path)
    finally:
        if temporary.exists():
            temporary.unlink()
    return sink.hexdigest()


class _DigestSink:
    """File-like wrapper feeding everything written through a hash as well."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self._digest = hashlib.sha256()
        self.position = 0

    def write(self, chunk: bytes) -> None:
        self._handle.write(chunk)
        self._digest.update(chunk)
        self.position += len(chunk)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


#: The fixed-size parts of a shard's profile section as numpy records: a host
#: record (``_HOST_STRUCT`` plus its intensity count) and an intensity record
#: (feature index plus ``_INTENSITY_STRUCT``).  Both are packed, like the file.
_HOST_RECORD = np.dtype(
    [
        ("host_id", "<u4"),
        ("role", "u1"),
        ("is_laptop", "u1"),
        ("master_intensity", "<f8"),
        ("num_intensities", "u1"),
    ]
)
_INTENSITY_RECORD = np.dtype(
    [
        ("feature", "u1"),
        ("scale", "<f8"),
        ("body_sigma", "<f8"),
        ("burst_probability", "<f8"),
        ("burst_alpha", "<f8"),
    ]
)
assert _HOST_RECORD.itemsize == _HOST_STRUCT.size + 1
assert _INTENSITY_RECORD.itemsize == 1 + _INTENSITY_STRUCT.size
#: Magic, then the ``<HI`` format version and host count (``write_header``).
_HEADER_SIZE = len(_SHARD_MAGIC) + 6


class _ProfileTable:
    """A shard's decoded profile section; row ``i`` builds host ``i``'s profile."""

    def __init__(self, hosts: np.ndarray, intensities: np.ndarray, bounds: np.ndarray) -> None:
        self._hosts = hosts
        self._intensities = intensities
        #: Host ``i``'s intensities are ``intensities[bounds[i]:bounds[i + 1]]``.
        self._bounds = bounds

    def __getitem__(self, row: int) -> HostProfile:
        host_id, role, is_laptop, master_intensity, _ = self._hosts[row].tolist()
        records = self._intensities[self._bounds[row] : self._bounds[row + 1]].tolist()
        return HostProfile(
            host_id=host_id,
            role=_ROLE_ORDER[role],
            master_intensity=master_intensity,
            intensities={
                _FEATURE_ORDER[feature]: FeatureIntensity(
                    scale=scale,
                    body_sigma=body_sigma,
                    burst_probability=burst_probability,
                    burst_alpha=burst_alpha,
                )
                for feature, scale, body_sigma, burst_probability, burst_alpha in records
            },
            is_laptop=bool(is_laptop),
        )


class _ResidentShard:
    """One resident shard: a ``(hosts, features, bins)`` block plus profiles.

    Per-host :class:`FeatureMatrix` and :class:`HostProfile` views are built
    on first access and cached, so a shard read for a handful of sampled
    hosts never builds objects for the rest.
    """

    def __init__(
        self,
        host_ids: range,
        block: np.ndarray,
        features: Tuple[Feature, ...],
        bin_spec: BinSpec,
        profiles: Sequence[HostProfile],
    ) -> None:
        self.host_ids = host_ids
        self.block = block
        self.bin_spec = bin_spec
        self._columns = {feature: column for column, feature in enumerate(features)}
        self._profile_rows = profiles
        self._profiles: Dict[int, HostProfile] = {}
        self._matrices: Dict[int, FeatureMatrix] = {}

    @classmethod
    def stack(
        cls,
        host_ids: range,
        profiles: Mapping[int, HostProfile],
        matrices: Mapping[int, FeatureMatrix],
    ) -> "_ResidentShard":
        """Stack freshly generated hosts into one block (a copy of the bins)."""
        reference = matrices[host_ids[0]]
        features = reference.features
        block = np.empty((len(host_ids), len(features), reference.num_bins))
        for row, host_id in enumerate(host_ids):
            matrix = matrices[host_id]
            require(
                matrix.features == features and matrix.num_bins == reference.num_bins,
                "sharded populations require a uniform feature set and bin grid",
            )
            for column, feature in enumerate(features):
                block[row, column] = matrix.series(feature).values
        block.flags.writeable = False
        return cls(
            host_ids,
            block,
            features,
            reference.series(features[0]).bin_spec,
            [profiles[host_id] for host_id in host_ids],
        )

    def column(self, feature: Feature) -> np.ndarray:
        """Every host's bins of ``feature`` as a ``(hosts, bins)`` view."""
        return self.block[:, self._columns[feature]]

    def profile(self, host_id: int) -> HostProfile:
        profile = self._profiles.get(host_id)
        if profile is None:
            profile = self._profile_rows[host_id - self.host_ids.start]
            self._profiles[host_id] = profile
        return profile

    def matrix(self, host_id: int) -> FeatureMatrix:
        matrix = self._matrices.get(host_id)
        if matrix is None:
            values = self.block[host_id - self.host_ids.start]
            # The loader checked the block's shape; its bins were validated
            # (non-negative) when the shard was generated, so the rows are
            # wrapped without re-scanning them.
            matrix = FeatureMatrix(
                host_id=host_id,
                series={
                    feature: TimeSeries._wrap(values[column], self.bin_spec)
                    for feature, column in self._columns.items()
                },
            )
            self._matrices[host_id] = matrix
        return matrix

    def matrices(self) -> Dict[int, FeatureMatrix]:
        return {host_id: self.matrix(host_id) for host_id in self.host_ids}

    def profiles(self) -> Dict[int, HostProfile]:
        return {host_id: self.profile(host_id) for host_id in self.host_ids}


def _read_shard(path: Path, host_ids: range, use_mmap: bool = True) -> _ResidentShard:
    """Load a shard written by :func:`_write_shard` holding ``host_ids``.

    With ``use_mmap`` (the default) the file is mapped once and the value
    block is a view of the mapping, so bins are paged in only when an
    evaluation touches them; otherwise the file is read into memory.  The
    whole profile section is decoded and checked here with numpy — known
    role and feature indices, the :class:`HostProfile` and
    :class:`FeatureIntensity` invariants, the expected host ids and a file
    size that matches the layout — so a corrupt shard raises
    :class:`ValidationError` at load.  Loads do not hash the file: the
    manifest's SHA-256 is checked only by
    :meth:`ShardedPopulation.verify_shard`.
    """
    with open(path, "rb") as handle:
        require(os.fstat(handle.fileno()).st_size >= _HEADER_SIZE, f"{path.name}: truncated")
        data = (
            mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) if use_mmap else handle.read()
        )
    size = len(data)
    num_hosts = read_header(
        io.BytesIO(data[:_HEADER_SIZE]), _SHARD_MAGIC, version=POPULATION_FORMAT_VERSION
    )
    require(num_hosts == len(host_ids), f"{path.name}: expected {len(host_ids)} hosts")

    # Walk the variable-length host records (a host record, then that many
    # intensity records) to find where each host starts.
    starts = np.empty(num_hosts, dtype=np.int64)
    position = _HEADER_SIZE
    for row in range(num_hosts):
        require(position + _HOST_RECORD.itemsize <= size, f"{path.name}: truncated profiles")
        starts[row] = position
        count = data[position + _HOST_STRUCT.size]
        position += _HOST_RECORD.itemsize + count * _INTENSITY_RECORD.itemsize
    require(position + _MATRIX_STRUCT.size + 1 <= size, f"{path.name}: truncated profiles")

    raw = np.frombuffer(data, dtype=np.uint8)
    hosts = _gather(raw, starts, _HOST_RECORD)
    counts = hosts["num_intensities"].astype(np.int64)
    bounds = np.zeros(num_hosts + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    within_host = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
    intensities = _gather(
        raw,
        np.repeat(starts + _HOST_RECORD.itemsize, counts)
        + within_host * _INTENSITY_RECORD.itemsize,
        _INTENSITY_RECORD,
    )
    # The HostProfile / FeatureIntensity invariants, checked for every host
    # now so a corrupt shard never loads.  NaN fails every comparison.
    read_ids = hosts["host_id"]
    owners = np.repeat(read_ids, counts)
    burst_probability = intensities["burst_probability"]
    checks = (
        (read_ids, read_ids == np.asarray(host_ids), "unexpected host id"),
        (read_ids, hosts["role"] < len(_ROLE_ORDER), "unknown role index"),
        (read_ids, hosts["master_intensity"] > 0, "master_intensity must be positive"),
        (read_ids, counts > 0, "no feature intensities"),
        (owners, intensities["feature"] < len(_FEATURE_ORDER), "unknown feature index"),
        (owners, intensities["scale"] > 0, "scale must be positive"),
        (owners, intensities["body_sigma"] > 0, "body_sigma must be positive"),
        (owners, intensities["burst_alpha"] > 0, "burst_alpha must be positive"),
        (
            owners,
            (burst_probability >= 0.0) & (burst_probability <= 0.2),
            "burst_probability must be in [0, 0.2]",
        ),
    )
    for owner_ids, valid, message in checks:
        if not np.all(valid):
            host_id = int(owner_ids[np.argmin(valid)])
            raise ValidationError(f"{path.name}: host {host_id}: {message}")

    num_bins, bin_width, origin = _MATRIX_STRUCT.unpack_from(data, position)
    bin_spec = BinSpec(width=bin_width, origin=origin)
    position += _MATRIX_STRUCT.size
    num_features = data[position]
    features = tuple(
        _feature_at(index) for index in data[position + 1 : position + 1 + num_features]
    )
    require(
        num_features > 0 and len(set(features)) == num_features,
        f"{path.name}: the value block needs distinct features",
    )
    position += 1 + num_features
    values_offset = position + ((-position) % 8)
    shape = (num_hosts, num_features, num_bins)
    num_values = num_hosts * num_features * num_bins
    require(
        size == values_offset + 8 * num_values,
        f"{path.name}: file size {size} does not match its layout (truncated?)",
    )
    block = np.frombuffer(data, dtype="<f8", count=num_values, offset=values_offset)
    return _ResidentShard(
        host_ids,
        block.reshape(shape),
        features,
        bin_spec,
        _ProfileTable(hosts, intensities, bounds),
    )


def _gather(raw: np.ndarray, offsets: np.ndarray, record: np.dtype) -> np.ndarray:
    """The fixed-size records starting at byte ``offsets`` of ``raw``."""
    index = offsets[:, np.newaxis] + np.arange(record.itemsize)
    return raw[index].view(record).reshape(len(offsets))


def _shard_file_name(index: int) -> str:
    return f"shard-{index:05d}.rpsh"


def _manifest_path(directory: Path) -> Path:
    return directory / _MANIFEST_NAME


def _write_manifest(directory: Path, manifest: dict) -> None:
    path = _manifest_path(directory)
    temporary = path.with_suffix(f".tmp{os.getpid()}")
    temporary.write_text(json.dumps(manifest, sort_keys=True, indent=1))
    os.replace(temporary, path)


def _new_manifest(config: EnterpriseConfig, hosts_per_shard: int) -> dict:
    num_shards = -(-config.num_hosts // hosts_per_shard)
    return {
        "format": POPULATION_FORMAT_VERSION,
        "config": config_payload(config),
        "num_hosts": config.num_hosts,
        "hosts_per_shard": hosts_per_shard,
        "shards": [None] * num_shards,
    }


def write_population_sharded(
    directory: PathLike,
    population: EnterprisePopulation,
    hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
) -> Path:
    """Write an in-memory population as a complete ``.rpopd`` directory."""
    require(hosts_per_shard >= 1, "hosts_per_shard must be >= 1")
    host_ids = population.host_ids
    require(
        host_ids == tuple(range(len(host_ids))),
        "sharded populations require contiguous host ids starting at 0",
    )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = _new_manifest(population.config, hosts_per_shard)
    profiles = {host_id: population.profile(host_id) for host_id in host_ids}
    matrices = population.matrices()
    for index in range(len(manifest["shards"])):
        first = index * hosts_per_shard
        chunk = list(range(first, min(first + hosts_per_shard, len(host_ids))))
        name = _shard_file_name(index)
        digest = _write_shard(directory / name, chunk, profiles, matrices)
        manifest["shards"][index] = {
            "file": name,
            "first_host": first,
            "num_hosts": len(chunk),
            "sha256": digest,
        }
    _write_manifest(directory, manifest)
    return directory


def read_manifest(directory: PathLike) -> dict:
    """Read and validate a ``.rpopd`` manifest; raises ``ValidationError``."""
    path = _manifest_path(Path(directory))
    if not path.is_file():
        raise ValidationError(f"not a sharded population: {path} is missing")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ValidationError(f"unreadable sharded population manifest: {error}") from None
    if manifest.get("format") != POPULATION_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported sharded population format {manifest.get('format')!r}"
        )
    for key in ("config", "num_hosts", "hosts_per_shard", "shards"):
        if key not in manifest:
            raise ValidationError(f"sharded population manifest missing {key!r}")
    return manifest


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
        use_mmap: bool = True,
        roles: Optional[Mapping[int, UserRole]] = None,
    ) -> None:
        require(max_resident_shards >= 1, "max_resident_shards must be >= 1")
        self._config = config
        self._directory = directory
        self._manifest = manifest
        self._hosts_per_shard = int(manifest["hosts_per_shard"])
        self._num_hosts = int(manifest["num_hosts"])
        self._max_resident = max_resident_shards
        self._use_mmap = use_mmap
        self._roles: Mapping[int, UserRole] = dict(roles) if roles else {}
        #: shard index -> resident shard; insertion order is LRU order.
        self._resident: Dict[int, _ResidentShard] = {}
        self._random_source: Optional[RandomSource] = None
        self._events = None

    # --------------------------------------------------------------- opening
    @classmethod
    def open(
        cls,
        directory: PathLike,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        use_mmap: bool = True,
    ) -> "ShardedPopulation":
        """Open an existing ``.rpopd`` directory (shards load lazily)."""
        directory = Path(directory)
        manifest = read_manifest(directory)
        config = _config_from_payload(manifest["config"])
        return cls(
            config,
            directory,
            manifest,
            max_resident_shards=max_resident_shards,
            use_mmap=use_mmap,
        )

    @classmethod
    def generate(
        cls,
        config: EnterpriseConfig,
        directory: Optional[PathLike] = None,
        hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        use_mmap: bool = True,
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
            config,
            directory,
            manifest,
            max_resident_shards=max_resident_shards,
            use_mmap=use_mmap,
            roles=roles,
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

    def _shard(self, index: int) -> _ResidentShard:
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

    def _load_or_generate_shard(self, index: int) -> _ResidentShard:
        record = self._manifest["shards"][index]
        if self._directory is not None and record is not None:
            path = self._directory / record["file"]
            if path.is_file():
                with trace_span("engine.shard.load", shard=index):
                    try:
                        return _read_shard(
                            path, self._shard_host_range(index), use_mmap=self._use_mmap
                        )
                    except (ValidationError, OSError, ValueError):
                        # A corrupt shard is regenerated (and rewritten) below.
                        pass
        return self._generate_shard(index)

    def _generate_shard(self, index: int) -> _ResidentShard:
        host_range = self._shard_host_range(index)
        with trace_span("engine.shard.generate", shard=index, num_hosts=len(host_range)):
            if self._random_source is None:
                self._random_source = RandomSource(seed=self._config.seed, label="enterprise")
                self._events = build_population_events(self._config)
            profiles: Dict[int, HostProfile] = {}
            matrices: Dict[int, FeatureMatrix] = {}
            for host_id in host_range:
                profile, matrix = generate_host(
                    self._config,
                    host_id,
                    self._random_source,
                    self._events,
                    role=self._roles.get(host_id),
                )
                profiles[host_id] = profile
                matrices[host_id] = matrix
            add_count("engine.hosts_generated", len(host_range))
        if self._directory is not None:
            self._persist_shard(index, list(host_range), profiles, matrices)
            # Re-open through the loader so the resident copy is the mapped
            # block, not the generation-sized arrays.
            record = self._manifest["shards"][index]
            if record is not None:
                try:
                    return _read_shard(
                        self._directory / record["file"], host_range, use_mmap=self._use_mmap
                    )
                except (ValidationError, OSError, ValueError):
                    pass
        return _ResidentShard.stack(host_range, profiles, matrices)

    def _persist_shard(
        self,
        index: int,
        host_ids: List[int],
        profiles: Dict[int, HostProfile],
        matrices: Dict[int, FeatureMatrix],
    ) -> None:
        name = _shard_file_name(index)
        try:
            digest = _write_shard(self._directory / name, host_ids, profiles, matrices)
        except OSError:
            # An unwritable cache never discards generated data; the shard
            # simply stays memory-resident for this process.
            return
        self._manifest["shards"][index] = {
            "file": name,
            "first_host": host_ids[0],
            "num_hosts": len(host_ids),
            "sha256": digest,
        }
        try:
            _write_manifest(self._directory, self._manifest)
        except OSError:
            pass

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
            shard = self._shard(index)
            for host_id in by_shard[index]:
                combined[host_id] = shard.matrix(host_id)
        return combined

    def iter_shards(self) -> Iterator[Tuple[range, Dict[int, FeatureMatrix]]]:
        """Iterate ``(host_range, matrices)`` shard by shard."""
        for index in range(self.num_shards):
            shard = self._shard(index)
            yield shard.host_ids, shard.matrices()

    # ------------------------------------------------------------ aggregates
    def _feature_rows(self, feature: Feature) -> Iterator[Tuple[int, np.ndarray, float]]:
        """``(host_id, bins, bin_width)`` of ``feature`` for every host, shard by shard."""
        for index in range(self.num_shards):
            shard = self._shard(index)
            column = shard.column(feature)
            for host_id, values in zip(shard.host_ids, column, strict=True):
                yield host_id, values, shard.bin_spec.width

    def feature_values(self, feature: Feature) -> Dict[int, np.ndarray]:
        """Per-host per-bin values of ``feature``."""
        return {host_id: values for host_id, values, _ in self._feature_rows(feature)}

    def distributions(self, feature: Feature) -> Dict[int, EmpiricalDistribution]:
        """Per-host empirical distribution of ``feature``."""
        return {
            host_id: EmpiricalDistribution(values, bin_width=width)
            for host_id, values, width in self._feature_rows(feature)
        }

    def pooled_distribution(self, feature: Feature) -> EmpiricalDistribution:
        """The global (pooled across hosts) distribution of ``feature``."""
        return EmpiricalDistribution.pooled(list(self.distributions(feature).values()))

    def per_host_percentiles(self, feature: Feature, q: float) -> Dict[int, float]:
        """Per-host ``q``-th percentile of ``feature``."""
        return {
            host_id: EmpiricalDistribution(values, bin_width=width).percentile(q)
            for host_id, values, width in self._feature_rows(feature)
        }

    def max_observed(self, feature: Feature) -> float:
        """Maximum per-bin value of ``feature`` across all hosts."""
        return max(
            float(np.max(self._shard(index).column(feature))) for index in range(self.num_shards)
        )

    def materialize(self) -> EnterprisePopulation:
        """The equivalent fully in-memory :class:`EnterprisePopulation`."""
        profiles: Dict[int, HostProfile] = {}
        matrices: Dict[int, FeatureMatrix] = {}
        for index in range(self.num_shards):
            shard = self._shard(index)
            profiles.update(shard.profiles())
            matrices.update(shard.matrices())
        return EnterprisePopulation(config=self._config, profiles=profiles, matrices=matrices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedPopulation(hosts={self._num_hosts}, shards={self.num_shards}, "
            f"resident={len(self._resident)})"
        )


def _config_from_payload(payload: Mapping) -> EnterpriseConfig:
    payload = dict(payload)
    payload["maintenance_weeks"] = tuple(payload["maintenance_weeks"])
    return EnterpriseConfig(**payload)
