"""The population file format: a ``.rpopd`` directory of host-range shards.

Every stored population, monolithic or sharded, is a
``population-<key>.rpopd/`` directory:

* ``manifest.json`` — format version, the full
  :class:`~repro.workload.enterprise.EnterpriseConfig` payload, the shard
  geometry and, per written shard, its file name and SHA-256 content hash.
* ``shard-NNNNN.rpsh`` — one fixed-size host range each.  A shard file holds
  a magic + version header, the packed profile records of its hosts
  (:data:`~repro.workload.profiles.HOST_RECORD` /
  :data:`~repro.workload.profiles.INTENSITY_RECORD`), the bin grid and
  feature order, and one contiguous ``(num_hosts, num_features, num_bins)``
  little-endian float64 block.  Loading maps the file once, so the block is
  one array view of the mapping and bins are never copied.

A monolithic population (the on-disk cache entry) is a one-shard directory.
The round trip is exact: a loaded population's bins are bit-identical to
the generated ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import mmap
import os
import struct
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from repro.traces.serialization import read_header, write_header
from repro.utils.timeutils import BinSpec
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation
from repro.workload.profiles import (
    FEATURE_ORDER,
    HOST_RECORD,
    INTENSITY_RECORD,
    ROLE_ORDER,
    HostProfileTable,
)

#: Bump whenever the on-disk layout or the generation process changes in a
#: way that invalidates stored populations.  Version 3 made the one-shard
#: ``.rpopd`` directory the only monolithic format (retiring the per-host
#: ``.rpop`` file).
POPULATION_FORMAT_VERSION = 3

_SHARD_MAGIC = b"RPSH"
_MANIFEST_NAME = "manifest.json"
#: Magic, then the ``<HI`` format version and host count (``write_header``).
_HEADER_SIZE = len(_SHARD_MAGIC) + 6
# num_bins, bin_width, bin origin
_MATRIX_STRUCT = struct.Struct("<Idd")
#: Byte offset of the intensity count inside a host record.
_COUNT_OFFSET = HOST_RECORD.fields["num_intensities"][1]
#: Bytes per write of a shard's value block (see :func:`_write_shard`).
_WRITE_CHUNK = 1 << 16

PathLike = Union[str, Path]


def config_payload(config: EnterpriseConfig) -> dict:
    """JSON-ready mapping of every ``EnterpriseConfig`` field.

    Derived via :func:`dataclasses.asdict` so newly added config fields are
    automatically part of both the manifest and the cache key — a
    hand-maintained field list here would silently collide cache entries for
    configs differing only in a forgotten field.
    """
    payload = dataclasses.asdict(config)
    payload["maintenance_weeks"] = list(payload["maintenance_weeks"])
    # DriftModel round-trips as its nested-dict form (EnterpriseConfig
    # normalises a mapping back into the dataclass on construction).
    payload["drift"] = {
        "components": [
            dict(component, weeks=list(component["weeks"]))
            for component in payload["drift"]["components"]
        ]
    }
    return payload


def config_from_payload(payload: Mapping) -> EnterpriseConfig:
    """The :class:`EnterpriseConfig` a :func:`config_payload` mapping describes."""
    payload = dict(payload)
    payload["maintenance_weeks"] = tuple(payload["maintenance_weeks"])
    return EnterpriseConfig(**payload)


# ------------------------------------------------------------------ shards
def _record_offsets(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Byte offset of every intensity record, given each host record's start."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    within_host = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
    return (
        np.repeat(starts + HOST_RECORD.itemsize, counts) + within_host * INTENSITY_RECORD.itemsize
    )


def _profile_bytes(table: HostProfileTable) -> bytes:
    """The packed profile section of ``table``: each host record, then its intensities."""
    counts = table.hosts["num_intensities"].astype(np.int64)
    sizes = HOST_RECORD.itemsize + counts * INTENSITY_RECORD.itemsize
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    raw = np.empty(int(sizes.sum()), dtype=np.uint8)
    _scatter(raw, starts, np.ascontiguousarray(table.hosts))
    _scatter(raw, _record_offsets(starts, counts), np.ascontiguousarray(table.intensities))
    return raw.tobytes()


def _scatter(raw: np.ndarray, offsets: np.ndarray, records: np.ndarray) -> None:
    size = records.dtype.itemsize
    raw[offsets[:, np.newaxis] + np.arange(size)] = records.view(np.uint8).reshape(-1, size)


def _gather(raw: np.ndarray, offsets: np.ndarray, record: np.dtype) -> np.ndarray:
    """The fixed-size records starting at byte ``offsets`` of ``raw``."""
    index = offsets[:, np.newaxis] + np.arange(record.itemsize)
    return raw[index].view(record).reshape(len(offsets))


def _write_shard(path: Path, population: EnterprisePopulation) -> str:
    """Write ``population`` as one shard file; returns its SHA-256 hex digest.

    The file is written to a temporary name and renamed into place, so a
    reader never sees a partial shard.
    """
    features = population.features
    block = population.block
    num_bins = block.shape[2]
    head = io.BytesIO()
    write_header(head, _SHARD_MAGIC, len(population), version=POPULATION_FORMAT_VERSION)
    head.write(_profile_bytes(population.profile_table))
    head.write(
        _MATRIX_STRUCT.pack(num_bins, population.bin_spec.width, population.bin_spec.origin)
    )
    head.write(struct.pack("<B", len(features)))
    head.write(bytes(FEATURE_ORDER.index(feature) for feature in features))
    # Pad the value block to 8-byte alignment so the mapped view is aligned
    # float64.
    head.write(b"\x00" * ((-head.tell()) % 8))
    header = head.getvalue()
    # The block as one byte view (no copy of the bins), hashed in one pass.
    values = memoryview(np.ascontiguousarray(block, dtype="<f8")).cast("B")
    digest = hashlib.sha256(header)
    digest.update(values)

    temporary = path.with_suffix(f".tmp{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            handle.write(header)
            # Bounded writes keep the page cache's folios small.  One write
            # of a whole shard lets the kernel cache it in large folios,
            # and a later fault maps a whole folio into the reader: a
            # sampled read of 256 hosts then grows RSS by every resident
            # shard instead of by the rows it touches.
            for start in range(0, len(values), _WRITE_CHUNK):
                handle.write(values[start : start + _WRITE_CHUNK])
        os.replace(temporary, path)
    finally:
        if temporary.exists():
            temporary.unlink()
    return digest.hexdigest()


def _read_shard(path: Path, host_ids: range, config: EnterpriseConfig) -> EnterprisePopulation:
    """Load a shard written by :func:`_write_shard` holding ``host_ids``.

    The file is mapped once and the value block is a view of the mapping, so
    bins are paged in only when an evaluation touches them.  The whole
    profile section is decoded and checked here with numpy — known role and
    feature indices, the :class:`HostProfile` and :class:`FeatureIntensity`
    invariants, the expected host ids and a file size that matches the
    layout — so a corrupt shard raises :class:`ValidationError` at load.
    Loads neither hash the file nor scan the bins: the manifest's SHA-256 is
    checked only by :meth:`~repro.engine.ShardedPopulation.verify_shard`.
    """
    with open(path, "rb") as handle:
        require(os.fstat(handle.fileno()).st_size >= _HEADER_SIZE, f"{path.name}: truncated")
        data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
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
        require(position + HOST_RECORD.itemsize <= size, f"{path.name}: truncated profiles")
        starts[row] = position
        count = data[position + _COUNT_OFFSET]
        position += HOST_RECORD.itemsize + count * INTENSITY_RECORD.itemsize
    require(position + _MATRIX_STRUCT.size + 1 <= size, f"{path.name}: truncated profiles")

    raw = np.frombuffer(data, dtype=np.uint8)
    hosts = _gather(raw, starts, HOST_RECORD)
    counts = hosts["num_intensities"].astype(np.int64)
    intensities = _gather(raw, _record_offsets(starts, counts), INTENSITY_RECORD)
    # The HostProfile / FeatureIntensity invariants, checked for every host
    # now so a corrupt shard never loads.  NaN fails every comparison.
    read_ids = hosts["host_id"]
    owners = np.repeat(read_ids, counts)
    burst_probability = intensities["burst_probability"]
    checks = (
        (read_ids, read_ids == np.asarray(host_ids), "unexpected host id"),
        (read_ids, hosts["role"] < len(ROLE_ORDER), "unknown role index"),
        (read_ids, hosts["master_intensity"] > 0, "master_intensity must be positive"),
        (read_ids, counts > 0, "no feature intensities"),
        (owners, intensities["feature"] < len(FEATURE_ORDER), "unknown feature index"),
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
    position += _MATRIX_STRUCT.size
    num_features = data[position]
    indices = data[position + 1 : position + 1 + num_features]
    if any(index >= len(FEATURE_ORDER) for index in indices):
        raise ValidationError(f"{path.name}: unknown feature index in the value block")
    features = tuple(FEATURE_ORDER[index] for index in indices)
    require(
        num_features > 0 and len(set(features)) == num_features,
        f"{path.name}: the value block needs distinct features",
    )
    position += 1 + num_features
    values_offset = position + ((-position) % 8)
    num_values = num_hosts * num_features * num_bins
    require(
        size == values_offset + 8 * num_values,
        f"{path.name}: file size {size} does not match its layout (truncated?)",
    )
    block = np.frombuffer(data, dtype="<f8", count=num_values, offset=values_offset)
    return EnterprisePopulation(
        config,
        host_ids,
        block.reshape((num_hosts, num_features, num_bins)),
        features,
        BinSpec(width=bin_width, origin=origin),
        HostProfileTable(hosts, intensities),
    )


# ---------------------------------------------------------------- manifests
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


def _shard_record(name: str, first_host: int, num_hosts: int, digest: str) -> dict:
    return {"file": name, "first_host": first_host, "num_hosts": num_hosts, "sha256": digest}


def write_population_sharded(
    directory: PathLike, population: EnterprisePopulation, hosts_per_shard: int
) -> Path:
    """Write an in-memory population as a complete ``.rpopd`` directory.

    The shard files are written before the manifest that names them, so a
    reader that finds the manifest finds every shard complete.
    """
    require(hosts_per_shard >= 1, "hosts_per_shard must be >= 1")
    require(
        population.host_ids[0] == 0,
        "stored populations require contiguous host ids starting at 0",
    )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = _new_manifest(population.config, hosts_per_shard)
    for index in range(len(manifest["shards"])):
        first = index * hosts_per_shard
        stop = min(first + hosts_per_shard, len(population))
        name = _shard_file_name(index)
        part = EnterprisePopulation(
            population.config,
            range(first, stop),
            population.block[first:stop],
            population.features,
            population.bin_spec,
            population.profile_table.rows(first, stop),
        )
        digest = _write_shard(directory / name, part)
        manifest["shards"][index] = _shard_record(name, first, stop - first, digest)
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
    if not isinstance(manifest, dict) or manifest.get("format") != POPULATION_FORMAT_VERSION:
        raise ValidationError(
            "unsupported sharded population format "
            f"{manifest.get('format') if isinstance(manifest, dict) else None!r}"
        )
    for key in ("config", "num_hosts", "hosts_per_shard", "shards"):
        if key not in manifest:
            raise ValidationError(f"sharded population manifest missing {key!r}")
    return manifest
