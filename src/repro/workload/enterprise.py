"""Enterprise population builder.

Builds the 350-host, multi-week synthetic population that stands in for the
paper's proprietary traces.  A population is one ``(hosts, features, bins)``
float64 block plus a profile table; per-host
:class:`~repro.features.timeseries.FeatureMatrix` views are built on demand.
Generation is fully deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries, week_bins
from repro.stats.empirical import DistributionBlock, EmpiricalDistribution
from repro.utils.rng import RandomSource
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import ValidationError, require, require_positive
from repro.workload.diurnal import ActivityModel, always_on_pattern, office_worker_pattern
from repro.workload.drift import DriftModel
from repro.workload.events import ScheduledEvent, build_maintenance_events
from repro.workload.generator import HostSeriesGenerator
from repro.workload.mobility import MobilityModel
from repro.workload.profiles import (
    HostProfile,
    HostProfileTable,
    UserRole,
    sample_host_profile,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine import PopulationEngine


@dataclass(frozen=True)
class EnterpriseConfig:
    """Configuration of the synthetic enterprise population.

    Defaults mirror the paper's dataset: 350 hosts, five weeks of data,
    15-minute bins, 95% laptops.

    ``maintenance_weeks`` schedules enterprise-wide software rollouts (patch
    cycles) in the given weeks; together with ``week_drift_scale`` this is
    the source of the week-to-week threshold instability the paper reports.
    Set ``with_maintenance=False`` and ``week_drift_scale=0.0`` for a fully
    stationary population (useful in ablation benchmarks).

    ``drift`` layers named, composable drift shapes (seasonal ramp, role
    churn, fleet turnover, flash-crowd weeks — see
    :class:`~repro.workload.drift.DriftModel`) on top of the baseline
    ``week_drift_scale`` non-stationarity.  The default (empty model) leaves
    generation bit-identical to the pre-drift-model code.  A plain mapping
    (e.g. from a deserialized config payload) is accepted and normalised.
    """

    num_hosts: int = 350
    num_weeks: int = 5
    bin_width: float = 15 * MINUTE
    seed: int = 2009
    laptop_fraction: float = 0.95
    with_mobility: bool = True
    master_log10_range: float = 2.2
    with_maintenance: bool = True
    maintenance_weeks: Tuple[int, ...] = (0, 2, 4)
    week_drift_scale: float = 1.0
    drift: DriftModel = field(default_factory=DriftModel)

    def __post_init__(self) -> None:
        require(self.num_hosts >= 1, "num_hosts must be >= 1")
        require(self.num_weeks >= 1, "num_weeks must be >= 1")
        require_positive(self.bin_width, "bin_width")
        require(0.0 <= self.laptop_fraction <= 1.0, "laptop_fraction must be in [0, 1]")
        require(self.week_drift_scale >= 0.0, "week_drift_scale must be non-negative")
        if isinstance(self.drift, Mapping):
            object.__setattr__(self, "drift", DriftModel.from_dict(self.drift))
        require(isinstance(self.drift, DriftModel), "drift must be a DriftModel")

    @property
    def duration(self) -> float:
        """Total trace duration in seconds."""
        return self.num_weeks * WEEK


class EnterprisePopulation:
    """The generated population: one ``(hosts, features, bins)`` block plus profiles.

    Host ids are the contiguous range ``host_ids``; row ``i`` of the
    read-only float64 ``block`` and of the profile table belong to host
    ``host_ids[i]``, and column ``j`` to ``features[j]``.  Per-host
    :class:`FeatureMatrix` and :class:`HostProfile` objects are built on
    first access and cached, so a caller that reads a handful of hosts never
    builds objects for the rest, and population-wide statistics read the
    block directly.
    """

    def __init__(
        self,
        config: EnterpriseConfig,
        host_ids: range,
        block: np.ndarray,
        features: Tuple[Feature, ...],
        bin_spec: BinSpec,
        profiles: HostProfileTable,
    ) -> None:
        require(len(host_ids) > 0, "population must contain at least one host")
        require(
            block.ndim == 3 and block.shape[:2] == (len(host_ids), len(features)),
            "the block must be (hosts, features, bins)",
        )
        require(len(profiles) == len(host_ids), "one profile per host is required")
        block.flags.writeable = False
        self._config = config
        self._first = host_ids.start
        self._host_ids = tuple(host_ids)
        self._block = block
        self._features = tuple(features)
        self._columns = {feature: column for column, feature in enumerate(self._features)}
        self._bin_spec = bin_spec
        self._profile_table = profiles
        self._profiles: Dict[int, HostProfile] = {}
        self._matrices: Dict[int, FeatureMatrix] = {}

    @classmethod
    def concatenate(
        cls, config: EnterpriseConfig, parts: Iterable["EnterprisePopulation"]
    ) -> "EnterprisePopulation":
        """One population from ``parts``: contiguous host ranges, in host order.

        Each part's block is copied into a preallocated population block as
        the part arrives, so a caller that yields parts one at a time never
        holds every part and the whole block at once.
        """
        block: Optional[np.ndarray] = None
        tables: List[HostProfileTable] = []
        filled = 0
        for part in parts:
            if block is None:
                features, bin_spec = part.features, part.bin_spec
                block = np.empty((config.num_hosts,) + part.block.shape[1:])
            require(
                part.features == features
                and part.bin_spec == bin_spec
                and part.block.shape[1:] == block.shape[1:],
                "populations require a uniform feature set and bin grid",
            )
            require(part.host_ids[0] == filled, "parts must cover contiguous host ranges in order")
            block[filled : filled + len(part)] = part.block
            filled += len(part)
            tables.append(part.profile_table)
        require(block is not None and filled == len(block), "parts must cover every host")
        return cls(
            config, range(filled), block, features, bin_spec, HostProfileTable.concatenate(tables)
        )

    # ----------------------------------------------------------------- basic
    @property
    def config(self) -> EnterpriseConfig:
        """The configuration the population was generated with."""
        return self._config

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Host identifiers, ascending and contiguous."""
        return self._host_ids

    @property
    def block(self) -> np.ndarray:
        """Every host's bins as a read-only ``(hosts, features, bins)`` array."""
        return self._block

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The features, in block column order."""
        return self._features

    @property
    def bin_spec(self) -> BinSpec:
        """The bin grid every host shares."""
        return self._bin_spec

    @property
    def profile_table(self) -> HostProfileTable:
        """The profiles as records, one row per host."""
        return self._profile_table

    def __len__(self) -> int:
        return len(self._host_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._host_ids)

    def _row(self, host_id: int) -> int:
        row = host_id - self._first
        if not 0 <= row < len(self._host_ids):
            raise KeyError(host_id)
        return row

    def profile(self, host_id: int) -> HostProfile:
        """Profile of ``host_id``."""
        profile = self._profiles.get(host_id)
        if profile is None:
            profile = self._profile_table[self._row(host_id)]
            self._profiles[host_id] = profile
        return profile

    def matrix(self, host_id: int) -> FeatureMatrix:
        """Feature matrix of ``host_id``: views of its block row."""
        matrix = self._matrices.get(host_id)
        if matrix is None:
            values = self._block[self._row(host_id)]
            # Bins were validated (non-negative) when generated, and a cache
            # load re-checks its block, so rows are wrapped without a scan.
            matrix = FeatureMatrix(
                host_id=host_id,
                series={
                    feature: TimeSeries._wrap(values[column], self._bin_spec)
                    for feature, column in self._columns.items()
                },
            )
            self._matrices[host_id] = matrix
        return matrix

    def matrices(self) -> Dict[int, FeatureMatrix]:
        """All feature matrices keyed by host id."""
        return self.matrices_for(self._host_ids)

    def matrices_for(self, host_ids: Sequence[int]) -> Dict[int, FeatureMatrix]:
        """Feature matrices for ``host_ids`` only, in that order."""
        return {host_id: self.matrix(host_id) for host_id in host_ids}

    # ------------------------------------------------------------- transforms
    def week(self, index: int) -> "EnterprisePopulation":
        """Population restricted to week ``index`` (0-based): a view, no copy."""
        bins = week_bins(self._bin_spec, self._block.shape[2], index, index + 1)
        return EnterprisePopulation(
            self._config,
            range(self._first, self._first + len(self)),
            self._block[:, :, bins],
            self._features,
            self._bin_spec,
            self._profile_table,
        )

    def column(self, feature: Feature) -> np.ndarray:
        """Every host's bins of ``feature`` as a ``(hosts, bins)`` view."""
        return self._block[:, self._columns[feature]]

    def distributions(self, feature: Feature) -> DistributionBlock:
        """Per-host empirical distribution of ``feature``."""
        rows = np.sort(self.column(feature), axis=1)
        # Counts are non-negative, so a non-finite value sorts last.
        if not bool(np.all(np.isfinite(rows[:, -1]))):
            raise ValidationError("samples must be finite")
        return DistributionBlock(
            self._host_ids,
            rows,
            np.full(len(self), rows.shape[1]),
            [self._bin_spec.width] * len(self),
        )

    def pooled_distribution(self, feature: Feature) -> EmpiricalDistribution:
        """The global (pooled across hosts) distribution of ``feature``.

        This is what the central console computes under the homogeneous
        (monoculture) policy.
        """
        return EmpiricalDistribution(self.column(feature).ravel(), bin_width=self._bin_spec.width)

    def per_host_percentiles(self, feature: Feature, q: float) -> Dict[int, float]:
        """Per-host ``q``-th percentile of ``feature`` (full-diversity thresholds)."""
        percentiles = self.distributions(feature).percentile(q).tolist()
        return dict(zip(self._host_ids, percentiles, strict=True))

    def max_observed(self, feature: Feature) -> float:
        """Maximum per-bin value of ``feature`` across all hosts.

        The paper uses this as the largest attack size worth simulating: any
        attack bigger than the largest benign value stands out on every host.
        """
        return float(np.max(self.column(feature)))


def build_population_events(config: EnterpriseConfig) -> List[ScheduledEvent]:
    """The enterprise-wide maintenance schedule implied by ``config``."""
    if not config.with_maintenance:
        return []
    return build_maintenance_events(config.num_weeks, config.maintenance_weeks)


def generate_host(
    config: EnterpriseConfig,
    host_id: int,
    random_source: Optional[RandomSource] = None,
    events: Optional[Sequence[ScheduledEvent]] = None,
    role: Optional[UserRole] = None,
) -> Tuple[HostProfile, FeatureMatrix]:
    """Generate one host's profile and feature matrix.

    Every random stream is derived from ``(config.seed, host_id)`` via the
    labelled :class:`RandomSource` hierarchy, so the output depends only on
    the configuration and the host id — never on generation order.  This is
    the property the parallel :class:`~repro.engine.PopulationEngine` relies
    on to fan hosts out across worker processes while staying bit-identical
    to serial generation.
    """
    if random_source is None:
        random_source = RandomSource(seed=config.seed, label="enterprise")
    if events is None:
        events = build_population_events(config)
    profile = sample_host_profile(
        host_id=host_id,
        random_source=random_source,
        role=role,
        master_log10_range=config.master_log10_range,
        laptop_fraction=config.laptop_fraction,
    )
    pattern = (
        always_on_pattern()
        if profile.role == UserRole.SYSTEM_ADMINISTRATOR
        else office_worker_pattern()
    )
    mobility = MobilityModel(is_laptop=profile.is_laptop) if config.with_mobility else None
    generator = HostSeriesGenerator(
        profile=profile,
        activity=ActivityModel(pattern=pattern),
        mobility=mobility,
        bin_spec=BinSpec(width=config.bin_width),
        week_drift_scale=config.week_drift_scale,
        events=events,
        drift_model=config.drift,
    )
    return profile, generator.generate(config.duration, random_source)


def generate_enterprise(
    config: Optional[EnterpriseConfig] = None,
    roles: Optional[Mapping[int, UserRole]] = None,
    engine: Optional["PopulationEngine"] = None,
) -> EnterprisePopulation:
    """Generate the full synthetic enterprise population.

    Generation is delegated to a :class:`~repro.engine.PopulationEngine`,
    which can fan hosts out across worker processes and serve repeated
    configurations from an on-disk cache.  The default engine (from
    environment variables ``REPRO_ENGINE_WORKERS`` / ``REPRO_CACHE_DIR``)
    preserves the historical behaviour: serial generation, no caching.

    Parameters
    ----------
    config:
        Population configuration; defaults to the paper-scale configuration
        (350 hosts, 5 weeks).
    roles:
        Optional explicit role assignment per host id (hosts not listed get a
        sampled role).
    engine:
        Optional pre-configured engine (worker count, cache directory).
    """
    from repro.engine import PopulationEngine

    if engine is None:
        engine = PopulationEngine.from_env()
    return engine.generate(config, roles=roles)
