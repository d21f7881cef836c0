"""Host behaviour profiles.

Every synthetic host is described by a :class:`HostProfile`: a user role, an
activity level, and one :class:`FeatureIntensity` per monitored feature.  The
intensity controls the *scale* of the host's per-bin counts; the population is
constructed so the cross-host spread of tail percentiles matches the paper's
Figure 1 (3-4 orders of magnitude for most features, about 2 for DNS).

The key modelling decision is that a host's per-feature scales are drawn from
a shared "master intensity" plus substantial per-feature noise, so heaviness
is only weakly correlated across features — reproducing Figure 2 and Table 2,
where the heaviest TCP users are not the heaviest UDP users.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.features.definitions import Feature, PAPER_FEATURES
from repro.utils.rng import RandomSource
from repro.utils.validation import require, require_positive


class ActivityLevel(Enum):
    """Coarse activity class, used for reporting and grouping checks."""

    LIGHT = "light"
    MEDIUM = "medium"
    HEAVY = "heavy"


class UserRole(Enum):
    """Enterprise user archetypes with different application mixes."""

    OFFICE_WORKER = "office_worker"
    SOFTWARE_DEVELOPER = "software_developer"
    SYSTEM_ADMINISTRATOR = "system_administrator"
    SALES_MOBILE = "sales_mobile"
    RESEARCHER = "researcher"
    POWER_USER = "power_user"

    @property
    def weight(self) -> float:
        """Relative frequency of this role in the enterprise population."""
        return _ROLE_WEIGHTS[self]


_ROLE_WEIGHTS: Dict[UserRole, float] = {
    UserRole.OFFICE_WORKER: 0.40,
    UserRole.SOFTWARE_DEVELOPER: 0.20,
    UserRole.SYSTEM_ADMINISTRATOR: 0.05,
    UserRole.SALES_MOBILE: 0.15,
    UserRole.RESEARCHER: 0.12,
    UserRole.POWER_USER: 0.08,
}

#: Per-role multiplicative bias applied to the master intensity (log10 units).
_ROLE_LOG10_BIAS: Dict[UserRole, float] = {
    UserRole.OFFICE_WORKER: -0.2,
    UserRole.SOFTWARE_DEVELOPER: 0.2,
    UserRole.SYSTEM_ADMINISTRATOR: 0.6,
    UserRole.SALES_MOBILE: -0.3,
    UserRole.RESEARCHER: 0.1,
    UserRole.POWER_USER: 0.5,
}

#: Per-feature base rate (typical per-15-minute-bin count for a scale-1 host).
_FEATURE_BASE_RATE: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 12.0,
    Feature.TCP_CONNECTIONS: 16.0,
    Feature.TCP_SYN: 19.0,
    Feature.HTTP_CONNECTIONS: 8.0,
    Feature.DISTINCT_CONNECTIONS: 8.0,
    Feature.UDP_CONNECTIONS: 5.0,
}

#: How strongly the feature scale follows the host's master intensity.
#: Calibrated against Figure 1: the per-host 99th-percentile spread is about
#: two orders of magnitude for the number of TCP connections (Figure 1(a):
#: roughly 50 to 7000) and for DNS (Figure 1(d)), and three to four orders
#: for HTTP, distinct-destination and UDP counts (Figures 1(b), 1(c), 1(f)).
_FEATURE_MASTER_EXPONENT: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.40,
    Feature.TCP_CONNECTIONS: 0.55,
    Feature.TCP_SYN: 0.55,
    Feature.HTTP_CONNECTIONS: 0.80,
    Feature.DISTINCT_CONNECTIONS: 0.80,
    Feature.UDP_CONNECTIONS: 0.95,
}

#: Standard deviation (log10) of the per-feature idiosyncratic offset; this is
#: what decorrelates heaviness across features.
_FEATURE_IDIOSYNCRASY: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.20,
    Feature.TCP_CONNECTIONS: 0.30,
    Feature.TCP_SYN: 0.15,
    Feature.HTTP_CONNECTIONS: 0.30,
    Feature.DISTINCT_CONNECTIONS: 0.30,
    Feature.UDP_CONNECTIONS: 0.45,
}

#: In-bin variability (sigma of the lognormal body) per feature.
_FEATURE_BODY_SIGMA: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.8,
    Feature.TCP_CONNECTIONS: 1.0,
    Feature.TCP_SYN: 1.0,
    Feature.HTTP_CONNECTIONS: 1.1,
    Feature.DISTINCT_CONNECTIONS: 0.9,
    Feature.UDP_CONNECTIONS: 1.2,
}

#: Probability that a bin contains a burst drawn from the Pareto tail.
_FEATURE_BURST_PROBABILITY: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.010,
    Feature.TCP_CONNECTIONS: 0.015,
    Feature.TCP_SYN: 0.015,
    Feature.HTTP_CONNECTIONS: 0.012,
    Feature.DISTINCT_CONNECTIONS: 0.010,
    Feature.UDP_CONNECTIONS: 0.012,
}


@dataclass(frozen=True)
class FeatureIntensity:
    """Scale and shape parameters of one host's per-bin counts for one feature.

    Attributes
    ----------
    scale:
        Multiplicative scale applied to the feature's base rate; the dominant
        source of cross-host diversity.
    body_sigma:
        Log-space sigma of the lognormal body of the per-bin distribution.
    burst_probability:
        Per-bin probability of drawing from the Pareto burst component.
    burst_alpha:
        Pareto tail index of the burst component (smaller is heavier).
    """

    scale: float
    body_sigma: float
    burst_probability: float
    burst_alpha: float

    def __post_init__(self) -> None:
        require_positive(self.scale, "scale")
        require_positive(self.body_sigma, "body_sigma")
        require(0.0 <= self.burst_probability <= 0.2, "burst_probability must be in [0, 0.2]")
        require_positive(self.burst_alpha, "burst_alpha")


@dataclass(frozen=True)
class HostProfile:
    """Complete behavioural description of one synthetic host."""

    host_id: int
    role: UserRole
    master_intensity: float
    intensities: Mapping[Feature, FeatureIntensity]
    is_laptop: bool = True

    def __post_init__(self) -> None:
        require_positive(self.master_intensity, "master_intensity")
        require(len(self.intensities) > 0, "profile requires at least one feature intensity")

    @property
    def activity_level(self) -> ActivityLevel:
        """Coarse activity class derived from the master intensity."""
        if self.master_intensity < 3.0:
            return ActivityLevel.LIGHT
        if self.master_intensity < 30.0:
            return ActivityLevel.MEDIUM
        return ActivityLevel.HEAVY

    def intensity(self, feature: Feature) -> FeatureIntensity:
        """Intensity parameters for ``feature``."""
        return self.intensities[feature]

    def base_rate(self, feature: Feature) -> float:
        """Expected per-bin count scale (base rate x host scale) for ``feature``."""
        return _FEATURE_BASE_RATE[feature] * self.intensities[feature].scale


def sample_host_profile(
    host_id: int,
    random_source: RandomSource,
    role: Optional[UserRole] = None,
    master_log10_range: float = 2.2,
    laptop_fraction: float = 0.95,
) -> HostProfile:
    """Draw one host's profile.

    Parameters
    ----------
    host_id:
        Identifier of the host; also used to derive the host's RNG stream.
    random_source:
        Parent random source (the population's).
    role:
        Fixed role, or None to sample from the enterprise role mix.
    master_log10_range:
        Width (in log10 units) of the uniform distribution of master
        intensities across the population.  With the per-feature exponents
        and idiosyncratic noise this yields the 3-4 order-of-magnitude tail
        spread the paper reports.
    laptop_fraction:
        Probability the host is a laptop (the paper's population was 95%
        laptops).
    """
    rng = random_source.child("profile", host_id).generator
    if role is None:
        roles = list(UserRole)
        weights = np.array([r.weight for r in roles])
        weights = weights / weights.sum()
        role = roles[int(rng.choice(len(roles), p=weights))]

    master_log10 = rng.uniform(0.0, master_log10_range) + _ROLE_LOG10_BIAS[role]
    master_intensity = float(10.0 ** master_log10)

    intensities: Dict[Feature, FeatureIntensity] = {}
    for feature in PAPER_FEATURES:
        exponent = _FEATURE_MASTER_EXPONENT[feature]
        idiosyncratic = rng.normal(0.0, _FEATURE_IDIOSYNCRASY[feature])
        scale = float(10.0 ** (exponent * master_log10 + idiosyncratic))
        intensities[feature] = FeatureIntensity(
            scale=max(scale, 1e-3),
            body_sigma=_FEATURE_BODY_SIGMA[feature],
            burst_probability=_FEATURE_BURST_PROBABILITY[feature],
            burst_alpha=float(rng.uniform(1.6, 2.6)),
        )

    return HostProfile(
        host_id=host_id,
        role=role,
        master_intensity=master_intensity,
        intensities=intensities,
        is_laptop=bool(rng.uniform() < laptop_fraction),
    )


#: Role and feature codes of a stored profile: the index into these tuples.
ROLE_ORDER = tuple(UserRole)
FEATURE_ORDER = PAPER_FEATURES

#: One host's fixed-size profile record and one feature-intensity record,
#: packed exactly as a population file lays them out (a host record, then
#: ``num_intensities`` intensity records).
HOST_RECORD = np.dtype(
    [
        ("host_id", "<u4"),
        ("role", "u1"),
        ("is_laptop", "u1"),
        ("master_intensity", "<f8"),
        ("num_intensities", "u1"),
    ]
)
INTENSITY_RECORD = np.dtype(
    [
        ("feature", "u1"),
        ("scale", "<f8"),
        ("body_sigma", "<f8"),
        ("burst_probability", "<f8"),
        ("burst_alpha", "<f8"),
    ]
)


class HostProfileTable:
    """A population's profiles as records; row ``i`` builds host ``i``'s profile.

    ``hosts`` holds one :data:`HOST_RECORD` per host and ``intensities`` every
    host's :data:`INTENSITY_RECORD` rows back to back, in host order, so a
    table is written to and read from a population file without a per-host
    object.  :class:`HostProfile` objects are built only when a row is read.
    """

    def __init__(self, hosts: np.ndarray, intensities: np.ndarray) -> None:
        self.hosts = hosts
        self.intensities = intensities
        #: Host ``i``'s intensities are ``intensities[bounds[i]:bounds[i + 1]]``.
        self.bounds = np.zeros(len(hosts) + 1, dtype=np.int64)
        np.cumsum(hosts["num_intensities"], out=self.bounds[1:])

    @classmethod
    def of(cls, profiles: Sequence[HostProfile]) -> "HostProfileTable":
        """The table of ``profiles``, in order."""
        hosts = np.array(
            [
                (
                    profile.host_id,
                    ROLE_ORDER.index(profile.role),
                    profile.is_laptop,
                    profile.master_intensity,
                    len(profile.intensities),
                )
                for profile in profiles
            ],
            dtype=HOST_RECORD,
        )
        intensities = np.array(
            [
                (
                    FEATURE_ORDER.index(feature),
                    intensity.scale,
                    intensity.body_sigma,
                    intensity.burst_probability,
                    intensity.burst_alpha,
                )
                for profile in profiles
                for feature, intensity in profile.intensities.items()
            ],
            dtype=INTENSITY_RECORD,
        )
        return cls(hosts, intensities)

    @classmethod
    def concatenate(cls, tables: Sequence["HostProfileTable"]) -> "HostProfileTable":
        """The rows of ``tables``, one after another."""
        if len(tables) == 1:
            return tables[0]
        return cls(
            np.concatenate([table.hosts for table in tables]),
            np.concatenate([table.intensities for table in tables]),
        )

    def rows(self, start: int, stop: int) -> "HostProfileTable":
        """Rows ``[start, stop)`` as a table (views, no copy)."""
        return HostProfileTable(
            self.hosts[start:stop], self.intensities[self.bounds[start] : self.bounds[stop]]
        )

    def __len__(self) -> int:
        return len(self.hosts)

    def __getitem__(self, row: int) -> HostProfile:
        host_id, role, is_laptop, master_intensity, _ = self.hosts[row].tolist()
        records = self.intensities[self.bounds[row] : self.bounds[row + 1]].tolist()
        return HostProfile(
            host_id=host_id,
            role=ROLE_ORDER[role],
            master_intensity=master_intensity,
            intensities={
                FEATURE_ORDER[feature]: FeatureIntensity(
                    scale=scale,
                    body_sigma=body_sigma,
                    burst_probability=burst_probability,
                    burst_alpha=burst_alpha,
                )
                for feature, scale, body_sigma, burst_probability, burst_alpha in records
            },
            is_laptop=bool(is_laptop),
        )
