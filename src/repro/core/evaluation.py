"""Policy evaluation: the paper's weekly train/test protocol, feature-set first.

Thresholds are learned on one week of data and applied to the next (week 1
trains week 2, week 3 trains week 4).  On the test week the harness measures,
per host, the false-positive rate on benign traffic and — when an attack is
overlaid — the false-negative rate on attacked bins, then condenses the pair
into the per-host utility.  Aggregates across the population (mean utility,
alarm volume at the console, fraction of hosts raising an alarm) feed the
figure and table reproductions.

The evaluation API is built around feature *sets*: a
:class:`DetectionProtocol` names the monitored features and the
:class:`~repro.core.fusion.FusionRule` combining their per-bin alert
indicators, and :func:`evaluate_policy` measures both the per-feature
operating points and the fused per-host (FP, FN)/utility.

Every stage is columnar.  Training builds one row-sorted ``(hosts, bins)``
:class:`~repro.stats.empirical.DistributionBlock` per feature, so the
assign stage's per-host percentiles are one vectorised pass.  Measurement
has one path: the population is scored as whole ``(num_hosts, num_bins)``
array operations per feature — threshold exceedance, attack overlay and
fusion votes — so every host must share one bin grid (every generated
population does; a mixed grid raises
:class:`~repro.utils.validation.ValidationError`).  The result,
:class:`HostPerformances`, keeps per-host arrays; population aggregates read
them, and a :class:`HostPerformance` is built only for a host looked up.

Attacks have one form, a :data:`~repro.attacks.base.BatchAttackFn`: it
receives the victims as a :class:`~repro.attacks.base.VictimBatch` and
returns per-feature ``(num_hosts, num_bins)`` injected amounts.
``tests/data/golden_measurement.json`` pins the outputs bit for bit against
the per-host loop this path replaced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import BatchAttackFn, VictimBatch
from repro.core.fusion import FusionRule
from repro.core.metrics import DEFAULT_UTILITY_WEIGHT, OperatingPoint, utility_array
from repro.core.policies import ConfigurationPolicy, DetectionAssignment
from repro.core.thresholds import DEFAULT_PERCENTILE
from repro.features.definitions import Feature
from repro.features.timeseries import (
    FeatureMatrix,
    TimeSeries,
    require_shared_bin_grid,
    week_bins,
)
from repro.stats.empirical import DistributionBlock, EmpiricalDistribution
from repro.stats.summary import SummaryStatistics, summarize
from repro.telemetry import add_count, trace_span
from repro.utils.validation import require, require_probability

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectionProtocol:
    """Parameters of one train/test evaluation run over a feature set.

    Attributes
    ----------
    features:
        The monitored features, in evaluation order.  A single
        :class:`Feature` or any iterable of features is accepted and
        normalised to a tuple.
    fusion:
        The :class:`~repro.core.fusion.FusionRule` combining the per-feature
        alert indicators of each bin into the fused alarm.  The default
        (``any``) makes a one-feature protocol exactly the legacy
        single-feature evaluation.
    train_week, test_week:
        0-based week indices for learning and applying thresholds.
    utility_weight:
        The ``w`` used when condensing (FP, FN) into a utility.
    grouping_statistic_percentile:
        Percentile of the training distribution used as the grouping
        statistic for partial-diversity policies.
    train_on_active_bins:
        When True (the default, matching a Bro-style pipeline where a bin
        with no connections simply has no log entries), each host's training
        distribution is built from its *non-zero* bins only.  Mostly-idle
        laptops therefore learn thresholds from their active periods, which
        makes their personal thresholds conservative relative to a full week
        that includes idle time — one of the reasons measured test-week
        false-positive rates sit below the nominal 1% target.  Test-week
        rates are always measured over every bin.
    """

    features: Tuple[Feature, ...]
    fusion: FusionRule = field(default_factory=FusionRule)
    train_week: int = 0
    test_week: int = 1
    utility_weight: float = DEFAULT_UTILITY_WEIGHT
    grouping_statistic_percentile: float = DEFAULT_PERCENTILE
    train_on_active_bins: bool = True

    def __post_init__(self) -> None:
        features = self.features
        if isinstance(features, Feature):
            features = (features,)
        features = tuple(features)
        object.__setattr__(self, "features", features)
        require(len(features) > 0, "protocol must monitor at least one feature")
        require(all(isinstance(f, Feature) for f in features), "features must be Feature members")
        require(len(set(features)) == len(features), "features must be distinct")
        require(isinstance(self.fusion, FusionRule), "fusion must be a FusionRule")
        require(self.train_week >= 0, "train_week must be non-negative")
        require(self.test_week >= 0, "test_week must be non-negative")
        require(self.train_week != self.test_week, "train and test weeks must differ")
        require_probability(self.utility_weight, "utility_weight")

    @property
    def num_features(self) -> int:
        """Number of monitored features."""
        return len(self.features)

    @property
    def primary_feature(self) -> Feature:
        """The first monitored feature (the attack's default target)."""
        return self.features[0]

    @property
    def feature(self) -> Feature:
        """Single-feature convenience accessor (legacy call sites)."""
        require(
            len(self.features) == 1,
            "protocol.feature is only defined for single-feature protocols; use .features",
        )
        return self.features[0]


def weekly_train_test_pairs(num_weeks: int, overlapping: bool = False) -> List[Tuple[int, int]]:
    """The paper's weekly pairing: (week 0 trains week 1), (week 2 trains week 3), ...

    With ``overlapping`` True a rolling scheme is returned instead
    ((0,1), (1,2), (2,3), ...), useful for threshold-stability studies.
    """
    require(num_weeks >= 2, "at least two weeks are required")
    if overlapping:
        return [(week, week + 1) for week in range(num_weeks - 1)]
    return [(week, week + 1) for week in range(0, num_weeks - 1, 2)]


@dataclass(frozen=True)
class HostPerformance:
    """One host's measured performance under a policy on the test week.

    The per-feature view carries one operating point per monitored feature;
    the fused view applies the protocol's fusion rule to each bin's
    per-feature alert indicators and measures (FP, FN) on the fused alarms.
    For a single-feature protocol the two views coincide exactly.

    Attributes
    ----------
    host_id:
        The evaluated host.
    thresholds:
        The per-feature thresholds the policy assigned to this host.
    feature_operating_points:
        Measured per-feature (FP, FN) on the test week.
    feature_false_alarm_counts:
        Benign test bins raising a per-feature alert, per feature.
    feature_alarm_raised:
        Per-feature detection indicator: True when at least one bin attacked
        *in that feature* exceeded its threshold, False when attacked but
        never detected, None when that feature carried no attack traffic.
    operating_point:
        Fused (FP, FN) on the test week.
    false_alarm_count:
        Number of benign test bins raising the *fused* alarm (Table 3's raw
        ingredient).
    alarm_raised:
        True when at least one attacked bin raised the fused alarm
        (Figure 4(a)'s per-host indicator); False when an attack was present
        but never detected; None when no attack was overlaid.
    """

    host_id: int
    thresholds: Mapping[Feature, float]
    feature_operating_points: Mapping[Feature, OperatingPoint]
    feature_false_alarm_counts: Mapping[Feature, int]
    operating_point: OperatingPoint
    false_alarm_count: int
    alarm_raised: Optional[bool] = None
    feature_alarm_raised: Mapping[Feature, Optional[bool]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(len(self.thresholds) > 0, "performance must cover at least one feature")
        require(
            set(self.thresholds) == set(self.feature_operating_points),
            "thresholds and per-feature operating points must cover the same features",
        )

    @property
    def features(self) -> Tuple[Feature, ...]:
        """Monitored features."""
        return tuple(self.thresholds)

    @property
    def threshold(self) -> float:
        """Single-feature convenience: the only threshold in force."""
        require(
            len(self.thresholds) == 1,
            "performance.threshold is only defined for single-feature protocols; use .thresholds",
        )
        return float(next(iter(self.thresholds.values())))

    def threshold_of(self, feature: Feature) -> float:
        """Threshold in force for ``feature``."""
        return float(self.thresholds[feature])

    def feature_point(self, feature: Feature) -> OperatingPoint:
        """Per-feature operating point for ``feature``."""
        return self.feature_operating_points[feature]

    @property
    def false_positive_rate(self) -> float:
        """Fused benign-bin alarm rate."""
        return self.operating_point.false_positive_rate

    @property
    def false_negative_rate(self) -> float:
        """Fused missed-detection rate on attacked bins."""
        return self.operating_point.false_negative_rate

    @property
    def detection_rate(self) -> float:
        """``1 - FN`` of the fused alarm."""
        return self.operating_point.detection_rate

    def utility(self, weight: float = DEFAULT_UTILITY_WEIGHT) -> float:
        """Per-host utility of the fused alarm at ``weight``."""
        return self.operating_point.utility(weight)


@dataclass(frozen=True)
class DetectorColumns:
    """One detector's test-week outcome for every measured host, as arrays.

    The detector is one feature's threshold test or the fused alarm; entry
    ``i`` of every array belongs to the ``i``-th measured host.

    Attributes
    ----------
    false_alarm_counts:
        Benign test bins raising the alarm.
    false_negative_rates:
        Fraction of attacked bins the alarm missed; 0.0 where the host was
        not attacked.
    attacked:
        True where at least one test bin carried attack traffic.
    num_bins:
        Test-week bins per host (the false-positive denominator).
    """

    false_alarm_counts: np.ndarray
    false_negative_rates: np.ndarray
    attacked: np.ndarray
    num_bins: int

    @property
    def false_positive_rates(self) -> np.ndarray:
        """Benign-bin alarm rates."""
        return self.false_alarm_counts / self.num_bins

    def alarm_raised(self, row: int) -> Optional[bool]:
        """Whether host ``row``'s alarm fired on an attacked bin (None when not attacked)."""
        if not self.attacked[row]:
            return None
        return bool(self.false_negative_rates[row] < 1.0)

    def fraction_raising_alarm(self) -> float:
        """Fraction of attacked hosts whose alarm fired on at least one attacked bin."""
        fired = self.false_negative_rates[self.attacked] < 1.0
        if fired.size == 0:
            return 0.0
        return float(np.mean(fired.astype(float)))


def _detector_columns(
    false_alarm_counts: np.ndarray, missed: np.ndarray, attacked_bins: np.ndarray, num_bins: int
) -> DetectorColumns:
    attacked = attacked_bins > 0
    false_negative_rates = np.zeros(attacked.shape)
    np.divide(missed, attacked_bins, out=false_negative_rates, where=attacked)
    return DetectorColumns(false_alarm_counts, false_negative_rates, attacked, num_bins)


class HostPerformances(Mapping[int, HostPerformance]):
    """Every measured host's :class:`HostPerformance`, stored as per-host arrays.

    The arrays are the per-feature thresholds, each feature's detector
    columns (:meth:`feature`) and the fused alarm's (:attr:`fused`);
    population aggregates read the columns directly.  Looking a host up
    builds its :class:`HostPerformance` on first access and caches it, so
    only the hosts a caller asks for ever get per-host objects.
    """

    def __init__(
        self,
        host_ids: Sequence[int],
        thresholds: Mapping[Feature, np.ndarray],
        per_feature: Mapping[Feature, DetectorColumns],
        fused: DetectorColumns,
    ) -> None:
        self._host_ids = tuple(host_ids)
        self._rows = {host_id: row for row, host_id in enumerate(self._host_ids)}
        self._thresholds = dict(thresholds)
        self._per_feature = dict(per_feature)
        self._fused = fused
        self._built: Dict[int, HostPerformance] = {}

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Measured hosts, in array order."""
        return self._host_ids

    @property
    def features(self) -> Tuple[Feature, ...]:
        """Monitored features."""
        return tuple(self._per_feature)

    @property
    def fused(self) -> DetectorColumns:
        """The fused alarm's columns (a single feature's own for one feature)."""
        return self._fused

    def feature(self, feature: Feature) -> DetectorColumns:
        """The columns of ``feature``'s detector."""
        return self._per_feature[feature]

    def __getitem__(self, host_id: int) -> HostPerformance:
        performance = self._built.get(host_id)
        if performance is None:
            performance = self._build(host_id, self._rows[host_id])
            self._built[host_id] = performance
        return performance

    def __iter__(self) -> Iterator[int]:
        return iter(self._host_ids)

    def __len__(self) -> int:
        return len(self._host_ids)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._rows

    def _build(self, host_id: int, row: int) -> HostPerformance:
        def point(columns: DetectorColumns) -> OperatingPoint:
            return OperatingPoint(
                false_positive_rate=int(columns.false_alarm_counts[row]) / columns.num_bins,
                false_negative_rate=float(columns.false_negative_rates[row]),
            )

        features = self.features
        return HostPerformance(
            host_id=host_id,
            thresholds={f: float(self._thresholds[f][row]) for f in features},
            feature_operating_points={f: point(self._per_feature[f]) for f in features},
            feature_false_alarm_counts={
                f: int(self._per_feature[f].false_alarm_counts[row]) for f in features
            },
            operating_point=point(self._fused),
            false_alarm_count=int(self._fused.false_alarm_counts[row]),
            alarm_raised=self._fused.alarm_raised(row),
            feature_alarm_raised={f: self._per_feature[f].alarm_raised(row) for f in features},
        )


@dataclass(frozen=True)
class PolicyEvaluation:
    """Population-wide outcome of evaluating one policy on one feature set.

    The aggregates read :attr:`performances`' arrays; none of them builds a
    per-host :class:`HostPerformance`.
    """

    policy_name: str
    protocol: DetectionProtocol
    assignment: DetectionAssignment
    performances: HostPerformances

    def __post_init__(self) -> None:
        require(len(self.performances) > 0, "evaluation must cover at least one host")

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Evaluated hosts, sorted."""
        return tuple(sorted(self.performances))

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The evaluated feature set."""
        return self.protocol.features

    @property
    def optimization(self):
        """Optimizer provenance of the threshold selection (None when heuristic-only).

        An :class:`~repro.optimize.OptimizationReport` carrying the optimizer
        name, the achieved fused-objective value and the convergence
        iteration count.
        """
        return self.assignment.optimization

    def _per_host(self, values: np.ndarray) -> Dict[int, float]:
        return dict(zip(self.performances.host_ids, values.tolist(), strict=True))

    def utility_array(self, weight: Optional[float] = None) -> np.ndarray:
        """Fused utilities at ``weight`` (defaults to the protocol's), in host order."""
        w = weight if weight is not None else self.protocol.utility_weight
        fused = self.performances.fused
        return utility_array(fused.false_positive_rates, fused.false_negative_rates, w)

    def utilities(self, weight: Optional[float] = None) -> Dict[int, float]:
        """Per-host fused utilities at ``weight`` (defaults to the protocol's weight)."""
        return self._per_host(self.utility_array(weight))

    def mean_utility(self, weight: Optional[float] = None) -> float:
        """Average fused utility across the population (Figure 3(b)'s y-axis)."""
        return float(np.mean(self.utility_array(weight)))

    def utility_summary(self, weight: Optional[float] = None) -> SummaryStatistics:
        """Boxplot-style summary of per-host utilities (Figure 3(a))."""
        return summarize(self.utility_array(weight))

    def false_positive_rates(self) -> Dict[int, float]:
        """Per-host fused false-positive rates."""
        return self._per_host(self.performances.fused.false_positive_rates)

    def detection_rates(self) -> Dict[int, float]:
        """Per-host fused detection rates (1 - FN)."""
        return self._per_host(1.0 - self.performances.fused.false_negative_rates)

    def feature_operating_points(self, feature: Feature) -> Dict[int, OperatingPoint]:
        """Per-host operating points of one feature's detector."""
        columns = self.performances.feature(feature)
        return {
            host_id: OperatingPoint(false_positive_rate=fp, false_negative_rate=fn)
            for host_id, fp, fn in zip(
                self.performances.host_ids,
                columns.false_positive_rates.tolist(),
                columns.false_negative_rates.tolist(),
                strict=True,
            )
        }

    def total_false_alarms(self) -> int:
        """Total fused benign alarms across the population on the test week."""
        return int(np.sum(self.performances.fused.false_alarm_counts))

    def false_alarms_per_week(self) -> float:
        """Total false alarms over the test window, which is one week long."""
        return float(self.total_false_alarms())

    def fraction_raising_alarm(self) -> float:
        """Fraction of hosts whose fused alarm fired on at least one attacked bin.

        Only meaningful when an attack was overlaid; hosts with no attack are
        excluded from the denominator.
        """
        return self.performances.fused.fraction_raising_alarm()


def training_distributions(
    matrices: Mapping[int, FeatureMatrix],
    feature: Feature,
    week: int,
    active_bins_only: bool = True,
) -> DistributionBlock:
    """Per-host empirical distributions of ``feature`` over training ``week``.

    With ``active_bins_only`` (the default) zero-count bins are excluded from
    the training distribution, matching a connection-log-driven pipeline; a
    host with no active bins at all falls back to its full (all-zero) series
    so that a threshold can still be computed.

    The result is one row-sorted ``(hosts, bins)``
    :class:`~repro.stats.empirical.DistributionBlock`; looking a host up
    returns its :class:`~repro.stats.empirical.EmpiricalDistribution`.  Only
    the requested feature's series is sliced — a single-feature protocol
    never pays for slicing the five features it does not train on.
    """
    return _training_block(
        matrices, feature, lambda series: series.week(week), active_bins_only
    )


def _training_block(
    matrices: Mapping[int, FeatureMatrix],
    feature: Feature,
    window: Callable[[TimeSeries], TimeSeries],
    active_bins_only: bool,
) -> DistributionBlock:
    series = [window(matrix.series(feature)) for matrix in matrices.values()]
    # Tag the measurement bin width so grouping never silently pools
    # per-bin counts observed over incompatible windows.
    return DistributionBlock.from_samples(
        list(matrices),
        [window_series.values for window_series in series],
        [window_series.bin_width for window_series in series],
        active_only=active_bins_only,
    )


def detection_training_distributions(
    matrices: Mapping[int, FeatureMatrix],
    features: Iterable[Feature],
    week: int,
    active_bins_only: bool = True,
) -> Dict[Feature, DistributionBlock]:
    """:func:`training_distributions` for every feature of a protocol (the train stage)."""
    with trace_span("core.train"):
        return {
            feature: training_distributions(matrices, feature, week, active_bins_only)
            for feature in features
        }


def detection_training_window_distributions(
    matrices: Mapping[int, FeatureMatrix],
    features: Iterable[Feature],
    start_week: int,
    end_week: int,
    active_bins_only: bool = True,
) -> Dict[Feature, DistributionBlock]:
    """Training distributions pooled over the contiguous weeks ``[start, end)``.

    The rolling-training-window form of
    :func:`detection_training_distributions`: re-optimisation schedules train
    on the last ``k`` completed weeks rather than a single fixed one.  A
    one-week window is bit-identical to the single-week helper (the slice is
    the same bins).  Out-of-range windows raise :class:`ValueError` via
    :meth:`~repro.features.timeseries.TimeSeries.week_range`.
    """
    with trace_span("core.train"):
        return {
            feature: _training_block(
                matrices,
                feature,
                lambda series: series.week_range(start_week, end_week),
                active_bins_only,
            )
            for feature in features
        }


def train_protocol(
    matrices: Mapping[int, FeatureMatrix], protocol: DetectionProtocol
) -> Dict[Feature, DistributionBlock]:
    """Train stage of ``protocol``: its features' distributions over its training week.

    Training does not depend on the policy or the attack, so an experiment
    comparing several policies calls this once and hands the result to
    every :func:`assign_policy`.
    """
    return detection_training_distributions(
        matrices,
        protocol.features,
        protocol.train_week,
        active_bins_only=protocol.train_on_active_bins,
    )


def assign_policy(
    policy: ConfigurationPolicy,
    training: Mapping[Feature, Mapping[int, EmpiricalDistribution]],
    protocol: DetectionProtocol,
) -> DetectionAssignment:
    """Assign stage: ``policy``'s per-host thresholds from ``training`` under ``protocol``.

    The assignment does not depend on the attack, so it is measured against
    any number of attacks with :func:`measure_policy`.
    """
    return policy.assign(
        training,
        grouping_statistic_percentile=protocol.grouping_statistic_percentile,
        fusion=protocol.fusion,
    )


def measure_policy(
    matrices: Mapping[int, FeatureMatrix],
    assignment: DetectionAssignment,
    protocol: DetectionProtocol,
    attack_builder: Optional[BatchAttackFn] = None,
) -> PolicyEvaluation:
    """Measure stage: :func:`measure_assignment` packaged as a :class:`PolicyEvaluation`."""
    return PolicyEvaluation(
        policy_name=assignment.policy_name,
        protocol=protocol,
        assignment=assignment,
        performances=measure_assignment(
            matrices, assignment, protocol, attack_builder=attack_builder
        ),
    )


def evaluate_policy(
    matrices: Mapping[int, FeatureMatrix],
    policy: ConfigurationPolicy,
    protocol: DetectionProtocol,
    attack_builder: Optional[BatchAttackFn] = None,
) -> PolicyEvaluation:
    """Run the full train/test evaluation of ``policy`` over a feature set.

    This is :func:`train_protocol`, :func:`assign_policy` and
    :func:`measure_policy` in sequence.  Callers comparing several policies
    or attacks on one protocol call those stages directly instead, so the
    training and each assignment are computed once.

    Parameters
    ----------
    matrices:
        Per-host benign feature matrices covering at least
        ``max(train_week, test_week) + 1`` weeks.
    policy:
        The configuration policy under evaluation; its thresholds are
        computed per feature from the same training week.
    protocol:
        Train/test weeks, the feature set, the fusion rule and the utility
        weight.
    attack_builder:
        Optional :data:`~repro.attacks.base.BatchAttackFn` returning the
        attack amounts to overlay on every host's *test* week; its
        :class:`~repro.attacks.base.VictimBatch` carries the thresholds in
        force (which is how the mimicry attacker learns what to stay
        under).  When None, only false positives are measured and the
        false-negative rate is reported as 0.
    """
    require(len(matrices) > 0, "matrices must cover at least one host")

    with trace_span("core.evaluate", policy=policy.name, num_hosts=len(matrices)):
        assignment = assign_policy(policy, train_protocol(matrices, protocol), protocol)
        evaluation = measure_policy(matrices, assignment, protocol, attack_builder)
        logger.debug(
            "evaluated policy %s over %d host(s), %d feature(s)",
            policy.name,
            len(matrices),
            protocol.num_features,
        )
    return evaluation


def measure_assignment(
    matrices: Mapping[int, FeatureMatrix],
    assignment,
    protocol: DetectionProtocol,
    attack_builder: Optional[BatchAttackFn] = None,
    test_week: Optional[int] = None,
    attack_assignment=None,
) -> HostPerformances:
    """Measure an already computed threshold assignment on one test week.

    This is the measurement half of :func:`evaluate_policy` (which is
    ``assign`` + ``measure``): given the per-feature
    :class:`~repro.core.policies.DetectionAssignment` in force, score every
    host's per-feature and fused (FP, FN) on ``test_week`` (defaults to the
    protocol's).  The timeline evaluator (:mod:`repro.temporal`) calls it
    once per deployed week, so a W-week timeline pays for training and
    threshold selection only when the schedule actually retrains — not once
    per week.

    ``attack_assignment`` optionally names a *different* assignment whose
    thresholds are handed to the attack (as ``VictimBatch.thresholds``): a
    mimicry attacker that profiled the deployment once keeps evading those
    stale thresholds even after the defender retrains (the
    schedule-tracking attacker passes the in-force assignment instead).
    ``None`` hands the attack the measuring assignment's thresholds,
    exactly as the one-shot evaluation does.

    Every host must share one bin grid; a mixed grid raises
    :class:`~repro.utils.validation.ValidationError` naming the first host
    that differs.
    """
    require(len(matrices) > 0, "matrices must cover at least one host")
    require_shared_bin_grid(matrices)
    week = protocol.test_week if test_week is None else int(test_week)
    require(week >= 0, "test_week must be non-negative")

    with trace_span("core.measure", num_hosts=len(matrices), test_week=week):
        add_count("core.host_weeks_measured", len(matrices))
        return _measure_week(
            matrices,
            assignment,
            protocol.features,
            protocol.fusion,
            attack_builder,
            week,
            attack_assignment,
        )


def _threshold_vector(assignment, feature: Feature, host_ids: Sequence[int]) -> np.ndarray:
    """Per-host thresholds of ``feature`` as a ``(num_hosts,)`` vector."""
    per_feature = assignment.for_feature(feature)
    return np.array([per_feature.threshold_of(host_id) for host_id in host_ids], dtype=float)


def _attack_amounts(
    attack: BatchAttackFn,
    host_ids: Sequence[int],
    matrices: Mapping[int, FeatureMatrix],
    features: Tuple[Feature, ...],
    bin_spec,
    first: int,
    last: int,
    values: Dict[Feature, np.ndarray],
    attack_thresholds: Mapping[Feature, np.ndarray],
) -> Dict[Feature, np.ndarray]:
    """Per-feature ``(num_hosts, num_bins)`` amounts ``attack`` injects.

    Features the protocol does not monitor are dropped; an all-zero row
    means that host is not attacked in that feature.
    """
    num_bins = last - first

    def provider(feature: Feature) -> np.ndarray:
        if feature in values:
            return values[feature]
        return np.stack(
            [
                np.asarray(matrices[host_id].series(feature).values)[first:last]
                for host_id in host_ids
            ]
        )

    batch = VictimBatch(
        host_ids=host_ids,
        bin_spec=bin_spec,
        num_bins=num_bins,
        thresholds=attack_thresholds,
        values_provider=provider,
    )
    result = attack(batch)
    require(
        isinstance(result, Mapping),
        "an attack must return a mapping of feature -> (num_hosts, num_bins) amounts",
    )
    amounts: Dict[Feature, np.ndarray] = {}
    for feature, rows in result.items():
        if feature not in features:
            continue
        rows = np.asarray(rows, dtype=float)
        require(
            rows.shape == (len(host_ids), num_bins),
            "batch attack amounts must be (num_hosts, num_bins)",
        )
        amounts[feature] = rows
    return amounts


def _measure_week(
    matrices: Mapping[int, FeatureMatrix],
    assignment,
    features: Tuple[Feature, ...],
    fusion: FusionRule,
    attack: Optional[BatchAttackFn],
    week: int,
    attack_assignment,
) -> HostPerformances:
    """Score one test week over the shared bin grid.

    Every per-host quantity is computed as an array operation over
    ``(num_hosts, num_bins)`` stacks; row ``i`` holds host ``i``'s counts,
    so the per-host floats are the same scalar operations, just batched.
    The result keeps them as arrays; no per-host object is built here.
    """
    host_ids = list(matrices)
    reference = matrices[host_ids[0]].series(features[0])
    # The grid is shared, so one host's bounds (and range check) cover them all.
    bins = week_bins(reference.bin_spec, reference.num_bins, week, week + 1)
    first, last = bins.start, bins.stop
    num_bins = last - first
    bin_spec = reference.bin_spec

    values: Dict[Feature, np.ndarray] = {
        feature: np.stack(
            [np.asarray(matrices[host_id].series(feature).values)[first:last] for host_id in host_ids]
        )
        for feature in features
    }
    thresholds: Dict[Feature, np.ndarray] = {
        feature: _threshold_vector(assignment, feature, host_ids) for feature in features
    }
    exceed: Dict[Feature, np.ndarray] = {
        feature: values[feature] > thresholds[feature][:, None] for feature in features
    }
    counts: Dict[Feature, np.ndarray] = {
        feature: np.count_nonzero(exceed[feature], axis=1) for feature in features
    }

    amounts: Dict[Feature, np.ndarray] = {}
    if attack is not None:
        if attack_assignment is None:
            attack_thresholds = thresholds
        else:
            attack_thresholds = {
                feature: _threshold_vector(attack_assignment, feature, host_ids)
                for feature in features
            }
        amounts = _attack_amounts(
            attack,
            host_ids,
            matrices,
            features,
            bin_spec,
            first,
            last,
            values,
            attack_thresholds,
        )

    per_feature: Dict[Feature, DetectorColumns] = {}
    unattacked = np.zeros(len(host_ids), dtype=np.int64)
    for feature in features:
        rows = amounts.get(feature)
        if rows is None:
            per_feature[feature] = _detector_columns(
                counts[feature], unattacked, unattacked, num_bins
            )
            continue
        attacked = rows > 0
        missed = np.count_nonzero(
            ((values[feature] + rows) <= thresholds[feature][:, None]) & attacked, axis=1
        )
        per_feature[feature] = _detector_columns(
            counts[feature], missed, np.count_nonzero(attacked, axis=1), num_bins
        )

    if len(features) == 1:
        fused = per_feature[features[0]]
    else:
        votes = np.zeros((len(host_ids), num_bins), dtype=np.int64)
        for feature in features:
            votes += exceed[feature]
        required = fusion.required_votes(len(features))
        fused_counts = np.count_nonzero(votes >= required, axis=1)
        fused_missed = fused_attacked_bins = unattacked
        if amounts:
            union = np.zeros((len(host_ids), num_bins), dtype=bool)
            for rows in amounts.values():
                union |= rows > 0
            fused_attacked_bins = np.count_nonzero(union, axis=1)
            attack_votes = np.zeros((len(host_ids), num_bins), dtype=np.int64)
            for feature in features:
                observed = (
                    values[feature] + amounts[feature]
                    if feature in amounts
                    else values[feature]
                )
                attack_votes += observed > thresholds[feature][:, None]
            fused_missed = np.count_nonzero((attack_votes < required) & union, axis=1)
        fused = _detector_columns(fused_counts, fused_missed, fused_attacked_bins, num_bins)
    return HostPerformances(host_ids, thresholds, per_feature, fused)
