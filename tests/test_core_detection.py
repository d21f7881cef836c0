"""Tests for the evaluation harness: protocols, training and per-host measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import (
    DetectionProtocol,
    evaluate_policy,
    measure_assignment,
    training_distributions,
    weekly_train_test_pairs,
)
from repro.core.fusion import FusionRule
from repro.core.policies import FullDiversityPolicy, HomogeneousPolicy, PartialDiversityPolicy
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.utils.timeutils import BinSpec, MINUTE
from repro.utils.validation import ValidationError

#: 15-minute bins per week.
BINS_PER_WEEK = 672


def _series(values):
    return TimeSeries(values, BinSpec(width=15 * MINUTE))


def _matrix(values, host_id=1, feature=Feature.TCP_CONNECTIONS):
    return FeatureMatrix(host_id=host_id, series={feature: _series(values)})


def _two_week_matrix(host_id, test_week_values):
    """A host whose training week is idle and whose test week starts with
    ``test_week_values`` per feature (the rest of the week at 5)."""
    series = {}
    for feature, head in test_week_values.items():
        week = np.full(BINS_PER_WEEK, 5.0)
        week[: len(head)] = head
        series[feature] = _series(np.concatenate([np.zeros(BINS_PER_WEEK), week]))
    return FeatureMatrix(host_id=host_id, series=series)


class _FixedThresholds:
    """An assignment giving every feature of a host the same threshold."""

    def __init__(self, thresholds):
        self._thresholds = thresholds

    def for_feature(self, feature):
        return self

    def threshold_of(self, host_id):
        return self._thresholds[host_id]


class TestEvaluation:
    def test_weekly_pairs(self):
        assert weekly_train_test_pairs(5) == [(0, 1), (2, 3)]
        assert weekly_train_test_pairs(4, overlapping=True) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValidationError):
            weekly_train_test_pairs(1)

    def test_protocol_validation(self):
        with pytest.raises(ValidationError):
            DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=1, test_week=1)

    def test_training_distributions_active_bins(self):
        matrices = {1: _matrix([0.0] * 671 + [100.0] * 673)}
        active = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0, active_bins_only=True)
        full = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0, active_bins_only=False)
        assert active[1].min() > 0
        assert full[1].min() == 0.0

    def test_policy_evaluation_end_to_end(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=0, test_week=1)
        evaluation = evaluate_policy(matrices, FullDiversityPolicy(), protocol)
        assert len(evaluation.performances) == len(matrices)
        assert 0.0 <= evaluation.mean_utility() <= 1.0
        # Without an attack, false negatives are zero for everyone.
        assert all(p.false_negative_rate == 0.0 for p in evaluation.performances.values())
        assert evaluation.total_false_alarms() >= 0

    def test_policy_evaluation_with_attack(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=0, test_week=1)
        attack_builder = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0).host_builder()
        diversity = evaluate_policy(
            matrices, FullDiversityPolicy(), protocol, attack_builder=attack_builder
        )
        homogeneous = evaluate_policy(
            matrices, HomogeneousPolicy(), protocol, attack_builder=attack_builder
        )
        # Diversity detects the moderate attack on more hosts than the monoculture.
        assert diversity.fraction_raising_alarm() >= homogeneous.fraction_raising_alarm()
        assert 0.0 <= diversity.fraction_raising_alarm() <= 1.0

    def test_partial_diversity_threshold_count(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
        evaluation = evaluate_policy(matrices, PartialDiversityPolicy(), protocol)
        assert evaluation.assignment.for_feature(Feature.TCP_CONNECTIONS).grouping.num_groups == 8
        assert evaluation.assignment.grouping.num_groups == 8  # single-feature convenience

    def test_utilities_respond_to_weight(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
        attack_builder = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=5.0).host_builder()
        evaluation = evaluate_policy(
            matrices, HomogeneousPolicy(), protocol, attack_builder=attack_builder
        )
        # A tiny attack is mostly missed under the global threshold, so utility
        # must fall as the false-negative weight rises.
        assert evaluation.mean_utility(0.9) < evaluation.mean_utility(0.1)

    def test_measurement_compares_each_bin_with_the_hosts_threshold(self):
        tcp = Feature.TCP_CONNECTIONS
        matrices = {
            1: _two_week_matrix(1, {tcp: [5, 5, 5, 20]}),
            2: _two_week_matrix(2, {tcp: [5, 5, 5, 20]}),
        }

        def attack(batch):
            # Host 1 only: bin 0 stays at 5 + 4 <= 10 (missed), bin 2
            # reaches 5 + 10 > 10 (detected).
            rows = np.zeros((batch.num_hosts, batch.num_bins))
            rows[batch.host_ids.index(1), [0, 2]] = [4.0, 10.0]
            return {tcp: rows}

        performances = measure_assignment(
            matrices,
            _FixedThresholds({1: 10.0, 2: 30.0}),
            DetectionProtocol(features=(tcp,)),
            attack_builder=attack,
        )
        first, second = performances[1], performances[2]
        assert first.false_alarm_count == 1
        assert first.false_positive_rate == 1 / BINS_PER_WEEK
        assert first.false_negative_rate == 0.5
        assert first.alarm_raised is True
        # Host 2's threshold sits above its benign peak and it is not attacked.
        assert second.false_alarm_count == 0
        assert second.false_negative_rate == 0.0
        assert second.alarm_raised is None

    @pytest.mark.parametrize(
        "rule, fused_bins",
        [(FusionRule.k_of_n(2), 1), (FusionRule.any_(), 3), (FusionRule.all_(), 1)],
    )
    def test_fused_alarm_counts_votes_per_bin(self, rule, fused_bins):
        # TCP exceeds its threshold in bins 1, 2; UDP in bins 2, 3.
        tcp, udp = Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS
        matrices = {1: _two_week_matrix(1, {tcp: [5, 50, 50, 5], udp: [1, 1, 20, 20]})}
        protocol = DetectionProtocol(features=(tcp, udp), fusion=rule)
        performances = measure_assignment(matrices, _FixedThresholds({1: 10.0}), protocol)
        assert performances[1].feature_false_alarm_counts == {tcp: 2, udp: 2}
        assert performances[1].false_alarm_count == fused_bins


def _two_host_tcp_matrices():
    tcp = Feature.TCP_CONNECTIONS
    return {
        1: _two_week_matrix(1, {tcp: [5, 12, 5, 30]}),
        2: _two_week_matrix(2, {tcp: [5, 5, 40, 5]}),
    }


def _tcp_protocol(**kwargs):
    return DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), **kwargs)


def _attack_on(host_id, bins, amount, feature=Feature.TCP_CONNECTIONS):
    """An attack injecting ``amount`` into ``bins`` of ``host_id``'s test week only."""

    def attack(batch):
        rows = np.zeros((batch.num_hosts, batch.num_bins))
        rows[batch.host_ids.index(host_id), list(bins)] = amount
        return {feature: rows}

    return attack


class TestPerBinDetection:
    """The per-bin detection rule, checked through ``measure_assignment``."""

    def test_bin_exactly_at_threshold_raises_no_alarm(self):
        tcp = Feature.TCP_CONNECTIONS
        matrices = {1: _two_week_matrix(1, {tcp: [10, 10.0001, 9.9999]})}
        performances = measure_assignment(matrices, _FixedThresholds({1: 10.0}), _tcp_protocol())
        assert performances[1].false_alarm_count == 1

    def test_false_positive_rate_is_over_every_test_week_bin(self):
        performances = measure_assignment(
            _two_host_tcp_matrices(), _FixedThresholds({1: 10.0, 2: 10.0}), _tcp_protocol()
        )
        assert performances[1].false_alarm_count == 2
        assert performances[1].false_positive_rate == 2 / BINS_PER_WEEK
        assert performances[2].false_alarm_count == 1
        assert performances[2].false_positive_rate == 1 / BINS_PER_WEEK

    def test_without_an_attack_false_negatives_are_zero(self):
        performances = measure_assignment(
            _two_host_tcp_matrices(), _FixedThresholds({1: 10.0, 2: 10.0}), _tcp_protocol()
        )
        for performance in performances.values():
            assert performance.false_negative_rate == 0.0
            assert performance.alarm_raised is None
            assert performance.feature_alarm_raised == {Feature.TCP_CONNECTIONS: None}

    def test_all_zero_attack_rows_count_as_not_attacked(self):
        performances = measure_assignment(
            _two_host_tcp_matrices(),
            _FixedThresholds({1: 10.0, 2: 10.0}),
            _tcp_protocol(),
            attack_builder=_attack_on(1, [0], 0.0),
        )
        assert performances[1].false_negative_rate == 0.0
        assert performances[1].alarm_raised is None

    def test_attack_missed_in_every_bin_reports_no_alarm(self):
        performances = measure_assignment(
            _two_host_tcp_matrices(),
            _FixedThresholds({1: 100.0, 2: 100.0}),
            _tcp_protocol(),
            attack_builder=_attack_on(2, [0, 1, 5], 20.0),
        )
        assert performances[2].false_negative_rate == 1.0
        assert performances[2].detection_rate == 0.0
        assert performances[2].alarm_raised is False
        assert performances[1].alarm_raised is None

    def test_attack_traffic_is_never_counted_as_a_false_alarm(self):
        matrices = _two_host_tcp_matrices()
        assignment = _FixedThresholds({1: 10.0, 2: 10.0})
        clean = measure_assignment(matrices, assignment, _tcp_protocol())
        attacked = measure_assignment(
            matrices, assignment, _tcp_protocol(), attack_builder=_attack_on(1, [0, 2], 50.0)
        )
        assert attacked[1].false_alarm_count == clean[1].false_alarm_count
        assert attacked[1].false_negative_rate == 0.0
        assert attacked[1].alarm_raised is True

    def test_lower_threshold_raises_more_alarms(self):
        matrices = _two_host_tcp_matrices()
        high = measure_assignment(matrices, _FixedThresholds({1: 20.0, 2: 20.0}), _tcp_protocol())
        low = measure_assignment(matrices, _FixedThresholds({1: 3.0, 2: 3.0}), _tcp_protocol())
        assert high[1].false_alarm_count == 1
        # Every bin of the test week is at least 5 > 3.
        assert low[1].false_alarm_count == BINS_PER_WEEK
        assert low[1].threshold == 3.0

    def test_attack_amounts_of_the_wrong_shape_rejected(self):
        def attack(batch):
            return {Feature.TCP_CONNECTIONS: np.zeros((batch.num_hosts, batch.num_bins - 1))}

        with pytest.raises(ValidationError, match="num_hosts, num_bins"):
            measure_assignment(
                _two_host_tcp_matrices(),
                _FixedThresholds({1: 10.0, 2: 10.0}),
                _tcp_protocol(),
                attack_builder=attack,
            )

    def test_attack_must_return_a_mapping(self):
        with pytest.raises(ValidationError, match="must return a mapping"):
            measure_assignment(
                _two_host_tcp_matrices(),
                _FixedThresholds({1: 10.0, 2: 10.0}),
                _tcp_protocol(),
                attack_builder=lambda batch: None,
            )

    def test_attack_on_an_unmonitored_feature_is_ignored(self):
        performances = measure_assignment(
            _two_host_tcp_matrices(),
            _FixedThresholds({1: 10.0, 2: 10.0}),
            _tcp_protocol(),
            attack_builder=_attack_on(1, [0], 50.0, feature=Feature.UDP_CONNECTIONS),
        )
        assert performances[1].alarm_raised is None
        assert performances[1].false_negative_rate == 0.0

    def test_attack_sees_the_test_week_of_every_host_in_order(self):
        seen = {}

        def attack(batch):
            seen["host_ids"] = batch.host_ids
            seen["num_bins"] = batch.num_bins
            seen["bin_width"] = batch.bin_spec.width
            seen["values"] = batch.values(Feature.TCP_CONNECTIONS).copy()
            return {}

        matrices = _two_host_tcp_matrices()
        measure_assignment(
            matrices, _FixedThresholds({1: 10.0, 2: 10.0}), _tcp_protocol(), attack_builder=attack
        )
        assert seen["host_ids"] == (1, 2)
        assert seen["num_bins"] == BINS_PER_WEEK
        assert seen["bin_width"] == 15 * MINUTE
        expected = np.stack(
            [matrices[h].series(Feature.TCP_CONNECTIONS).week(1).values for h in (1, 2)]
        )
        np.testing.assert_array_equal(seen["values"], expected)

    def test_attack_can_read_an_unmonitored_features_test_week(self):
        tcp, udp = Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS
        matrices = {1: _two_week_matrix(1, {tcp: [5], udp: [7, 8, 9]})}
        seen = {}

        def attack(batch):
            seen["udp"] = batch.values(udp).copy()
            return {}

        measure_assignment(
            matrices, _FixedThresholds({1: 10.0}), _tcp_protocol(), attack_builder=attack
        )
        assert seen["udp"].shape == (1, BINS_PER_WEEK)
        np.testing.assert_array_equal(seen["udp"][0, :4], [7, 8, 9, 5])

    def test_attack_assignment_thresholds_reach_the_attack_only(self):
        seen = {}

        def attack(batch):
            seen["thresholds"] = batch.thresholds[Feature.TCP_CONNECTIONS].copy()
            return {}

        performances = measure_assignment(
            _two_host_tcp_matrices(),
            _FixedThresholds({1: 10.0, 2: 20.0}),
            _tcp_protocol(),
            attack_builder=attack,
            attack_assignment=_FixedThresholds({1: 99.0, 2: 98.0}),
        )
        np.testing.assert_array_equal(seen["thresholds"], [99.0, 98.0])
        assert performances[1].threshold == 10.0
        assert performances[2].threshold == 20.0

    def test_explicit_test_week_overrides_the_protocols(self):
        tcp = Feature.TCP_CONNECTIONS
        # Week 0 holds three bins above 10; week 1 holds one.
        week0 = np.zeros(BINS_PER_WEEK)
        week0[:3] = 50.0
        week1 = np.zeros(BINS_PER_WEEK)
        week1[0] = 50.0
        matrices = {1: FeatureMatrix(1, {tcp: _series(np.concatenate([week0, week1]))})}
        protocol = _tcp_protocol(train_week=1, test_week=0)
        assignment = _FixedThresholds({1: 10.0})
        assert measure_assignment(matrices, assignment, protocol)[1].false_alarm_count == 3
        assert (
            measure_assignment(matrices, assignment, protocol, test_week=1)[1].false_alarm_count
            == 1
        )

    def test_test_week_outside_the_series_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            measure_assignment(
                _two_host_tcp_matrices(),
                _FixedThresholds({1: 10.0, 2: 10.0}),
                _tcp_protocol(),
                test_week=2,
            )
        with pytest.raises(ValidationError, match="non-negative"):
            measure_assignment(
                _two_host_tcp_matrices(),
                _FixedThresholds({1: 10.0, 2: 10.0}),
                _tcp_protocol(),
                test_week=-1,
            )

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError, match="at least one host"):
            measure_assignment({}, _FixedThresholds({}), _tcp_protocol())

    def test_default_protocol_fusion_is_any(self):
        assert _tcp_protocol().fusion == FusionRule.any_()

    def test_single_feature_fused_view_equals_the_feature_view(self):
        performances = measure_assignment(
            _two_host_tcp_matrices(),
            _FixedThresholds({1: 10.0, 2: 10.0}),
            _tcp_protocol(),
            attack_builder=_attack_on(1, [0, 4], 3.0),
        )
        performance = performances[1]
        assert performance.operating_point == performance.feature_point(Feature.TCP_CONNECTIONS)
        assert performance.false_alarm_count == (
            performance.feature_false_alarm_counts[Feature.TCP_CONNECTIONS]
        )

    def test_fused_detection_needs_corroborating_votes(self):
        tcp, udp = Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS
        matrices = {1: _two_week_matrix(1, {tcp: [5, 5], udp: [1, 1]})}
        protocol = DetectionProtocol(features=(tcp, udp), fusion=FusionRule.k_of_n(2))
        assignment = _FixedThresholds({1: 10.0})

        def one_feature(batch):
            rows = np.zeros((batch.num_hosts, batch.num_bins))
            rows[0, 0] = 50.0
            return {tcp: rows}

        def both_features(batch):
            rows = np.zeros((batch.num_hosts, batch.num_bins))
            rows[0, 0] = 50.0
            return {tcp: rows, udp: rows.copy()}

        alone = measure_assignment(matrices, assignment, protocol, attack_builder=one_feature)[1]
        assert alone.feature_alarm_raised == {tcp: True, udp: None}
        assert alone.alarm_raised is False
        corroborated = measure_assignment(
            matrices, assignment, protocol, attack_builder=both_features
        )[1]
        assert corroborated.alarm_raised is True
        assert corroborated.false_negative_rate == 0.0

    def test_fused_false_negatives_are_over_the_union_of_attacked_bins(self):
        tcp, udp = Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS
        matrices = {1: _two_week_matrix(1, {tcp: [5, 5], udp: [1, 1]})}
        protocol = DetectionProtocol(features=(tcp, udp), fusion=FusionRule.any_())

        def attack(batch):
            detected = np.zeros((batch.num_hosts, batch.num_bins))
            detected[0, 0] = 50.0
            missed = np.zeros((batch.num_hosts, batch.num_bins))
            missed[0, 1] = 2.0
            return {tcp: detected, udp: missed}

        performance = measure_assignment(
            matrices, _FixedThresholds({1: 10.0}), protocol, attack_builder=attack
        )[1]
        assert performance.feature_point(tcp).false_negative_rate == 0.0
        assert performance.feature_point(udp).false_negative_rate == 1.0
        assert performance.false_negative_rate == 0.5
        assert performance.alarm_raised is True
