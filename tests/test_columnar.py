"""Tests for the columnar train → assign → measure path.

* A :class:`~repro.stats.empirical.DistributionBlock` computes every host's
  percentiles in one pass; they must equal ``np.percentile`` on each host's
  samples bit for bit, and the vectorised per-host thresholds and candidate
  grids must equal the one-distribution forms.
* Measurement returns per-host arrays; the population aggregates must not
  build a single per-host :class:`~repro.core.evaluation.HostPerformance`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import (
    DetectionProtocol,
    HostPerformance,
    evaluate_policy,
    training_distributions,
)
from repro.core.experiment import summarize_scenario
from repro.core.policies import FullDiversityPolicy, HomogeneousPolicy, PartialDiversityPolicy
from repro.core.sampling import SampleSpec
from repro.core.thresholds import (
    FMeasureHeuristic,
    MeanStdHeuristic,
    PercentileHeuristic,
    UtilityHeuristic,
    candidate_threshold_grid,
    candidate_threshold_grids,
)
from repro.features.definitions import Feature
from repro.stats.empirical import DistributionBlock, EmpiricalDistribution
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

GRID_PERCENTILES = 100.0 * np.minimum(np.linspace(0.5, 1.0, 200), 1.0)
QS = np.concatenate([[0.0, 50.0, 99.0, 99.9, 100.0], GRID_PERCENTILES])

# Mostly-idle hosts: many exact zeros, a few counts with decimals.
counts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=50).map(float),
)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def active_samples(row: np.ndarray) -> np.ndarray:
    """The training samples of one host: its active bins, or all when idle."""
    active = row[row > 0]
    return active if active.size else row


class TestBlockPercentilesMatchNumpy:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda bins: st.lists(
                st.lists(counts, min_size=bins, max_size=bins), min_size=1, max_size=12
            )
        )
    )
    def test_training_block_rows(self, rows):
        """Ragged active counts, all-zero rows and one-sample rows, one shared width."""
        rows = [np.asarray(row) for row in rows]
        block = DistributionBlock.from_samples(
            list(range(len(rows))), rows, [None] * len(rows), active_only=True
        )
        actual = block.percentiles(QS)
        for index, row in enumerate(rows):
            expected = np.percentile(active_samples(row), QS)
            np.testing.assert_array_equal(bits(actual[index]), bits(expected))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(counts, min_size=1, max_size=30), min_size=1, max_size=12))
    def test_stacked_distributions_of_different_lengths(self, rows):
        distributions = {index: EmpiricalDistribution(row) for index, row in enumerate(rows)}
        block = DistributionBlock.stack(distributions)
        actual = block.percentiles(QS)
        for index, row in enumerate(rows):
            expected = np.percentile(np.asarray(row), QS)
            np.testing.assert_array_equal(bits(actual[index]), bits(expected))
            np.testing.assert_array_equal(block[index].samples, np.sort(row))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(counts, min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_single_distribution(self, samples, q):
        distribution = EmpiricalDistribution(samples)
        assert bits(distribution.percentile(q)) == bits(np.percentile(samples, q))
        np.testing.assert_array_equal(
            bits(distribution.percentiles(QS)), bits(np.percentile(samples, QS))
        )

    def test_single_sample_and_all_zero_rows(self):
        rows = [np.array([0.0, 0.0, 7.5]), np.zeros(3), np.array([1.0, 2.0, 3.0])]
        block = DistributionBlock.from_samples([10, 11, 12], rows, [60.0] * 3, active_only=True)
        assert [len(block[host]) for host in block] == [1, 3, 3]
        np.testing.assert_array_equal(block.percentile(99.0), [7.5, 0.0, 2.98])
        assert block[10].samples.tolist() == [7.5]
        assert block[11].bin_width == 60.0

    def test_non_finite_samples_are_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            DistributionBlock.from_samples([0], [np.array([1.0, np.inf])], [None])


class TestVectorisedThresholds:
    @pytest.fixture(scope="class")
    def block(self):
        population = generate_enterprise(EnterpriseConfig(num_hosts=20, num_weeks=2, seed=5))
        return training_distributions(population.matrices(), Feature.TCP_CONNECTIONS, 0)

    def test_training_block_is_a_mapping_of_distributions(self, block):
        assert isinstance(block, DistributionBlock)
        assert all(isinstance(block[host], EmpiricalDistribution) for host in block)
        view = block[next(iter(block))].samples
        assert not view.flags.writeable

    @pytest.mark.parametrize(
        "heuristic",
        [
            PercentileHeuristic(99.0),
            MeanStdHeuristic(3.0),
            UtilityHeuristic(weight=0.4, attack_sizes=(5.0, 40.0)),
            FMeasureHeuristic(attack_sizes=(5.0, 40.0)),
        ],
        ids=lambda heuristic: heuristic.name,
    )
    def test_host_thresholds_equal_one_member_groups(self, block, heuristic):
        expected = [heuristic.threshold_for_group([block[host]]) for host in block]
        np.testing.assert_array_equal(bits(heuristic.host_thresholds(block)), bits(expected))

    def test_candidate_grids_equal_the_single_grid(self, block):
        grids = candidate_threshold_grids(block, 200)
        for host, grid in zip(block, grids, strict=True):
            np.testing.assert_array_equal(grid, candidate_threshold_grid(block[host], 200))

    def test_plain_dict_is_stacked_at_entry(self, block):
        plain = {host: EmpiricalDistribution(block[host].samples) for host in block}
        for policy in (HomogeneousPolicy(), FullDiversityPolicy(), PartialDiversityPolicy()):
            assert policy.compute_thresholds(plain) == policy.compute_thresholds(block)


class TestAggregatesBuildNoHostObjects:
    @pytest.fixture
    def no_host_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a HostPerformance was built")

        monkeypatch.setattr(HostPerformance, "__post_init__", refuse)

    @pytest.fixture(scope="class")
    def matrices(self):
        population = generate_enterprise(EnterpriseConfig(num_hosts=16, num_weeks=2, seed=8))
        return population.matrices()

    @pytest.mark.parametrize(
        "features", [(Feature.TCP_CONNECTIONS,), (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS)]
    )
    def test_aggregates_read_columns(self, matrices, no_host_objects, features):
        protocol = DetectionProtocol(features=features)
        attack = NaiveAttacker(feature=features[0], attack_size=20.0).host_builder()
        evaluation = evaluate_policy(matrices, PartialDiversityPolicy(), protocol, attack)
        assert 0.0 <= evaluation.mean_utility() <= 1.0
        assert evaluation.total_false_alarms() >= 0
        assert 0.0 <= evaluation.fraction_raising_alarm() <= 1.0
        outcome = summarize_scenario(evaluation)
        assert outcome.num_hosts == len(matrices)
        sampled = summarize_scenario(evaluation, sample=SampleSpec(size=8, bootstrap=20))
        assert sampled.utility_ci_low <= sampled.mean_utility <= sampled.utility_ci_high
        with pytest.raises(AssertionError, match="HostPerformance was built"):
            evaluation.performances[next(iter(matrices))]

    def test_lookup_builds_and_caches_one_host(self, matrices):
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
        evaluation = evaluate_policy(matrices, FullDiversityPolicy(), protocol)
        host = list(matrices)[3]
        first = evaluation.performances[host]
        assert evaluation.performances[host] is first
        assert first.host_id == host
        assert first.utility(0.4) == evaluation.utilities()[host]
        with pytest.raises(KeyError):
            evaluation.performances[-1]
