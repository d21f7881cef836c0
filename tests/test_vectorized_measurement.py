"""Bit-identity regression tests for the vectorised measurement path.

``tests/data/golden_measurement.json`` was captured by
``scripts/dev_capture_golden.py`` running the pre-vectorisation per-host
measurement loop: 54 policy x protocol x attack cases at repr precision, the
Figure 4(b) hidden-traffic ingredient and a full small-scale fig4 run.  The
batched array path must reproduce every float bit for bit.

Its ``per_host_cases`` section pins the measure-only entry points
(explicit test weeks, stale attack assignments) on a 12-host, 4-week
population; those were captured with ``measure_assignment`` routed through
the per-host reference loop before that loop was removed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.attacks.mimicry import hidden_traffic_by_host
from repro.core.evaluation import (
    DetectionProtocol,
    HostPerformance,
    detection_training_distributions,
    evaluate_policy,
    measure_assignment,
    training_distributions,
)
from repro.core.fusion import FusionRule
from repro.core.metrics import OperatingPoint
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.fig4_attacker import run_fig4
from repro.features.definitions import Feature
from repro.sweeps.spec import AttackSpec
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_measurement.json"

CONFIG = EnterpriseConfig(num_hosts=24, num_weeks=2, seed=77)

ATTACKS = {
    "none": AttackSpec(kind="none"),
    "naive": AttackSpec(kind="naive", size=35.0, active_fraction=0.6, seed=1701),
    "naive-always": AttackSpec(kind="naive", size=12.0, active_fraction=1.0, seed=1701),
    "mimicry": AttackSpec(kind="mimicry", evasion_probability=0.9, seed=1701),
    "botnet": AttackSpec(
        kind="botnet",
        size=25.0,
        active_fraction=0.8,
        compromise_probability=0.7,
        command_and_control="p2p",
        control_size=5.0,
        seed=1701,
    ),
    "storm": AttackSpec(kind="storm", seed=1701),
}

PROTOCOLS = {
    "single": DetectionProtocol(features=(Feature.TCP_CONNECTIONS,)),
    "multi-any": DetectionProtocol(
        features=(Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS),
        fusion=FusionRule.any_(),
    ),
    "multi-2ofn": DetectionProtocol(
        features=(Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS),
        fusion=FusionRule.k_of_n(2),
    ),
}


def _policies():
    heuristic = PercentileHeuristic(99.0)
    return {
        "homogeneous": HomogeneousPolicy(heuristic),
        "full-diversity": FullDiversityPolicy(heuristic),
        "partial": PartialDiversityPolicy(heuristic, num_groups=4),
    }


def _perf_payload(perf) -> dict:
    return {
        "thresholds": {f.value: repr(float(t)) for f, t in perf.thresholds.items()},
        "feature_fp": {
            f.value: repr(float(p.false_positive_rate))
            for f, p in perf.feature_operating_points.items()
        },
        "feature_fn": {
            f.value: repr(float(p.false_negative_rate))
            for f, p in perf.feature_operating_points.items()
        },
        "feature_counts": {f.value: int(c) for f, c in perf.feature_false_alarm_counts.items()},
        "feature_alarm": {f.value: perf.feature_alarm_raised.get(f) for f in perf.thresholds},
        "fp": repr(float(perf.operating_point.false_positive_rate)),
        "fn": repr(float(perf.operating_point.false_negative_rate)),
        "false_alarm_count": int(perf.false_alarm_count),
        "alarm_raised": perf.alarm_raised,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def matrices():
    return generate_enterprise(CONFIG).matrices()


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_cases_match_pre_vectorisation_fixture(
        self, golden, matrices, proto_name, attack_name
    ):
        protocol = PROTOCOLS[proto_name]
        attack = ATTACKS[attack_name]
        builder = attack.build_builder(protocol.primary_feature, CONFIG.bin_width)
        for policy_name, policy in _policies().items():
            evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=builder)
            expected = golden["cases"][f"{proto_name}/{attack_name}/{policy_name}"]
            actual = {
                str(host_id): _perf_payload(perf)
                for host_id, perf in sorted(evaluation.performances.items())
            }
            assert actual == expected

    def test_hidden_traffic_matches_fixture(self, golden, matrices):
        train = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0)
        test_matrices = {host_id: m.week(1) for host_id, m in matrices.items()}
        for policy_name, policy in _policies().items():
            assignment = policy.compute_thresholds(train)
            hidden = hidden_traffic_by_host(
                test_matrices, assignment.thresholds, Feature.TCP_CONNECTIONS
            )
            actual = {str(h): repr(float(v)) for h, v in sorted(hidden.items())}
            assert actual == golden["hidden_traffic"][policy_name]

    def test_fig4_matches_fixture(self, golden):
        population = generate_enterprise(EnterpriseConfig(num_hosts=16, num_weeks=2, seed=41))
        result = run_fig4(population, num_attack_sizes=6)
        assert [repr(float(s)) for s in result.attack_sizes] == golden["fig4"]["attack_sizes"]
        for name, values in result.detection_curves.items():
            assert [repr(float(v)) for v in values] == golden["fig4"]["detection_curves"][name]
        for name, values in result.hidden_traffic.items():
            actual = {str(h): repr(float(v)) for h, v in sorted(values.items())}
            assert actual == golden["fig4"]["hidden_traffic"][name]


def _golden_performance(host_id: int, payload: dict) -> HostPerformance:
    """The eager per-host object the fixture's payload describes."""
    features = [Feature(name) for name in payload["thresholds"]]
    return HostPerformance(
        host_id=host_id,
        thresholds={f: float(payload["thresholds"][f.value]) for f in features},
        feature_operating_points={
            f: OperatingPoint(
                false_positive_rate=float(payload["feature_fp"][f.value]),
                false_negative_rate=float(payload["feature_fn"][f.value]),
            )
            for f in features
        },
        feature_false_alarm_counts={f: payload["feature_counts"][f.value] for f in features},
        operating_point=OperatingPoint(
            false_positive_rate=float(payload["fp"]), false_negative_rate=float(payload["fn"])
        ),
        false_alarm_count=payload["false_alarm_count"],
        alarm_raised=payload["alarm_raised"],
        feature_alarm_raised={f: payload["feature_alarm"][f.value] for f in features},
    )


class TestColumnarHostObjects:
    """A host looked up in the columnar result equals the old eager object."""

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_every_case_field_for_field(self, golden, matrices, proto_name, attack_name):
        protocol = PROTOCOLS[proto_name]
        builder = ATTACKS[attack_name].build_builder(protocol.primary_feature, CONFIG.bin_width)
        for policy_name, policy in _policies().items():
            performances = evaluate_policy(
                matrices, policy, protocol, attack_builder=builder
            ).performances
            expected = golden["cases"][f"{proto_name}/{attack_name}/{policy_name}"]
            assert sorted(performances) == sorted(int(host) for host in expected)
            for host, payload in expected.items():
                actual = performances[int(host)]
                assert actual == _golden_performance(int(host), payload)
                assert all(type(value) is float for value in actual.thresholds.values())
                assert type(actual.false_alarm_count) is int
                assert all(
                    type(count) is int for count in actual.feature_false_alarm_counts.values()
                )


def _measured(matrices, assignment, protocol, builder=None, **kwargs) -> dict:
    performances = measure_assignment(
        matrices, assignment, protocol, attack_builder=builder, **kwargs
    )
    return {str(host_id): _perf_payload(perf) for host_id, perf in sorted(performances.items())}


class TestPerHostLoopFixture:
    """``measure_assignment`` against the per-host reference loop's outputs."""

    @pytest.fixture(scope="class")
    def population(self):
        return generate_enterprise(EnterpriseConfig(num_hosts=12, num_weeks=4, seed=909))

    @pytest.fixture(scope="class")
    def cases(self, golden):
        return golden["per_host_cases"]["cases"]

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_all_cases(self, population, cases, proto_name, attack_name):
        protocol = PROTOCOLS[proto_name]
        matrices = population.matrices()
        builder = ATTACKS[attack_name].build_builder(
            protocol.primary_feature, population.config.bin_width
        )
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = FullDiversityPolicy(PercentileHeuristic(99.0)).assign(
            training, fusion=protocol.fusion
        )
        actual = _measured(matrices, assignment, protocol, builder)
        assert actual == cases[f"{proto_name}/{attack_name}"]

    @pytest.mark.parametrize("week", [1, 2, 3])
    def test_explicit_test_week(self, population, cases, week):
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        builder = ATTACKS["naive"].build_builder(
            protocol.primary_feature, population.config.bin_width
        )
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = HomogeneousPolicy(PercentileHeuristic(99.0)).assign(
            training, fusion=protocol.fusion
        )
        actual = _measured(matrices, assignment, protocol, builder, test_week=week)
        assert actual == cases[f"test-week-{week}"]

    def test_stale_attack_assignment(self, population, cases):
        """A mimicry attacker evading stale thresholds (attack_assignment)."""
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        builder = ATTACKS["mimicry"].build_builder(
            protocol.primary_feature, population.config.bin_width
        )
        heuristic = PercentileHeuristic(99.0)
        stale = HomogeneousPolicy(heuristic).assign(
            detection_training_distributions(matrices, protocol.features, 0),
            fusion=protocol.fusion,
        )
        fresh = FullDiversityPolicy(heuristic).assign(
            detection_training_distributions(matrices, protocol.features, 2),
            fusion=protocol.fusion,
        )
        actual = _measured(
            matrices, fresh, protocol, builder, test_week=3, attack_assignment=stale
        )
        assert actual == cases["stale-mimicry"]


class TestSharedBinGridRequired:
    @pytest.fixture
    def mixed_grid(self, matrices):
        """The 24-host population with its sixth host cut to one week."""
        irregular = dict(matrices)
        clipped = list(irregular)[5]
        irregular[clipped] = irregular[clipped].slice_time(0.0, 7 * 24 * 3600.0)
        return irregular, clipped

    def test_measure_assignment_names_the_first_mismatching_host(self, matrices, mixed_grid):
        irregular, clipped = mixed_grid
        protocol = PROTOCOLS["single"]
        assignment = FullDiversityPolicy(PercentileHeuristic(99.0)).assign(
            detection_training_distributions(matrices, protocol.features, 0),
            fusion=protocol.fusion,
        )
        with pytest.raises(ValidationError, match=f"host {clipped} is on a different bin grid"):
            measure_assignment(irregular, assignment, protocol)

    def test_hidden_traffic_names_the_first_mismatching_host(self, mixed_grid):
        irregular, clipped = mixed_grid
        thresholds = {host_id: 50.0 for host_id in irregular}
        with pytest.raises(ValidationError, match=f"host {clipped} is on a different bin grid"):
            hidden_traffic_by_host(irregular, thresholds, Feature.TCP_CONNECTIONS)

    def test_storm_trace_at_another_bin_width_raises(self, matrices):
        protocol = PROTOCOLS["single"]
        attack = ATTACKS["storm"].build_builder(
            protocol.primary_feature, 2 * CONFIG.bin_width
        )
        with pytest.raises(ValidationError, match="same bin width"):
            evaluate_policy(matrices, HomogeneousPolicy(), protocol, attack_builder=attack)
