"""One-off capture of golden fixtures (run against pre-change code).

Dumps exact (repr-precision) per-host measurement outputs for a matrix of
policies / protocols / attack kinds, plus full fig4 outputs at small scale,
so the vectorised measurement path can be regression-tested bit for bit
against the per-host loop it replaced.

The ``per_host_cases`` section pins the measure-only entry points on a
12-host, 4-week population: every protocol x attack case under full
diversity, explicit test weeks 1-3, and a mimicry attacker evading a stale
assignment.  It was captured with ``measure_assignment`` routed through the
per-host reference loop, at the last revision that still had that loop;
re-running this script now measures through the batched path, which must
reproduce it bit for bit.

A second fixture pins the headline experiments — Figure 3 (plain and
co-optimised) and Table 3 (plain and fused) — so restructuring how they
train, assign and measure can be checked bit for bit as well.

Usage::

    PYTHONPATH=src python scripts/dev_capture_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.attacks.mimicry import hidden_traffic_by_host
from repro.core.evaluation import (
    DetectionProtocol,
    detection_training_distributions,
    evaluate_policy,
    measure_assignment,
)
from repro.core.fusion import FusionRule
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.fig3_utility import run_fig3, run_fig3_cooptimized
from repro.experiments.fig4_attacker import run_fig4
from repro.experiments.table3_alarms import run_table3, run_table3_fused
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.features.definitions import Feature
from repro.sweeps.spec import AttackSpec
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUT = DATA / "golden_measurement.json"
EXPERIMENTS_OUT = DATA / "golden_experiments.json"

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


def perf_payload(perf) -> dict:
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
        "feature_alarm": {
            f.value: perf.feature_alarm_raised.get(f) for f in perf.thresholds
        },
        "fp": repr(float(perf.operating_point.false_positive_rate)),
        "fn": repr(float(perf.operating_point.false_negative_rate)),
        "false_alarm_count": int(perf.false_alarm_count),
        "alarm_raised": perf.alarm_raised,
    }


def _floats(values) -> list:
    return [repr(float(value)) for value in values]


def _summary_payload(summary) -> dict:
    return {
        name: repr(float(getattr(summary, name)))
        for name in ("count", "mean", "std", "minimum", "q1", "median", "q3", "maximum")
    }


def _table_payload(table) -> dict:
    return {
        row: {column: repr(float(value)) for column, value in cells.items()}
        for row, cells in table.items()
    }


def experiments_payload(population) -> dict:
    """repr-precision outputs of fig3 / table3 and their fused variants."""
    fig3 = run_fig3(population)
    table3 = run_table3(population)
    coopt = run_fig3_cooptimized(population)
    fused = run_table3_fused(population)
    return {
        "fig3": {
            "mean_utilities": {
                name: repr(float(value)) for name, value in fig3.mean_utilities().items()
            },
            "gain_by_weight": _floats(fig3.gain_by_weight()),
            "weight_sweep": {name: _floats(values) for name, values in fig3.weight_sweep.items()},
            "boxplots": {
                name: _summary_payload(summary) for name, summary in fig3.boxplots.items()
            },
        },
        "table3": _table_payload(table3.alarms),
        "fig3_cooptimized": {
            "mean_utilities": _table_payload(coopt.mean_utilities),
            "detection_rates": _table_payload(coopt.detection_rates),
            "objective_values": _table_payload(coopt.objective_values),
        },
        "table3_fused": {
            "alarms": _table_payload(fused.alarms),
            "objective_values": _table_payload(fused.objective_values),
        },
    }


def _measured(matrices, assignment, protocol, builder=None, **kwargs) -> dict:
    performances = measure_assignment(
        matrices, assignment, protocol, attack_builder=builder, **kwargs
    )
    return {str(host_id): perf_payload(perf) for host_id, perf in sorted(performances.items())}


def per_host_payload() -> dict:
    """Measure-only cases: explicit test weeks and stale attack assignments."""
    population = generate_enterprise(EnterpriseConfig(num_hosts=12, num_weeks=4, seed=909))
    matrices = population.matrices()
    bin_width = population.config.bin_width
    heuristic = PercentileHeuristic(99.0)
    cases: dict = {}
    for proto_name, protocol in PROTOCOLS.items():
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = FullDiversityPolicy(heuristic).assign(training, fusion=protocol.fusion)
        for attack_name, attack in ATTACKS.items():
            builder = attack.build_builder(protocol.primary_feature, bin_width)
            cases[f"{proto_name}/{attack_name}"] = _measured(
                matrices, assignment, protocol, builder
            )

    protocol = PROTOCOLS["single"]
    training = detection_training_distributions(matrices, protocol.features, protocol.train_week)
    assignment = HomogeneousPolicy(heuristic).assign(training, fusion=protocol.fusion)
    builder = ATTACKS["naive"].build_builder(protocol.primary_feature, bin_width)
    for week in (1, 2, 3):
        cases[f"test-week-{week}"] = _measured(
            matrices, assignment, protocol, builder, test_week=week
        )

    stale = HomogeneousPolicy(heuristic).assign(
        detection_training_distributions(matrices, protocol.features, 0),
        fusion=protocol.fusion,
    )
    fresh = FullDiversityPolicy(heuristic).assign(
        detection_training_distributions(matrices, protocol.features, 2),
        fusion=protocol.fusion,
    )
    builder = ATTACKS["mimicry"].build_builder(protocol.primary_feature, bin_width)
    cases["stale-mimicry"] = _measured(
        matrices, fresh, protocol, builder, test_week=3, attack_assignment=stale
    )
    return {"config": {"num_hosts": 12, "num_weeks": 4, "seed": 909}, "cases": cases}


def main() -> None:
    population = generate_enterprise(CONFIG)
    matrices = population.matrices()
    heuristic = PercentileHeuristic(99.0)
    policies = {
        "homogeneous": HomogeneousPolicy(heuristic),
        "full-diversity": FullDiversityPolicy(heuristic),
        "partial": PartialDiversityPolicy(heuristic, num_groups=4),
    }

    golden: dict = {"config": {"num_hosts": 24, "num_weeks": 2, "seed": 77}, "cases": {}}
    for proto_name, protocol in PROTOCOLS.items():
        for attack_name, attack in ATTACKS.items():
            builder = attack.build_builder(protocol.primary_feature, CONFIG.bin_width)
            for policy_name, policy in policies.items():
                evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=builder)
                key = f"{proto_name}/{attack_name}/{policy_name}"
                golden["cases"][key] = {
                    str(host_id): perf_payload(perf)
                    for host_id, perf in sorted(evaluation.performances.items())
                }

    # Hidden traffic (Figure 4(b) ingredient) under the three policies.
    from repro.core.evaluation import training_distributions

    train = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0)
    test_matrices = {host_id: m.week(1) for host_id, m in matrices.items()}
    hidden = {}
    for policy_name, policy in policies.items():
        assignment = policy.compute_thresholds(train)
        hidden[policy_name] = {
            str(host_id): repr(float(value))
            for host_id, value in sorted(
                hidden_traffic_by_host(
                    test_matrices, assignment.thresholds, Feature.TCP_CONNECTIONS
                ).items()
            )
        }
    golden["hidden_traffic"] = hidden

    # Full fig4 at small scale.
    fig4_population = generate_enterprise(EnterpriseConfig(num_hosts=16, num_weeks=2, seed=41))
    result = run_fig4(fig4_population, num_attack_sizes=6)
    golden["fig4"] = {
        "attack_sizes": [repr(float(s)) for s in result.attack_sizes],
        "detection_curves": {
            name: [repr(float(v)) for v in values]
            for name, values in result.detection_curves.items()
        },
        "hidden_traffic": {
            name: {str(h): repr(float(v)) for h, v in sorted(values.items())}
            for name, values in result.hidden_traffic.items()
        },
    }

    golden["per_host_cases"] = per_host_payload()

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")))
    print(
        f"wrote {OUT} ({OUT.stat().st_size} bytes, {len(golden['cases'])} cases, "
        f"{len(golden['per_host_cases']['cases'])} per-host cases)"
    )

    experiments = {
        "config": {"num_hosts": 24, "num_weeks": 2, "seed": 77},
        **experiments_payload(population),
    }
    EXPERIMENTS_OUT.write_text(json.dumps(experiments, sort_keys=True, indent=1) + "\n")
    print(f"wrote {EXPERIMENTS_OUT} ({EXPERIMENTS_OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
