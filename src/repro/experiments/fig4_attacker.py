"""Figure 4: attacker effectiveness under the three policies.

Figure 4(a) — *naive attacker*: sweep the injected attack size and plot the
fraction of users whose HIDS raises at least one alarm during the attacked
test week.  The diversity policies detect stealthy attacks (tens of
connections per window) on far more hosts than the monoculture threshold.

Figure 4(b) — *resourceful attacker*: for each host, the largest per-bin
injection a mimicry attacker who knows the host's distribution can sustain
while evading detection with 90% probability ("hidden traffic").  Diversity
policies shrink the median hidden traffic to roughly a third of the
monoculture value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.attacks.mimicry import hidden_traffic_by_host
from repro.attacks.naive import NaiveAttacker, attack_size_sweep
from repro.core.evaluation import (
    DetectionProtocol,
    assign_policy,
    measure_policy,
    train_protocol,
)
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.report import render_series, render_table
from repro.features.definitions import Feature
from repro.stats.summary import SummaryStatistics, summarize
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation


@dataclass(frozen=True)
class AttackerResult:
    """Both panels of Figure 4."""

    feature: Feature
    attack_sizes: Tuple[float, ...]
    detection_curves: Mapping[str, Sequence[float]]
    hidden_traffic: Mapping[str, Mapping[int, float]]
    evasion_probability: float

    def hidden_traffic_summary(self) -> Dict[str, SummaryStatistics]:
        """Boxplot summaries of per-host hidden traffic (Figure 4(b))."""
        return {name: summarize(list(values.values())) for name, values in self.hidden_traffic.items()}

    def median_hidden_traffic(self) -> Dict[str, float]:
        """Median hidden traffic per policy."""
        return {name: summary.median for name, summary in self.hidden_traffic_summary().items()}

    def stealthy_detection_gap(self, stealthy_max: float = 100.0) -> float:
        """Average detection-rate advantage of full diversity over homogeneous
        for stealthy attacks (sizes up to ``stealthy_max``)."""
        sizes = np.array(self.attack_sizes)
        mask = sizes <= stealthy_max
        if not np.any(mask):
            return 0.0
        full = np.array(self.detection_curves["full-diversity"])[mask]
        homogeneous = np.array(self.detection_curves["homogeneous"])[mask]
        return float(np.mean(full - homogeneous))

    def render(self) -> str:
        """Text rendering of both panels."""
        panel_a = render_series(
            "attack size",
            list(self.attack_sizes),
            {name: list(values) for name, values in self.detection_curves.items()},
            title=f"Figure 4(a) — fraction of users raising alarms vs attack size ({self.feature.value})",
        )
        rows = []
        for name, summary in self.hidden_traffic_summary().items():
            rows.append([name, summary.q1, summary.median, summary.q3, summary.maximum])
        panel_b = render_table(
            ["policy", "q1", "median", "q3", "max"],
            rows,
            title=(
                "Figure 4(b) — hidden traffic sustainable by a resourceful attacker "
                f"(evasion probability {self.evasion_probability:g})"
            ),
        )
        return panel_a + "\n\n" + panel_b


def run_fig4(
    population: EnterprisePopulation,
    feature: Feature = Feature.TCP_CONNECTIONS,
    train_week: int = 0,
    test_week: int = 1,
    num_attack_sizes: int = 12,
    evasion_probability: float = 0.9,
    partial_groups: int = 8,
) -> AttackerResult:
    """Compute Figure 4 on ``population``."""
    require(num_attack_sizes >= 2, "num_attack_sizes must be >= 2")
    matrices = population.matrices()
    protocol = DetectionProtocol(features=(feature,), train_week=train_week, test_week=test_week)
    heuristic = PercentileHeuristic(99.0)
    policies: Sequence[ConfigurationPolicy] = (
        HomogeneousPolicy(heuristic),
        FullDiversityPolicy(heuristic),
        PartialDiversityPolicy(heuristic, num_groups=partial_groups),
    )

    # Panel (a): naive attacker size sweep.
    max_size = max(population.max_observed(feature), 10.0)
    sizes = tuple(float(s) for s in attack_size_sweep(max_size, num_attack_sizes))

    # Training and threshold assignment are attack-independent, so both
    # panels share one training and one assignment per policy; the size
    # sweep is measurement only.
    training = train_protocol(matrices, protocol)
    assignments = {policy.name: assign_policy(policy, training, protocol) for policy in policies}

    detection_curves: Dict[str, List[float]] = {name: [] for name in assignments}
    for size in sizes:
        attack_builder = NaiveAttacker(feature=feature, attack_size=size).host_builder()
        for name, assignment in assignments.items():
            evaluation = measure_policy(matrices, assignment, protocol, attack_builder)
            detection_curves[name].append(evaluation.fraction_raising_alarm())

    # Panel (b): resourceful (mimicry) attacker hidden traffic.
    test_matrices = {host_id: matrix.week(test_week) for host_id, matrix in matrices.items()}
    hidden: Dict[str, Mapping[int, float]] = {
        name: hidden_traffic_by_host(
            test_matrices,
            assignment.for_feature(feature).thresholds,
            feature,
            evasion_probability=evasion_probability,
        )
        for name, assignment in assignments.items()
    }

    return AttackerResult(
        feature=feature,
        attack_sizes=sizes,
        detection_curves={name: tuple(values) for name, values in detection_curves.items()},
        hidden_traffic=hidden,
        evasion_probability=evasion_probability,
    )
