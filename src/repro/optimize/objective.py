"""The fused-utility objective that joint threshold optimizers score against.

Threshold heuristics pick each feature's threshold against a *per-feature*
objective; since the feature-set redesign the quantity that actually matters
is the fused per-host utility of the whole ``DetectionProtocol``.  The
optimizers therefore need a training-data surrogate for the fused test-week
utility that is cheap enough to evaluate over whole candidate grids:

* per bin, feature ``i`` alerts on benign traffic with probability
  ``P(X_i > t_i)`` (its training exceedance), and the fusion rule combines
  the per-feature indicators — so the fused false-positive rate is the
  Poisson-binomial tail :meth:`~repro.core.fusion.FusionRule.alarm_probability`
  over the per-feature exceedances (features treated as independent per bin);
* on attacked bins the planned injection shifts the attacked feature's alert
  probability to ``P(X_a > t_a - size)`` while untouched features keep their
  benign rates — a coincidental alert on an untouched feature still raises
  the fused alarm, exactly as the test-week measurement counts it;
* the vector's utility is the paper's ``U = 1 - [w*FN + (1-w)*FP]`` with the
  false-negative rate averaged over the planned attack sizes.

For a single feature (any fusion rule) this reduces to the objective the
single-feature :class:`~repro.core.thresholds.UtilityHeuristic` maximises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.fusion import FusionRule
from repro.core.metrics import DEFAULT_UTILITY_WEIGHT, utility_array
from repro.features.definitions import Feature
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import require, require_probability

#: The attack sizes the defender plans for by default — the same planning
#: assumption as :class:`~repro.core.thresholds.UtilityHeuristic`.
DEFAULT_ATTACK_SIZES: Tuple[float, ...] = (10.0, 50.0, 100.0, 500.0)

#: One group member's training data: its per-feature benign distributions.
MemberDistributions = Mapping[Feature, EmpiricalDistribution]


@dataclass(frozen=True)
class FusedUtilityObjective:
    """Expected fused utility of per-feature threshold vectors.

    Attributes
    ----------
    fusion:
        The fusion rule combining per-feature alerts (the protocol's rule).
    weight:
        The utility weight ``w`` (importance of false negatives).
    attack_sizes:
        Planned per-bin injection sizes; the false-negative rate is averaged
        over them.  Empty means "false positives only".
    attack_feature:
        The feature the planned attack perturbs; ``None`` selects the first
        (primary) feature of the evaluated set.
    """

    fusion: FusionRule = field(default_factory=FusionRule)
    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Tuple[float, ...] = DEFAULT_ATTACK_SIZES
    attack_feature: Optional[Feature] = None

    def __post_init__(self) -> None:
        require(isinstance(self.fusion, FusionRule), "fusion must be a FusionRule")
        require_probability(self.weight, "weight")
        require(
            all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative"
        )

    def target_index(self, features: Sequence[Feature]) -> int:
        """Index of the attacked feature within ``features`` (default: first)."""
        if self.attack_feature is None:
            return 0
        features = tuple(features)
        require(
            self.attack_feature in features,
            f"attack feature {self.attack_feature.value!r} is not among the evaluated features",
        )
        return features.index(self.attack_feature)

    def member_utilities(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Utility of every candidate vector for every member.

        ``candidates`` has shape ``(num_candidates, num_features)`` (a single
        vector is promoted); the result has shape
        ``(num_candidates, num_members)``.
        """
        features = tuple(features)
        require(len(members) > 0, "at least one member is required")
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        require(
            candidates.shape[1] == len(features),
            "candidate vectors must cover every evaluated feature",
        )
        target = self.target_index(features)
        sizes = np.asarray(self.attack_sizes, dtype=float)
        # (num_sizes, num_candidates) thresholds the attacked feature's benign
        # traffic must stay under for the attacked bin to go unnoticed.
        shifted = candidates[:, target][None, :] - sizes[:, None] if sizes.size else None
        utilities = np.empty((candidates.shape[0], len(members)))
        for member_index, member in enumerate(members):
            alert = np.stack(
                [member[feature].exceedances(candidates[:, i]) for i, feature in enumerate(features)]
            )  # (num_features, num_candidates)
            false_positive = self.fusion.alarm_probability(alert)
            if shifted is None:
                false_negative = np.zeros_like(false_positive)
            else:
                attacked = np.repeat(alert[:, None, :], sizes.size, axis=1)
                attacked[target] = member[features[target]].exceedances(shifted)
                detection = self.fusion.alarm_probability(attacked)  # (num_sizes, num_candidates)
                false_negative = np.mean(1.0 - detection, axis=0)
            utilities[:, member_index] = utility_array(
                false_positive, false_negative, self.weight
            )
        return utilities

    def group_scores(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Mean member utility per candidate vector, shape ``(num_candidates,)``.

        This is the quantity one shared group configuration maximises — the
        multi-feature analogue of the utility heuristic's average-member
        objective.
        """
        return np.mean(self.member_utilities(members, features, candidates), axis=1)

    def score(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        thresholds: Sequence[float],
    ) -> float:
        """Mean member utility of one threshold vector."""
        vector = np.asarray(thresholds, dtype=float)[None, :]
        return float(self.group_scores(members, features, vector)[0])
