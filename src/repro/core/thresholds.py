"""Threshold-selection heuristics.

Section 4 of the paper considers several heuristics for turning a (pooled,
per-group or per-host) training distribution into a detection threshold:

* **Percentile** — target a false-positive rate directly; the IT operators
  surveyed in the paper overwhelmingly use the 99th percentile.
* **Mean + k·std** — classic outlier rule.
* **Utility-maximising** — pick the threshold maximising
  ``U = 1 - [w·FN + (1-w)·FP]`` against an assumed attack-size distribution.
* **F-measure-maximising** — pick the threshold maximising the harmonic mean
  of precision and recall against the same assumed attacks.

All heuristics consume an :class:`~repro.stats.empirical.EmpiricalDistribution`
of benign per-bin counts and return a scalar threshold, so they compose with
any grouping method.  :meth:`ThresholdHeuristic.host_thresholds` gives every
host of a :class:`~repro.stats.empirical.DistributionBlock` its own threshold
in one call, which the percentile and grid-search heuristics vectorise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.metrics import (
    DEFAULT_UTILITY_WEIGHT,
    f_measure_from_rate_arrays,
    utility_array,
)
from repro.stats.empirical import DistributionBlock, EmpiricalDistribution
from repro.utils.validation import require, require_non_negative, require_probability

#: The percentile IT operators target in practice (per the paper's survey).
DEFAULT_PERCENTILE = 99.0


class ThresholdHeuristic:
    """Interface: map benign training data to a detection threshold.

    Two entry points exist:

    * :meth:`threshold` — compute a threshold from a single (possibly pooled)
      distribution.  Percentile and mean+std heuristics only need this.
    * :meth:`threshold_for_group` — compute the single threshold a *group* of
      hosts will share, given each member's own distribution.  The default
      pools the members and delegates to :meth:`threshold`; utility- and
      F-measure-maximising heuristics override it to pick the threshold that
      maximises the *average member* objective, which is what the paper's
      utility heuristic does when one threshold must serve many users.
    """

    name = "heuristic"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        """Return the threshold for a detector trained on ``distribution``."""
        raise NotImplementedError

    def threshold_for_group(self, distributions: Sequence[EmpiricalDistribution]) -> float:
        """Return the shared threshold for a group of member distributions."""
        require(len(distributions) > 0, "group must contain at least one distribution")
        if len(distributions) == 1:
            return self.threshold(distributions[0])
        return self.threshold(EmpiricalDistribution.pooled(list(distributions)))

    def host_thresholds(self, block: DistributionBlock) -> np.ndarray:
        """Every host's own threshold (a one-member group each), in block row order."""
        return np.array([self.threshold_for_group([block[host]]) for host in block], dtype=float)


@dataclass(frozen=True)
class PercentileHeuristic(ThresholdHeuristic):
    """Threshold at a fixed percentile of the benign distribution.

    Attributes
    ----------
    percentile:
        The targeted percentile, e.g. 99.0 (at most 1% false positives on the
        training data, by construction).
    """

    percentile: float = DEFAULT_PERCENTILE

    def __post_init__(self) -> None:
        require(0.0 < self.percentile < 100.0, "percentile must be in (0, 100)")

    @property
    def name(self) -> str:
        return f"percentile-{self.percentile:g}"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return distribution.percentile(self.percentile)

    def host_thresholds(self, block: DistributionBlock) -> np.ndarray:
        return block.percentile(self.percentile)


@dataclass(frozen=True)
class MeanStdHeuristic(ThresholdHeuristic):
    """Threshold at ``mean + k * std`` of the benign distribution."""

    num_std: float = 3.0

    def __post_init__(self) -> None:
        require_non_negative(self.num_std, "num_std")

    @property
    def name(self) -> str:
        return f"mean+{self.num_std:g}std"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return distribution.mean() + self.num_std * distribution.std()


def candidate_threshold_grid(
    distribution: EmpiricalDistribution, num_candidates: int
) -> np.ndarray:
    """Quantile grid of candidate thresholds spanning the distribution's range.

    The shared search grid of the utility/F-measure heuristics and the
    :mod:`repro.optimize` optimizers: upper-half quantiles of the training
    distribution, deduplicated and sorted.
    """
    return _grid(distribution.percentiles(_grid_percentiles(num_candidates)), distribution.max())


def candidate_threshold_grids(block: DistributionBlock, num_candidates: int) -> List[np.ndarray]:
    """:func:`candidate_threshold_grid` of every host of ``block``, in row order.

    The grid percentiles of all hosts are one vectorised pass over the block.
    """
    values = block.percentiles(_grid_percentiles(num_candidates))
    return [
        _grid(row, maximum)
        for row, maximum in zip(values, block.maxima().tolist(), strict=True)
    ]


def _grid_percentiles(num_candidates: int) -> np.ndarray:
    return 100.0 * np.minimum(np.linspace(0.5, 1.0, num_candidates), 1.0)


def _grid(values: np.ndarray, maximum: float) -> np.ndarray:
    # Include a little headroom above the max so "never alarm" is a candidate.
    return np.unique(np.append(values, maximum * 1.01 + 1.0))


def _member_rate_matrices(
    distributions: Sequence[EmpiricalDistribution],
    candidates: np.ndarray,
    attack_sizes: np.ndarray,
) -> tuple:
    """Every member's (FP, FN) at every candidate threshold.

    FP is the member's exceedance rate at the candidate; FN is its miss rate
    averaged over attacks uniformly drawn from ``attack_sizes`` (0.0 when
    there are none).  Returns ``(fp, fn)`` arrays of shape
    ``(num_candidates, num_members)``; member values sit contiguously per
    candidate, so a mean over members sums them in a fixed order.
    """
    fp = np.empty((candidates.size, len(distributions)))
    fn = np.zeros((candidates.size, len(distributions)))
    shifted = candidates[:, None] - attack_sizes[None, :] if attack_sizes.size else None
    for member_index, member in enumerate(distributions):
        fp[:, member_index] = member.exceedances(candidates)
        if shifted is not None:
            fn[:, member_index] = np.mean(1.0 - member.exceedances(shifted), axis=1)
    return fp, fn


class _GridSearchHeuristic(ThresholdHeuristic):
    """A heuristic picking, from a candidate grid, the threshold with the best mean member score.

    The grid comes from the group's pooled distribution
    (:func:`candidate_threshold_grid`); each candidate is scored for every
    member against the assumed attack sizes and the best average wins.
    Subclasses define the per-member score.
    """

    attack_sizes: Sequence[float]
    num_candidates: int

    def _scores(self, false_positives: np.ndarray, false_negatives: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return self.threshold_for_group([distribution])

    def threshold_for_group(self, distributions: Sequence[EmpiricalDistribution]) -> float:
        require(len(distributions) > 0, "group must contain at least one distribution")
        pooled = EmpiricalDistribution.pooled(list(distributions))
        return self._best(distributions, candidate_threshold_grid(pooled, self.num_candidates))

    def host_thresholds(self, block: DistributionBlock) -> np.ndarray:
        grids = candidate_threshold_grids(block, self.num_candidates)
        return np.array(
            [self._best([block[host]], grid) for host, grid in zip(block, grids, strict=True)],
            dtype=float,
        )

    def _best(self, members: Sequence[EmpiricalDistribution], candidates: np.ndarray) -> float:
        sizes = np.asarray(self.attack_sizes, dtype=float)
        false_positives, false_negatives = _member_rate_matrices(members, candidates, sizes)
        mean_scores = np.mean(self._scores(false_positives, false_negatives), axis=1)
        return float(candidates[int(np.argmax(mean_scores))])


@dataclass(frozen=True)
class UtilityHeuristic(_GridSearchHeuristic):
    """Threshold maximising the paper's utility against assumed attack sizes.

    For a single host this is the paper's per-host utility-optimal
    threshold; for the homogeneous and partial-diversity groupings it is the
    single value that best balances the false positives of heavy members
    against the missed detections of light members (the *average member*
    utility is maximised).

    Attributes
    ----------
    weight:
        The utility weight ``w`` (importance of false negatives).
    attack_sizes:
        The attack sizes (per-bin injections) the defender plans for; the
        false-negative rate is averaged over them.  When empty, the heuristic
        degenerates to minimising the false-positive rate (threshold above
        the training maximum).
    num_candidates:
        Size of the candidate-threshold grid searched.
    """

    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Sequence[float] = field(default_factory=lambda: (10.0, 50.0, 100.0, 500.0))
    num_candidates: int = 200

    def __post_init__(self) -> None:
        require_probability(self.weight, "weight")
        require(self.num_candidates >= 2, "num_candidates must be >= 2")
        require(all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative")

    @property
    def name(self) -> str:
        return f"utility-w{self.weight:g}"

    def _scores(self, false_positives: np.ndarray, false_negatives: np.ndarray) -> np.ndarray:
        return utility_array(false_positives, false_negatives, self.weight)


@dataclass(frozen=True)
class FMeasureHeuristic(_GridSearchHeuristic):
    """Threshold maximising the average member F-measure against assumed attack sizes.

    Attributes
    ----------
    attack_sizes:
        Attack sizes the defender plans for.
    attack_prevalence:
        Assumed fraction of bins carrying attack traffic (needed to convert
        rates into precision/recall).
    num_candidates:
        Size of the candidate-threshold grid searched.
    """

    attack_sizes: Sequence[float] = field(default_factory=lambda: (10.0, 50.0, 100.0, 500.0))
    attack_prevalence: float = 0.01
    num_candidates: int = 200

    def __post_init__(self) -> None:
        require_probability(self.attack_prevalence, "attack_prevalence")
        require(self.num_candidates >= 2, "num_candidates must be >= 2")
        require(all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative")

    @property
    def name(self) -> str:
        return "f-measure"

    def _scores(self, false_positives: np.ndarray, false_negatives: np.ndarray) -> np.ndarray:
        return f_measure_from_rate_arrays(false_positives, false_negatives, self.attack_prevalence)
