"""CI smoke check: a 10k-host sampled evaluation stays memory-bounded.

Runs one sampled campaign against a sharded 10k-host population — small
host-range shards, two resident at most — and asserts, via
``resource.getrusage``, that peak RSS stayed below the budget.  Fully
materialising the population's host arrays would blow straight through the
budget (10240 hosts x 2 weeks is ~630 MiB of float64 bins alone), so the
assertion is what proves the sharded + sampled path never builds the full
host array.

The scenario is one where detection matters: per-host (full-diversity)
thresholds against a naive attack sized at the median sampled host's
99th-percentile training-week count, so roughly half the sampled hosts can
catch it.  The sampled outcome is sanity-checked too: the mean
false-negative rate must stay below ``MAX_MEAN_FALSE_NEGATIVE_RATE`` (an
attack nobody detects scores FN = 1 and utility 1 - 0.4 * FN, which would
make the check vacuous), the bootstrap interval must bracket the point
estimate, and the sampling provenance fields must round-trip into the
outcome.

Usage::

    python scripts/ci_checks/check_scaleout.py \\
        --hosts 10240 --sample 64 --budget-mb 400 \\
        --cache-dir .benchmarks/population-cache
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

#: The sampled mean false-negative rate must stay below this.  The smoke's
#: attack scores FN ~0.6 (10240 hosts, sample 64); an attack sized below
#: nearly every host's threshold scores ~0.99.
MAX_MEAN_FALSE_NEGATIVE_RATE = 0.9


def peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (shared probe in ``repro.utils``)."""
    from repro.utils.resources import peak_rss_mb as probe

    return probe()


def run_smoke(
    hosts: int,
    weeks: int,
    sample: int,
    hosts_per_shard: int,
    max_resident_shards: int,
    cache_dir: Optional[str],
) -> tuple:
    """Run the sampled scale-out evaluation; returns ``(outcome, population)``."""
    import numpy as np

    from repro.core.sampling import SampleSpec, sample_host_ids
    from repro.engine import PopulationEngine
    from repro.sweeps.runner import run_scenario
    from repro.sweeps.spec import (
        AttackSpec,
        EvaluationSpec,
        PolicySpec,
        PopulationSpec,
        ScenarioSpec,
    )

    engine = PopulationEngine(cache_dir=cache_dir)
    population_spec = PopulationSpec(num_hosts=hosts, num_weeks=weeks)
    evaluation = EvaluationSpec(sample=SampleSpec(size=sample, seed=7))
    population = engine.generate_sharded(
        population_spec.to_config(),
        hosts_per_shard=hosts_per_shard,
        max_resident_shards=max_resident_shards,
    )
    chosen = sample_host_ids(population.host_ids, sample, evaluation.sample.seed)
    feature = evaluation.features_enum()[0]
    training_p99 = [
        matrix.series(feature).week(evaluation.train_week).percentile(99)
        for matrix in population.matrices_for(chosen).values()
    ]
    spec = ScenarioSpec(
        name="scaleout-smoke",
        population=population_spec,
        policy=PolicySpec(kind="full-diversity"),
        attack=AttackSpec(kind="naive", size=float(np.median(training_p99))),
        evaluation=evaluation,
    ).validate()
    return run_scenario(spec, population), population


def check_outcome(outcome, sample: int, budget_mb: float) -> List[str]:
    """Every violated expectation, as human-readable messages."""
    errors: List[str] = []
    if outcome.sample_size != sample:
        errors.append(f"outcome.sample_size is {outcome.sample_size}, expected {sample}")
    if outcome.utility_ci_low is None or outcome.utility_ci_high is None:
        errors.append("sampled outcome is missing its bootstrap confidence interval")
    elif not outcome.utility_ci_low <= outcome.mean_utility <= outcome.utility_ci_high:
        errors.append(
            f"bootstrap interval [{outcome.utility_ci_low}, {outcome.utility_ci_high}] "
            f"does not bracket the point estimate {outcome.mean_utility}"
        )
    if not outcome.mean_false_negative_rate < MAX_MEAN_FALSE_NEGATIVE_RATE:
        errors.append(
            f"sampled mean false-negative rate {outcome.mean_false_negative_rate:.3f} is not "
            f"below {MAX_MEAN_FALSE_NEGATIVE_RATE} — the attack went (almost) undetected"
        )
    if outcome.bootstrap_iterations <= 0:
        errors.append("outcome.bootstrap_iterations missing from the sampled outcome")
    rss = peak_rss_mb()
    if rss > budget_mb:
        errors.append(
            f"peak RSS {rss:.1f} MiB exceeds the {budget_mb:.0f} MiB budget — "
            f"the sampled path materialised (close to) the full host array"
        )
    return errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=10240)
    parser.add_argument("--weeks", type=int, default=2)
    parser.add_argument("--sample", type=int, default=64)
    parser.add_argument("--hosts-per-shard", type=int, default=512)
    parser.add_argument("--max-resident-shards", type=int, default=2)
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=400.0,
        help="peak-RSS ceiling in MiB (default 400; full materialisation needs >700)",
    )
    parser.add_argument("--cache-dir", default=None, help="population cache directory")
    args = parser.parse_args(argv)

    outcome, population = run_smoke(
        hosts=args.hosts,
        weeks=args.weeks,
        sample=args.sample,
        hosts_per_shard=args.hosts_per_shard,
        max_resident_shards=args.max_resident_shards,
        cache_dir=args.cache_dir,
    )
    errors = check_outcome(outcome, sample=args.sample, budget_mb=args.budget_mb)
    if errors:
        for error in errors:
            print(f"check_scaleout: FAIL: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: {args.hosts} hosts in {population.num_shards} shard(s), "
        f"sampled {outcome.sample_size} -> mean_utility {outcome.mean_utility:.4f} "
        f"mean FN {outcome.mean_false_negative_rate:.3f} "
        f"ci{outcome.sample_confidence:.0%} [{outcome.utility_ci_low:.4f}, "
        f"{outcome.utility_ci_high:.4f}], peak RSS {peak_rss_mb():.1f} MiB "
        f"(budget {args.budget_mb:.0f} MiB)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
