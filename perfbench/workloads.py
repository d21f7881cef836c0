"""The benchmark's three workloads.

Each workload is built from the population seed alone.  ``build`` is the
cold set-up (population generation into an empty cache directory); ``open``
is the warm, untimed preparation of one run; ``iterate`` is one timed unit
of work.  ``iterate`` returns the canonical outputs of its operations so
:mod:`perfbench.checks` can verify them, plus the wall clock of the work and
of every scenario it ran.

Why these three (each stresses a different layer):

* ``paper-figures`` — the paper itself: Figure 3, Table 3 and Figure 4 on an
  in-memory 350-host x 2-week population.  Heaviest in ``core.assign``
  (fig3 assigns 30 times for 3 distinct inputs); never touches shards or the
  result store, so an ``engine`` or ``sweeps`` change should not move it.
* ``retrain-campaign`` — the built-in ``retrain-cadence`` sweep at 350 hosts:
  18 five-week timeline scenarios through ``SweepRunner`` into a fresh
  ``ResultStore``, read back afterwards.  The only workload exercising
  ``temporal``, store appends and ``.rpop`` cache reads.
* ``sampled-scaleout`` — 4096 hosts stored as eight 512-host ``.rpopd``
  shards with the default residency cap of 4, evaluated by 12 sampled
  scenarios (3 policies x 4 sample seeds, 256 hosts, 200 bootstrap
  resamples).  Dominated by shard loads: storage-format work shows here and
  nowhere else.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.core.sampling import SampleSpec
from repro.engine import PopulationEngine, read_manifest
from repro.engine.cache import PopulationCache
from repro.experiments import run_fig3, run_fig4, run_table3
from repro.sweeps.catalog import load_builtin
from repro.sweeps.results import ResultStore
from repro.sweeps.runner import SweepRunner, run_scenario
from repro.sweeps.spec import EvaluationSpec, PolicySpec, PopulationSpec, ScenarioSpec
from repro.workload.enterprise import EnterpriseConfig

#: Engine workers for the cold set-up: two, or fewer on a smaller machine.
SETUP_WORKERS = min(2, os.cpu_count() or 1)
#: ``ShardedPopulation`` generates its shards serially; it never uses the
#: engine's workers, so the sharded set-up is a one-worker build.
SHARDED_SETUP_WORKERS = 1

#: Evaluation runs in the benchmark's own process.
EVALUATION_WORKERS = 1

PAPER_HOSTS = 350
PAPER_WEEKS = 2
#: Policy evaluations the three paper experiments define, each on one test
#: week: fig3 3 policies x 10 attack sizes, table3 2 heuristics x 3
#: policies, fig4 3 policies x 12 attack sizes.
PAPER_EVALUATIONS = 3 * 10 + 2 * 3 + 3 * 12

SCALE_HOSTS = 4096
SCALE_WEEKS = 2
SCALE_HOSTS_PER_SHARD = 512
SCALE_POLICIES = ("homogeneous", "full-diversity", "partial-diversity")
SCALE_SAMPLE_SEEDS = 4
SCALE_SAMPLE_SIZE = 256
SCALE_BOOTSTRAP = 200


@dataclass
class Iteration:
    """One timed unit of work: outputs per operation and its timings."""

    outputs: Dict[str, Any]
    wall_seconds: float
    scenario_seconds: List[float]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Host-weeks measured per iteration (fixed by the workload's inputs).
    host_weeks: Callable[[int], int]
    build: Callable[[Path, int], None]
    open: Callable[[Path, int, Path], Any]
    iterate: Callable[[Any], Iteration]
    #: Engine workers the cold set-up really uses (recorded in provenance).
    setup_workers: int = SETUP_WORKERS
    #: Value-block bytes of shard ``index`` (0 for unsharded workloads).
    shard_bytes: Callable[[Any, int], int] = lambda state, index: 0


def _canonical(value: Any) -> Any:
    """JSON-ready copy of ``value`` with timings removed."""
    if isinstance(value, Mapping):
        return {
            str(key): _canonical(item)
            for key, item in value.items()
            if not str(key).endswith("_seconds")
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


# ----------------------------------------------------------------- paper-figures
def _paper_config(seed: int) -> EnterpriseConfig:
    return EnterpriseConfig(num_hosts=PAPER_HOSTS, num_weeks=PAPER_WEEKS, seed=seed)


def _paper_build(cache_dir: Path, seed: int) -> None:
    PopulationEngine(workers=SETUP_WORKERS, cache_dir=cache_dir).generate(_paper_config(seed))


def _paper_open(cache_dir: Path, seed: int, run_dir: Path) -> Any:
    engine = PopulationEngine(workers=EVALUATION_WORKERS, cache_dir=cache_dir)
    return engine.generate(_paper_config(seed))


def _summary(summary: Any) -> Dict[str, float]:
    return {
        name: getattr(summary, name)
        for name in ("count", "mean", "std", "minimum", "q1", "median", "q3", "maximum")
    }


def _paper_iterate(population: Any) -> Iteration:
    started = time.perf_counter()
    fig3 = run_fig3(population)
    table3 = run_table3(population)
    fig4 = run_fig4(population)
    wall = time.perf_counter() - started
    outputs = {
        "fig3": _canonical(
            {
                "mean_utilities": fig3.mean_utilities(),
                "gain_by_weight": fig3.gain_by_weight(),
                "boxplots": {name: _summary(s) for name, s in fig3.boxplots.items()},
            }
        ),
        "table3": _canonical(
            {"num_hosts": table3.num_hosts, "alarms": table3.alarms}
        ),
        "fig4": _canonical(
            {
                "attack_sizes": fig4.attack_sizes,
                "detection_curves": fig4.detection_curves,
                "hidden_traffic": {
                    name: _summary(s) for name, s in fig4.hidden_traffic_summary().items()
                },
            }
        ),
    }
    # The whole regeneration of the paper's figures is this workload's
    # scenario.
    return Iteration(outputs=outputs, wall_seconds=wall, scenario_seconds=[wall])


# -------------------------------------------------------------- retrain-campaign
def _campaign_sweep(seed: int):
    sweep = load_builtin("retrain-cadence")
    overrides = {"population.num_hosts": PAPER_HOSTS, "population.seed": seed}
    return replace(sweep, scenario=sweep.scenario.with_overrides(overrides))


def _campaign_configs(seed: int) -> List[EnterpriseConfig]:
    configs: Dict[str, EnterpriseConfig] = {}
    for scenario in _campaign_sweep(seed).expand():
        config = scenario.population.to_config()
        configs.setdefault(repr(config), config)
    return list(configs.values())


def _campaign_host_weeks(seed: int) -> int:
    return sum(
        scenario.population.num_hosts
        * (scenario.population.num_weeks - scenario.evaluation.test_week)
        for scenario in _campaign_sweep(seed).expand()
    )


def _campaign_build(cache_dir: Path, seed: int) -> None:
    engine = PopulationEngine(workers=SETUP_WORKERS, cache_dir=cache_dir)
    for config in _campaign_configs(seed):
        engine.generate(config)


@dataclass
class _CampaignState:
    sweep: Any
    cache_dir: Path
    store_path: Path


def _campaign_open(cache_dir: Path, seed: int, run_dir: Path) -> _CampaignState:
    return _CampaignState(_campaign_sweep(seed), cache_dir, run_dir / "store.jsonl")


def _campaign_iterate(state: _CampaignState) -> Iteration:
    if state.store_path.exists():
        state.store_path.unlink()
    finished: List[float] = []
    started = time.perf_counter()
    runner = SweepRunner(
        PopulationEngine(workers=EVALUATION_WORKERS, cache_dir=state.cache_dir),
        workers=EVALUATION_WORKERS,
    )
    store = ResultStore(state.store_path)
    result = runner.run(
        state.sweep,
        store=store,
        progress=lambda completed, total, scenario: finished.append(time.perf_counter()),
    )
    records = store.records()
    wall = time.perf_counter() - started
    marks = [started] + finished
    outputs: Dict[str, Any] = {
        record.scenario: _canonical(record.metrics) for record in records
    }
    outputs["store.read_back"] = {
        "records": len(records),
        "matches_run": [record.scenario for record in records]
        == [item.scenario.name for item in result.results]
        and all(
            _canonical(record.metrics) == _canonical(item.outcome.to_dict())
            for record, item in zip(records, result.results)
        ),
    }
    return Iteration(
        outputs=outputs,
        wall_seconds=wall,
        scenario_seconds=[end - begin for begin, end in zip(marks, marks[1:])],
    )


# -------------------------------------------------------------- sampled-scaleout
def _scale_population_spec(seed: int) -> PopulationSpec:
    return PopulationSpec(num_hosts=SCALE_HOSTS, num_weeks=SCALE_WEEKS, seed=seed)


def _scale_specs(seed: int) -> List[ScenarioSpec]:
    population = _scale_population_spec(seed)
    return [
        ScenarioSpec(
            name=f"{kind}/sample-{sample_seed}",
            population=population,
            policy=PolicySpec(kind=kind),
            evaluation=EvaluationSpec(
                sample=SampleSpec(
                    size=SCALE_SAMPLE_SIZE, seed=sample_seed, bootstrap=SCALE_BOOTSTRAP
                )
            ),
        ).validate()
        for kind in SCALE_POLICIES
        for sample_seed in range(seed, seed + SCALE_SAMPLE_SEEDS)
    ]


def _scale_build(cache_dir: Path, seed: int) -> None:
    engine = PopulationEngine(workers=SHARDED_SETUP_WORKERS, cache_dir=cache_dir)
    population = engine.generate_sharded(
        _scale_population_spec(seed).to_config(), hosts_per_shard=SCALE_HOSTS_PER_SHARD
    )
    for _ in population.iter_shards():  # generates and persists every shard
        pass


@dataclass
class _ScaleState:
    config: EnterpriseConfig
    specs: List[ScenarioSpec]
    cache_dir: Path
    host_bytes: int
    shard_hosts: Tuple[int, ...]


def _scale_open(cache_dir: Path, seed: int, run_dir: Path) -> _ScaleState:
    config = _scale_population_spec(seed).to_config()
    layout = PopulationCache(cache_dir).sharded_path_for(config)
    manifest = read_manifest(layout)
    # Shard value blocks are hosts x features x bins; one host's row gives
    # the per-host size without paging any bins in.
    probe = PopulationEngine(workers=EVALUATION_WORKERS, cache_dir=cache_dir).generate_sharded(
        config, hosts_per_shard=SCALE_HOSTS_PER_SHARD
    )
    matrix = probe.matrix(0)
    host_bytes = sum(matrix.series(feature).values.nbytes for feature in matrix.features)
    return _ScaleState(
        config=config,
        specs=_scale_specs(seed),
        cache_dir=cache_dir,
        host_bytes=host_bytes,
        shard_hosts=tuple(int(shard["num_hosts"]) for shard in manifest["shards"]),
    )


def _scale_iterate(state: _ScaleState) -> Iteration:
    durations: List[float] = []
    outputs: Dict[str, Any] = {}
    started = time.perf_counter()
    engine = PopulationEngine(workers=EVALUATION_WORKERS, cache_dir=state.cache_dir)
    population = engine.generate_sharded(state.config, hosts_per_shard=SCALE_HOSTS_PER_SHARD)
    for spec in state.specs:
        began = time.perf_counter()
        outcome = run_scenario(spec, population)
        durations.append(time.perf_counter() - began)
        outputs[spec.name] = outcome
    wall = time.perf_counter() - started
    outputs = {name: _canonical(outcome.to_dict()) for name, outcome in outputs.items()}
    return Iteration(outputs=outputs, wall_seconds=wall, scenario_seconds=durations)


WORKLOADS: Dict[str, Workload] = {
    "paper-figures": Workload(
        name="paper-figures",
        host_weeks=lambda seed: PAPER_EVALUATIONS * PAPER_HOSTS,
        build=_paper_build,
        open=_paper_open,
        iterate=_paper_iterate,
    ),
    "retrain-campaign": Workload(
        name="retrain-campaign",
        host_weeks=_campaign_host_weeks,
        build=_campaign_build,
        open=_campaign_open,
        iterate=_campaign_iterate,
    ),
    "sampled-scaleout": Workload(
        name="sampled-scaleout",
        host_weeks=lambda seed: len(_scale_specs(seed)) * SCALE_SAMPLE_SIZE,
        build=_scale_build,
        open=_scale_open,
        iterate=_scale_iterate,
        setup_workers=SHARDED_SETUP_WORKERS,
        shard_bytes=lambda state, index: state.shard_hosts[index] * state.host_bytes,
    ),
}
