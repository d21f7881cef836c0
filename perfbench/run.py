"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-figures --seed 2009 --seconds 10 --trace 0

A run builds the workload's population cold (``build.py``, in separate
processes, several times; the median is ``setup_s``), prepares the warm
state untimed from the first build, then repeats the workload for
``--seconds`` in :data:`TIMED_SLICES` slices between the later builds,
checking every output (``checks.py``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics (``layers.py``); the ratio of the two kinds of iteration is
the tracing overhead.  Either way a human-readable table goes to standard
output, the full result (with its provenance block) to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``, and the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path[0] = str(ROOT)

from perfbench import checks, layers, provenance  # noqa: E402

WORK_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-figures", "retrain-campaign", "sampled-scaleout")

#: Cold builds per untraced run, whose median is ``setup_s``: at least
#: three, and more (up to nine) until they add up to a few seconds, so a
#: short build is sampled often enough to give a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_SECONDS = 3.0
#: The timed phase of an untraced run is cut into this many slices, with a
#: cold build between slices, so it samples the machine's speed over a
#: longer stretch of time (the speed of a shared machine drifts over tens
#: of seconds).  Each slice runs at least one iteration.
TIMED_SLICES = 3
#: Fewest traced iterations per traced run, so counts can be compared.
MIN_TRACED_ITERATIONS = 2
BUILD_TIMEOUT_SECONDS = 300


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2009, help="population seed")
    parser.add_argument("--seconds", type=int, default=10, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _build(workload: str, seed: int, cache_dir: Path, trace: int) -> Dict[str, Any]:
    """One cold build in its own process; returns build.py's JSON line."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "build.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--cache-dir", str(cache_dir),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=BUILD_TIMEOUT_SECONDS,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up build failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


class _Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: Dict[str, str] = {}

    def check(self, workload: str, seed: int, outputs, reference) -> None:
        problems = checks.check_outputs(workload, seed, outputs, self.first, reference)
        if not self.first:
            self.first = {name: checks.digest(output) for name, output in outputs.items()}
        self.attempted += len(problems)
        for operation, found in problems.items():
            if found:
                self.failed += 1
                for problem in found:
                    print(f"perfbench: FAILED {operation}: {problem}", file=sys.stderr)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {reason}", file=sys.stderr)


def _iterate(workload, state, tally: _Tally):
    try:
        return workload.iterate(state)
    except Exception:  # the program under test raised: count it and stop
        tally.fail(f"{workload.name} iteration raised:\n{traceback.format_exc()}")
        return None


def _cold_build(args, cache_dir: Path) -> float:
    """Seconds of one more cold build, whose cache is then thrown away."""
    seconds = _build(args.workload, args.seed, cache_dir, trace=0)["seconds"]
    shutil.rmtree(cache_dir)
    return seconds


def _wants_setup(setups: List[float]) -> bool:
    return len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
    )


def _untraced(args, workload, run_dir: Path, tally: _Tally) -> Tuple[Dict, Dict]:
    from repro.utils.resources import peak_rss_mb

    timed_cache = run_dir / "cache-0"
    setups = [_build(args.workload, args.seed, timed_cache, trace=0)["seconds"]]
    state = workload.open(timed_cache, args.seed, run_dir)
    reference = checks.load_reference()
    host_weeks = workload.host_weeks(args.seed)

    walls: List[float] = []
    scenarios: List[float] = []
    for slice_index in range(1, TIMED_SLICES + 1):
        # Each slice ends at its share of --seconds: another iteration starts
        # only while it would end nearer that target than the last one did.
        target = args.seconds * slice_index / TIMED_SLICES
        first = len(walls)
        while len(walls) == first or sum(walls) + walls[-1] / 2 < target:
            iteration = _iterate(workload, state, tally)
            if iteration is None:
                break
            walls.append(iteration.wall_seconds)
            scenarios.extend(iteration.scenario_seconds)
            tally.check(args.workload, args.seed, iteration.outputs, reference)
        if iteration is None:
            break
        if _wants_setup(setups):
            setups.append(_cold_build(args, run_dir / f"cache-{len(setups)}"))
    if not walls:
        return {}, {}
    while _wants_setup(setups):
        setups.append(_cold_build(args, run_dir / f"cache-{len(setups)}"))
    metrics = {
        "setup_s": statistics.median(setups),
        "host_weeks_per_s": host_weeks * len(walls) / sum(walls),
        "scenario_p50_s": statistics.median(scenarios),
        "peak_rss_mib": peak_rss_mb(),
    }
    detail = {
        "setup_runs_s": setups,
        "iteration_walls_s": walls,
        "host_weeks_per_iteration": host_weeks,
        "scenarios_timed": len(scenarios),
    }
    return metrics, detail


def _traced(args, workload, run_dir: Path, tally: _Tally) -> Tuple[Dict, Dict]:
    from repro.telemetry import TelemetryRecorder, use_recorder

    cache_dir = run_dir / "cache-0"
    setup = _build(args.workload, args.seed, cache_dir, trace=1)
    state = workload.open(cache_dir, args.seed, run_dir)
    reference = checks.load_reference()

    untraced_walls: List[float] = []
    traced: List[Any] = []
    started = time.perf_counter()
    while len(traced) < MIN_TRACED_ITERATIONS or time.perf_counter() - started < args.seconds:
        tracing = len(untraced_walls) > len(traced)
        if tracing:
            tracer, recorder = layers.LayerTracer(), TelemetryRecorder()
            with use_recorder(recorder), layers.install(tracer):
                iteration = _iterate(workload, state, tally)
        else:
            iteration = _iterate(workload, state, tally)
        if iteration is None:
            break
        tally.check(args.workload, args.seed, iteration.outputs, reference)
        if not tracing:
            untraced_walls.append(iteration.wall_seconds)
            continue
        measured = layers.iteration_metrics(
            tracer, recorder, iteration.wall_seconds, lambda i: workload.shard_bytes(state, i)
        )
        traced.append(measured)
    if not traced:
        return {}, {}

    for problem in setup["negative_self_times"]:
        tally.fail(f"set-up span {problem}")
    for measured in traced:
        for problem in measured.negative:
            tally.fail(f"traced span {problem}")
    metrics: Dict[str, float] = dict(setup["metrics"])
    for name in traced[0].metrics:
        values = [measured.metrics[name] for measured in traced]
        if name in layers.COUNT_METRICS:
            if len(set(values)) != 1:
                tally.fail(f"count {name} differs between traced iterations: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(
        [measured.wall_seconds for measured in traced]
    ) / statistics.median(untraced_walls)
    detail = {
        "layers_self_s": {
            layer: statistics.median([measured.layers[layer] for measured in traced])
            for layer in layers.LAYERS
        },
        "layers_inclusive_s": {
            layer: statistics.median([measured.inclusive[layer] for measured in traced])
            for layer in layers.LAYERS
        },
        "wall_s": statistics.median([measured.wall_seconds for measured in traced]),
        "program_spans": traced[-1].program_spans,
        "setup_spans": setup["spans"],
    }
    return metrics, detail


def _print_table(metrics: Dict[str, float], units: Dict[str, str], tally: _Tally) -> None:
    width = max(len(name) for name in metrics) if metrics else 10
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g} {units[name]}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':<{width}}  {rate:>16.6g} failed/attempted")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    tally = _Tally()
    run_dir = WORK_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail = _traced(args, workload, run_dir, tally)
        else:
            metrics, detail = _untraced(args, workload, run_dir, tally)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {args.workload} could not be set up: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not metrics:
        print(f"perfbench: {args.workload} produced no measurement", file=sys.stderr)
        return 1

    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = definition["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, **detail,
                  provenance=provenance.collect(
                      ROOT, workload.setup_workers, workloads.EVALUATION_WORKERS))
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}):")
    _print_table({name: metrics[name] for name in units}, units, tally)
    print(f"  result written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
