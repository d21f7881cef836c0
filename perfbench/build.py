"""Cold set-up of one workload, run in its own process by ``run.py``.

Builds the workload's population into an empty cache directory and prints
one JSON line: the build's wall clock in seconds and, with ``--trace 1``,
the engine's per-layer set-up metrics.  Running it apart from the measured
process keeps generation out of that process's peak memory.

    python3 perfbench/build.py --workload paper-figures --seed 2009 \
        --cache-dir .perfbench/cache --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import layers, workloads  # noqa: E402
from repro.telemetry import TelemetryRecorder, use_recorder  # noqa: E402


def _tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    recorder = TelemetryRecorder()
    started = time.perf_counter()
    if args.trace:
        with use_recorder(recorder):
            workload.build(args.cache_dir, args.seed)
    else:
        workload.build(args.cache_dir, args.seed)
    result = {"seconds": time.perf_counter() - started}
    if args.trace:
        # Pool workers generate chunks concurrently, so their spans overlap
        # under engine.generate: self time must come from the interval union.
        generation = [
            span
            for span in recorder.spans
            if span.name in ("engine.generate", "engine.shard.generate")
        ]
        result["metrics"] = {
            "engine.generate_s": sum(span.duration for span in generation),
            "engine.hosts_generated": recorder.counters.get("engine.hosts_generated", 0),
            "engine.population_bytes": _tree_bytes(args.cache_dir),
        }
        result["spans"] = layers.program_span_summary(recorder.spans)
        result["negative_self_times"] = layers.negative_self_times(recorder.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
