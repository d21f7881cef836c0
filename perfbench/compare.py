"""Compare two benchmark results written by ``run.py``.

    python3 perfbench/compare.py .perfbench/results/base.json .perfbench/results/head.json

Prints every metric of both results with its relative change (and, for
end-to-end metrics, the bound from ``BENCHMARK.json``).  For traced results
it also prints each layer's self time and names the layers that moved.  It
warns when the two results come from different machines, because then the
difference says nothing about the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)

from perfbench import layers, provenance  # noqa: E402


def _change(base: float, head: float) -> str:
    if base == 0:
        return "n/a" if head == 0 else "new"
    return f"{(head - base) / base:+.1%}"


def compare(base: dict, head: dict, bounds: dict) -> list:
    """The comparison report as lines of text."""
    lines = []
    mismatch = provenance.machine_mismatch(base["provenance"], head["provenance"])
    if mismatch:
        lines.append(
            "WARNING: results come from different machines (differ in "
            + ", ".join(mismatch)
            + "); this is not a same-machine comparison"
        )
    if (base["workload"], base["trace"]) != (head["workload"], head["trace"]):
        lines.append("WARNING: results are of different workloads or trace modes")
    lines.append(f"{'metric':<32} {'base':>14} {'head':>14} {'change':>8}  bound")
    for name, entry in base["metrics"].items():
        if name not in head["metrics"]:
            continue
        before, after = entry["value"], head["metrics"][name]["value"]
        bound = f"{bounds[name]:.0%}" if name in bounds else ""
        change = _change(before, after)
        lines.append(f"{name:<32} {before:>14.6g} {after:>14.6g} {change:>8}  {bound}")
    if "layers_self_s" in base and "layers_self_s" in head:
        lines.append("")
        lines.append(f"{'layer self time (s)':<32} {'base':>14} {'head':>14} {'change':>8}")
        for layer in layers.LAYERS:
            before, after = base["layers_self_s"][layer], head["layers_self_s"][layer]
            lines.append(f"{layer:<32} {before:>14.6g} {after:>14.6g} {_change(before, after):>8}")
        moved = layers.moved_layers(base["layers_self_s"], head["layers_self_s"])
        lines.append("layers that moved: " + (", ".join(moved) if moved else "none"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    head = json.loads(args.head.read_text(encoding="utf-8"))
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {entry["name"]: entry["bound"] for entry in definition["end_to_end"]}
    print("\n".join(compare(base, head, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
