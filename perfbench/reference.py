"""Regenerate ``reference.json``: output digests of every workload on the reference seed.

    python3 perfbench/reference.py

Run it only when a change is meant to alter the program's outputs; the
benchmark otherwise treats any difference from these digests as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import checks, workloads  # noqa: E402


def main() -> int:
    reference = {}
    run_dir = ROOT / ".perfbench" / "reference"
    for name, workload in workloads.WORKLOADS.items():
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            workload.build(run_dir / "cache", checks.REFERENCE_SEED)
            state = workload.open(run_dir / "cache", checks.REFERENCE_SEED, run_dir)
            outputs = workload.iterate(state).outputs
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        problems = checks.check_outputs(name, checks.REFERENCE_SEED, outputs, {}, {})
        failed = {operation: found for operation, found in problems.items() if found}
        if failed:
            print(f"{name}: outputs fail their invariants: {failed}", file=sys.stderr)
            return 1
        reference[name] = {
            operation: checks.digest(output) for operation, output in outputs.items()
        }
        print(f"{name}: {len(outputs)} operation digest(s)")
    checks.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
