"""CI check: every benchmark workload runs and reproduces its reference outputs.

``perfbench/run.py`` prints its JSON result as the last line of standard
output and exits 0 even when an output does not match
``perfbench/reference.json``.  This check runs each workload briefly and
fails unless that last line reports ``"correct": true`` with no failed
operation.

Usage::

    python scripts/ci_checks/check_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, List

REPO = Path(__file__).resolve().parents[2]

WORKLOADS = ("paper-figures", "retrain-campaign", "sampled-scaleout")

#: Seed whose outputs ``perfbench/reference.json`` pins, and the run length.
SEED = 2009
SECONDS = 3


def command(workload: str) -> List[str]:
    """The benchmark invocation for one workload."""
    return [
        sys.executable,
        str(REPO / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        str(SECONDS),
        "--trace",
        "0",
    ]


def check_output(workload: str, returncode: int, stdout: str) -> List[str]:
    """Every problem with one workload's run, as human-readable messages."""
    if returncode != 0:
        return [f"{workload}: run.py exited with status {returncode}"]
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return [f"{workload}: run.py printed nothing"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{workload}: last line is not a JSON result: {lines[-1]!r}"]
    if not isinstance(result, dict):
        return [f"{workload}: last line is not a JSON object"]
    errors = []
    if result.get("correct") is not True:
        errors.append(f"{workload}: outputs do not match (correct={result.get('correct')!r})")
    if result.get("failed") != 0:
        errors.append(
            f"{workload}: {result.get('failed')!r} of {result.get('attempted')!r} "
            "operation(s) failed"
        )
    return errors


def run_workload(workload: str) -> subprocess.CompletedProcess:
    """Run one workload from the repository root, capturing its output."""
    return subprocess.run(command(workload), cwd=REPO, capture_output=True, text=True, check=False)


def main(run: Callable[[str], subprocess.CompletedProcess] = run_workload) -> int:
    errors: List[str] = []
    for workload in WORKLOADS:
        completed = run(workload)
        problems = check_output(workload, completed.returncode, completed.stdout)
        if problems and completed.stderr:
            print(completed.stderr, file=sys.stderr)
        errors.extend(problems)
    if errors:
        for error in errors:
            print(f"check_perfbench: FAIL: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(WORKLOADS)} workload(s) reproduce reference outputs "
        f"(seed {SEED}, {SECONDS} s each, 0 failed operations)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
