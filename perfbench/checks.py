"""Correctness checks run on every benchmark iteration.

Every operation's output is checked three ways:

* it must be identical to the same operation's output in the run's first
  iteration (same seed, same inputs, so any difference is a defect);
* on the reference seed it must match the digest stored in
  ``reference.json`` (regenerate with ``python3 perfbench/reference.py``
  only when a change is meant to alter the outputs);
* on every seed it must satisfy the workload's seed-independent invariants.

Fig3's paper-shape asserts (diversity beats the monoculture; the gain grows
with the weight) hold on the reference seed but not on every population
seed, so they are covered by the reference digest rather than asserted as
invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping

REFERENCE_SEED = 2009
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _rounded(value: Any) -> Any:
    """``value`` with floats cut to 12 significant digits (last-ulp tolerant)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, Mapping):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def digest(output: Any) -> str:
    """Content digest of one operation's canonical output."""
    payload = json.dumps(_rounded(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, Dict[str, str]]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _within(value: float, low: float, high: float) -> bool:
    return math.isfinite(value) and low <= value <= high


def _summary_problems(name: str, summary: Mapping[str, float]) -> List[str]:
    order = ["minimum", "q1", "median", "q3", "maximum"]
    values = [summary[key] for key in order]
    if any(not math.isfinite(value) for value in values) or values != sorted(values):
        return [f"{name}: summary quantiles out of order {values}"]
    return []


# ----------------------------------------------------------------- invariants
def _fig3(output: Mapping[str, Any]) -> List[str]:
    problems = []
    for policy, mean in output["mean_utilities"].items():
        if not _within(mean, 0.0, 1.0):
            problems.append(f"fig3 {policy}: mean utility {mean} outside [0, 1]")
    if len(output["gain_by_weight"]) != 9 or not all(
        _within(gain, -1.0, 1.0) for gain in output["gain_by_weight"]
    ):
        problems.append(f"fig3: bad gain-by-weight series {output['gain_by_weight']}")
    for policy, summary in output["boxplots"].items():
        problems += _summary_problems(f"fig3 {policy}", summary)
    return problems


def _table3(output: Mapping[str, Any]) -> List[str]:
    problems = []
    hosts = output["num_hosts"]
    for heuristic, row in output["alarms"].items():
        for policy, alarms in row.items():
            if not _within(alarms, 0.0, math.inf):
                problems.append(f"table3 {heuristic}/{policy}: {alarms} alarms")
    # Paper shape, which holds on every seed tried: partial diversity sends
    # no more alarms than the monoculture (20% slack) at a few per host.
    row = output["alarms"]["99th-percentile"]
    if row["8-partial"] > row["homogeneous"] * 1.2:
        problems.append(f"table3: 8-partial {row['8-partial']} > 1.2 x homogeneous")
    if not 0.0 < row["full-diversity"] / hosts < 20.0:
        problems.append(f"table3: full-diversity {row['full-diversity']} alarms/week")
    return problems


def _fig4(output: Mapping[str, Any]) -> List[str]:
    problems = []
    for policy, curve in output["detection_curves"].items():
        if not all(_within(rate, 0.0, 1.0) for rate in curve):
            problems.append(f"fig4 {policy}: detection rate outside [0, 1]")
        # A bigger naive attack can never be detected on fewer hosts.
        if any(later < earlier for earlier, later in zip(curve, curve[1:])):
            problems.append(f"fig4 {policy}: detection falls as the attack grows")
    for policy, summary in output["hidden_traffic"].items():
        problems += _summary_problems(f"fig4 {policy}", summary)
        if summary["minimum"] < 0.0:
            problems.append(f"fig4 {policy}: negative hidden traffic")
    return problems


def _timeline_record(name: str, metrics: Mapping[str, Any]) -> List[str]:
    problems = []
    if metrics["num_timeline_weeks"] != 4 or len(metrics["timeline"]) != 4:
        problems.append(f"{name}: expected 4 deployed weeks")
    expected = {"never": (0, 0), "every-1-weeks": (3, 3)}.get(metrics["schedule"], (0, 3))
    if not expected[0] <= metrics["retrain_count"] <= expected[1]:
        problems.append(f"{name}: {metrics['retrain_count']} retrains on {metrics['schedule']}")
    utilities = [metrics["mean_utility"]] + [
        week["mean_utility"] for week in metrics["timeline"].values()
    ]
    if not all(_within(utility, 0.0, 1.0) for utility in utilities):
        problems.append(f"{name}: utility outside [0, 1]")
    return problems


def _read_back(output: Mapping[str, Any]) -> List[str]:
    if output["records"] != 18 or not output["matches_run"]:
        return [f"store read-back: {output['records']} records, matches={output['matches_run']}"]
    return []


def _sampled(name: str, metrics: Mapping[str, Any]) -> List[str]:
    low, high = metrics["utility_ci_low"], metrics["utility_ci_high"]
    mean = metrics["mean_utility"]
    problems = []
    if metrics["sample_size"] != 256 or metrics["bootstrap_iterations"] != 200:
        problems.append(
            f"{name}: {metrics['sample_size']} hosts x {metrics['bootstrap_iterations']} resamples"
        )
    if not (_within(low, 0.0, 1.0) and _within(high, 0.0, 1.0) and low <= mean <= high):
        problems.append(f"{name}: CI [{low}, {high}] does not contain mean {mean}")
    return problems


def _invariants(workload: str, operation: str) -> Callable[[Any], List[str]]:
    if workload == "paper-figures":
        return {"fig3": _fig3, "table3": _table3, "fig4": _fig4}[operation]
    if workload == "retrain-campaign":
        if operation == "store.read_back":
            return _read_back
        return lambda output: _timeline_record(operation, output)
    return lambda output: _sampled(operation, output)


def check_outputs(
    workload: str,
    seed: int,
    outputs: Mapping[str, Any],
    first: Mapping[str, str],
    reference: Mapping[str, Mapping[str, str]],
) -> Dict[str, List[str]]:
    """Problems per operation (an empty list means the operation passed).

    ``first`` holds the digests of the run's first iteration (empty while
    checking that iteration itself).
    """
    problems: Dict[str, List[str]] = {}
    expected = reference.get(workload, {}) if seed == REFERENCE_SEED else {}
    if expected and set(expected) != set(outputs):
        missing = sorted(set(expected) ^ set(outputs))
        problems["operations"] = [f"operations differ from the reference: {missing}"]
    for operation, output in outputs.items():
        found: List[str] = []
        try:
            found += _invariants(workload, operation)(output)
        except (KeyError, TypeError, ValueError) as error:
            found.append(f"{operation}: malformed output ({error!r})")
        value = digest(output)
        if operation in first and first[operation] != value:
            found.append(f"{operation}: output differs from the run's first iteration")
        if operation in expected and expected[operation] != value:
            found.append(f"{operation}: output differs from the reference digest")
        problems[operation] = found
    return problems
