"""The headline experiments run on the train -> assign -> measure stages.

``tests/data/golden_experiments.json`` was captured by
``scripts/dev_capture_golden.py`` on code that re-trained and re-assigned
inside every ``evaluate_policy`` call.  Training once per experiment and
assigning once per (heuristic or optimizer, policy) must reproduce every
float bit for bit, and the span counts pin that reuse: a regression to
per-cell re-training shows up as extra ``core.train`` / ``core.assign``
spans.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import run_fig3, run_fig4, run_table3
from repro.experiments.fig3_utility import run_fig3_cooptimized
from repro.experiments.table3_alarms import run_table3_fused
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_experiments.json"

CONFIG = EnterpriseConfig(num_hosts=24, num_weeks=2, seed=77)

SUMMARY_FIELDS = ("count", "mean", "std", "minimum", "q1", "median", "q3", "maximum")


def _floats(values):
    return [repr(float(value)) for value in values]


def _table(table):
    return {
        row: {column: repr(float(value)) for column, value in cells.items()}
        for row, cells in table.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def population():
    return generate_enterprise(CONFIG)


def _stage_counts(experiment, population):
    recorder = TelemetryRecorder()
    with use_recorder(recorder):
        result = experiment(population)
    return result, Counter(span.name for span in recorder.spans)


class TestGoldenExperiments:
    def test_fig3_matches_fixture(self, golden, population):
        result = run_fig3(population)
        expected = golden["fig3"]
        mean_utilities = {name: repr(float(v)) for name, v in result.mean_utilities().items()}
        assert mean_utilities == expected["mean_utilities"]
        assert _floats(result.gain_by_weight()) == expected["gain_by_weight"]
        sweep = {name: _floats(values) for name, values in result.weight_sweep.items()}
        assert sweep == expected["weight_sweep"]
        boxplots = {
            name: {field: repr(float(getattr(summary, field))) for field in SUMMARY_FIELDS}
            for name, summary in result.boxplots.items()
        }
        assert boxplots == expected["boxplots"]

    def test_table3_matches_fixture(self, golden, population):
        assert _table(run_table3(population).alarms) == golden["table3"]

    def test_fig3_cooptimized_matches_fixture(self, golden, population):
        result = run_fig3_cooptimized(population)
        expected = golden["fig3_cooptimized"]
        assert _table(result.mean_utilities) == expected["mean_utilities"]
        assert _table(result.detection_rates) == expected["detection_rates"]
        assert _table(result.objective_values) == expected["objective_values"]

    def test_table3_fused_matches_fixture(self, golden, population):
        result = run_table3_fused(population)
        expected = golden["table3_fused"]
        assert _table(result.alarms) == expected["alarms"]
        assert _table(result.objective_values) == expected["objective_values"]


class TestStageReuse:
    """Each run trains once and assigns once per (heuristic, policy)."""

    def test_fig3_trains_once_and_assigns_per_policy(self, population):
        result, counts = _stage_counts(run_fig3, population)
        assert counts["core.train"] == 1
        assert counts["core.assign"] == 3
        assert counts["core.measure"] == 3 * 10  # three policies x ten attack sizes
        assert len(result.evaluations) == 3

    def test_table3_trains_once_and_assigns_per_heuristic_and_policy(self, population):
        _, counts = _stage_counts(run_table3, population)
        assert counts["core.train"] == 1
        assert counts["core.assign"] == 6
        assert counts["core.measure"] == 6

    def test_fig4_panels_share_one_assignment_per_policy(self, population):
        result, counts = _stage_counts(run_fig4, population)
        assert counts["core.train"] == 1
        assert counts["core.assign"] == 3
        assert counts["core.measure"] == 3 * len(result.attack_sizes)

    def test_fused_variants_train_once(self, population):
        for experiment in (run_fig3_cooptimized, run_table3_fused):
            _, counts = _stage_counts(experiment, population)
            assert counts["core.train"] == 1
            assert counts["core.assign"] == 6  # two optimizers x three policies
            assert counts["core.measure"] == 6
