"""The correctness checks catch wrong outputs and tolerate last-digit noise."""

from __future__ import annotations

from perfbench import checks

GOOD_SAMPLE = {
    "mean_utility": 0.6,
    "utility_ci_low": 0.59,
    "utility_ci_high": 0.61,
    "sample_size": 256,
    "bootstrap_iterations": 200,
}


def test_digest_ignores_last_ulp_noise_but_not_real_changes():
    value = {"a": [0.1 + 0.2, 1.0]}
    assert checks.digest(value) == checks.digest({"a": [0.3, 1.0]})
    assert checks.digest(value) != checks.digest({"a": [0.3001, 1.0]})


def test_ci_that_misses_its_mean_fails():
    outputs = {"ok": GOOD_SAMPLE, "bad": dict(GOOD_SAMPLE, mean_utility=0.7)}
    problems = checks.check_outputs("sampled-scaleout", 5, outputs, {}, {})
    assert problems["ok"] == []
    assert problems["bad"]


def test_output_that_changes_within_a_run_fails():
    first = {"ok": checks.digest(GOOD_SAMPLE)}
    changed = dict(GOOD_SAMPLE, utility_ci_high=0.62)
    problems = checks.check_outputs("sampled-scaleout", 5, {"ok": changed}, first, {})
    assert problems["ok"]


def test_reference_seed_compares_against_stored_digests():
    reference = {"sampled-scaleout": {"ok": "0" * 64}}
    problems = checks.check_outputs(
        "sampled-scaleout", checks.REFERENCE_SEED, {"ok": GOOD_SAMPLE}, {}, reference
    )
    assert any("reference" in problem for problem in problems["ok"])
