"""Self time by interval union, input keying and layer-move verdicts."""

from __future__ import annotations

from perfbench import layers
from perfbench.layers import Span, moved_layers, self_times, union_length
from repro.core.evaluation import DetectionProtocol, evaluate_policy
from repro.core.policies import HomogeneousPolicy
from repro.core.thresholds import PercentileHeuristic
from repro.engine import PopulationEngine
from repro.features.definitions import Feature
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise


def test_union_counts_overlaps_once():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 1.0), (0.2, 0.5)]) == 1.0
    assert union_length([]) == 0.0


def test_self_time_subtracts_union_of_concurrent_children():
    # Two pool workers run concurrently under one parent: summing their
    # durations (1.6 s) would exceed the parent's 1.0 s.
    spans = [
        Span(1, None, "engine.generate", 0.0, 1.0),
        Span(2, 1, "engine.generate", 0.1, 0.9),
        Span(3, 1, "engine.generate", 0.1, 0.9),
    ]
    own = self_times(spans)
    assert abs(own[1] - 0.2) < 1e-12
    assert abs(own[2] - 0.8) < 1e-12


def test_child_outside_its_parent_gives_negative_self_time():
    # A child timed past its parent (wrong clock, wrong parent) is not
    # clipped away: the parent's self time goes negative, which fails a run.
    spans = [Span(1, None, "core.assign", 1.0, 2.0), Span(2, 1, "core.measure", 0.5, 2.5)]
    assert self_times(spans)[1] == -1.0
    assert layers.negative_self_times(spans) == [
        "core.assign (span 1) has negative self time -1 s"
    ]
    misattached = [Span(1, None, "sweeps.run", 0.0, 1.0), Span(2, 1, "core.assign", 3.0, 4.5)]
    assert self_times(misattached)[1] == -0.5
    assert len(layers.negative_self_times(misattached)) == 1


def test_parallel_generation_has_no_negative_self_time():
    recorder = TelemetryRecorder()
    config = EnterpriseConfig(num_hosts=80, num_weeks=1, seed=5)
    with use_recorder(recorder):
        PopulationEngine(workers=2, use_cache=False, min_parallel_hosts=1).generate(config)
    summary = layers.program_span_summary(recorder.spans)
    assert summary["engine.generate_chunk"]["calls"] >= 2
    assert layers.negative_self_times(recorder.spans) == []


def test_repeated_assign_inputs_are_counted_once():
    population = generate_enterprise(EnterpriseConfig(num_hosts=12, num_weeks=2, seed=3))
    matrices = population.matrices()
    protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
    tracer = layers.LayerTracer()
    with layers.install(tracer):
        for percentile in (99.0, 99.0, 95.0):
            evaluate_policy(matrices, HomogeneousPolicy(PercentileHeuristic(percentile)), protocol)
    assert tracer.calls("core.assign") == 3
    assert len(set(tracer.assign_inputs)) == 2
    # Wrappers are removed again on exit.
    assert not hasattr(HomogeneousPolicy.assign, "__wrapped__")


def test_moved_layers_ignores_noise_and_tiny_layers():
    base = dict.fromkeys(layers.LAYERS, 0.0)
    base.update({"core.assign": 2.0, "core.measure": 1.5, "core.sampling": 0.01})
    head = dict(base, **{"core.assign": 2.6, "core.measure": 1.55, "core.sampling": 0.02})
    assert moved_layers(base, head) == ["core.assign"]
