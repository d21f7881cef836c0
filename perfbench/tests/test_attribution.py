"""Attribution self-test: an injected slowdown is pinned on the right layer.

``ConfigurationPolicy.assign`` is wrapped with a deliberate 1.3x slowdown on
a short paper-figures run.  The per-layer diff against an unwrapped run must
name ``core.assign`` and no other layer.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from perfbench import layers, workloads
from repro.core.policies import ConfigurationPolicy
from repro.engine import PopulationEngine
from repro.workload.enterprise import EnterpriseConfig

SLOWDOWN = 1.3
ROUNDS = 9
HOSTS = 80


@contextmanager
def slowed_assign(factor: float):
    """Make every ``assign`` call take ``factor`` times as long (busy wait)."""
    original = ConfigurationPolicy.assign

    def slow(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        deadline = time.perf_counter() + (factor - 1.0) * (time.perf_counter() - started)
        while time.perf_counter() < deadline:
            pass
        return result

    ConfigurationPolicy.assign = slow
    try:
        yield
    finally:
        ConfigurationPolicy.assign = original


def _layer_self_times(population, slow: bool):
    tracer = layers.LayerTracer()
    if slow:
        with slowed_assign(SLOWDOWN), layers.install(tracer):
            workloads.WORKLOADS["paper-figures"].iterate(population)
    else:
        with layers.install(tracer):
            workloads.WORKLOADS["paper-figures"].iterate(population)
    return tracer.layer_self_times()


def test_injected_assign_slowdown_is_attributed_to_core_assign():
    config = EnterpriseConfig(num_hosts=HOSTS, num_weeks=2, seed=2009)
    population = PopulationEngine(workers=1, use_cache=False).generate(config)
    pairs = []
    for round_index in range(ROUNDS):
        # Adjacent runs in ABBA order, so the machine's drifting speed
        # cancels out of each pair's difference.
        order = (False, True) if round_index % 2 == 0 else (True, False)
        run = {slow: _layer_self_times(population, slow) for slow in order}
        pairs.append((run[False], run[True]))
    base = {
        layer: statistics.median(plain[layer] for plain, _ in pairs) for layer in layers.LAYERS
    }
    head = {
        layer: base[layer] + statistics.median(slow[layer] - plain[layer] for plain, slow in pairs)
        for layer in layers.LAYERS
    }

    assert layers.moved_layers(base, head) == ["core.assign"]
    assert 1.15 < head["core.assign"] / base["core.assign"] < 1.5
