"""Outside-in layer tracing for the benchmark.

The benchmark attributes time to the program's layers without editing the
program: :func:`install` wraps the public entry point of each layer (table
:data:`LAYER_CALLS`) in a span recorder, and the program's own telemetry
(``repro.telemetry``) is collected alongside by installing a
``TelemetryRecorder``.  Spans stay in memory and are summarised when the run
ends.

Self time is a span's duration minus the *union* of its children's
intervals (:func:`self_times`).  Subtracting the sum of the children's
durations instead goes negative as soon as children overlap, which they do
when pool workers run concurrently.  Children are not clipped to their
parent: a child timed outside its parent makes the parent's self time
negative, and the run fails on it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: The layers, named after the program's modules.
LAYERS = (
    "engine",
    "core.train",
    "core.assign",
    "core.measure",
    "core.sampling",
    "temporal",
    "sweeps",
    "experiments",
)

#: (span name, layer, module, attribute): each layer's public entry points.
#: A dotted attribute is a method, patched on its class; a plain one is a
#: function, patched in every module that imported it.
LAYER_CALLS = (
    ("engine.generate", "engine", "repro.engine.engine", "PopulationEngine.generate"),
    (
        "engine.generate_sharded",
        "engine",
        "repro.engine.engine",
        "PopulationEngine.generate_sharded",
    ),
    ("engine.matrices_for", "engine", "repro.engine.sharded", "ShardedPopulation.matrices_for"),
    ("core.train", "core.train", "repro.core.evaluation", "detection_training_distributions"),
    # Timelines train on a rolling window through the window variant.
    (
        "core.train_window",
        "core.train",
        "repro.core.evaluation",
        "detection_training_window_distributions",
    ),
    ("core.assign", "core.assign", "repro.core.policies", "ConfigurationPolicy.assign"),
    ("core.measure", "core.measure", "repro.core.evaluation", "measure_assignment"),
    (
        "core.sampling.bootstrap",
        "core.sampling",
        "repro.core.sampling",
        "bootstrap_mean_interval",
    ),
    ("temporal.timeline", "temporal", "repro.temporal.timeline", "evaluate_timeline"),
    ("sweeps.run", "sweeps", "repro.sweeps.runner", "SweepRunner.run"),
    ("sweeps.store.append", "sweeps", "repro.sweeps.results", "ResultStore.append"),
    ("sweeps.store.read", "sweeps", "repro.sweeps.results", "ResultStore.records"),
    ("experiments.fig3", "experiments", "repro.experiments.fig3_utility", "run_fig3"),
    ("experiments.table3", "experiments", "repro.experiments.table3_alarms", "run_table3"),
    ("experiments.fig4", "experiments", "repro.experiments.fig4_attacker", "run_fig4"),
)

_LAYER_OF = {name: layer for name, layer, _, _ in LAYER_CALLS}


@dataclass(frozen=True)
class Span:
    """One completed layer call (attribute names match ``repro`` SpanRecord)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Any]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    ``spans`` are objects with ``span_id``, ``parent_id``, ``start`` and
    ``end``.  Concurrent children count once; a child that reaches outside
    its parent's interval is not clipped, so a wrongly timed or wrongly
    attached child shows as negative self time.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start) - union_length(children[span.span_id])
        for span in spans
    }


def negative_self_times(spans: Sequence[Any]) -> List[str]:
    """One line per span whose self time is negative; empty for a sound trace."""
    own = self_times(spans)
    return [
        f"{span.name} (span {span.span_id}) has negative self time {own[span.span_id]:.6g} s"
        for span in spans
        if own[span.span_id] < 0.0
    ]


def _config_key(value: Any) -> Any:
    """A hashable description of a policy component (heuristic, grouping, ...)."""
    if value is None or is_dataclass(value):
        return repr(value)
    attributes = getattr(value, "__dict__", None)
    if attributes is None:
        return repr(value)
    return (
        type(value).__qualname__,
        tuple(sorted((name, repr(item)) for name, item in attributes.items())),
    )


def _policy_key(policy: Any) -> Tuple[Any, ...]:
    return (
        type(policy).__qualname__,
        policy.name,
        _config_key(policy.heuristic),
        _config_key(policy.grouping),
        _config_key(policy.optimizer),
    )


class LayerTracer:
    """Records one span per wrapped layer call, nested by call order.

    Besides spans it keys every ``assign`` call on its input — the policy
    configuration, the training source, features and training week(s) — so
    repeated assignments of identical inputs can be counted.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.assign_inputs: List[Tuple[Any, ...]] = []
        self._stack: List[int] = []
        self._next_id = 1
        # id(training result) -> (source, features, weeks); the objects
        # are kept alive for the tracer's lifetime so ids are never reused.
        self._training: Dict[int, Tuple[Any, ...]] = {}
        self._keep_alive: List[Any] = []

    def call(self, name: str, function: Callable[..., Any], args, kwargs) -> Any:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent_id, name, start, end))
        if _LAYER_OF[name] == "core.train":
            self._note_training(name, args, kwargs, result)
        elif name == "core.assign":
            self._note_assign(args, kwargs)
        return result

    def _note_training(self, name: str, args, kwargs, result) -> None:
        matrices = args[0] if args else kwargs["matrices"]
        features = tuple(args[1] if len(args) > 1 else kwargs["features"])
        if name == "core.train":
            weeks: Tuple[int, ...] = (args[2] if len(args) > 2 else kwargs["week"],)
        else:
            weeks = (
                args[2] if len(args) > 2 else kwargs["start_week"],
                args[3] if len(args) > 3 else kwargs["end_week"],
            )
        # The training source is the set of host matrix objects, so callers
        # that rebuild the host mapping around the same data share a key.
        source = tuple(sorted(id(matrix) for matrix in matrices.values()))
        self._keep_alive.extend((matrices, result))
        self._training[id(result)] = (source, features, weeks)

    def _note_assign(self, args, kwargs) -> None:
        policy = args[0]
        training = args[1] if len(args) > 1 else kwargs["training_distributions"]
        source = self._training.get(id(training))
        if source is None:
            self._keep_alive.append(training)
            source = ("untracked", id(training))
        self.assign_inputs.append((_policy_key(policy), source))

    # ------------------------------------------------------------- summary
    def layer_self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (every layer present, 0 if idle)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.call_self_times().items():
            totals[_LAYER_OF[name]] += seconds
        return totals

    def layer_inclusive_times(self) -> Dict[str, float]:
        """Seconds inside each layer's spans, children included (union)."""
        intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            intervals[_LAYER_OF[span.name]].append((span.start, span.end))
        return {layer: union_length(intervals[layer]) for layer in LAYERS}

    def call_self_times(self) -> Dict[str, float]:
        """Seconds of self time per wrapped call name."""
        totals: Dict[str, float] = defaultdict(float)
        names = {span.span_id: span.name for span in self.spans}
        for span_id, seconds in self_times(self.spans).items():
            totals[names[span_id]] += seconds
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if _LAYER_OF[span.name] == layer)

    def coverage(self, wall_seconds: float) -> float:
        """Share of ``wall_seconds`` spent inside any layer span."""
        roots = [(span.start, span.end) for span in self.spans if span.parent_id is None]
        return union_length(roots) / wall_seconds if wall_seconds > 0 else 0.0


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """(owner, attribute name, current value) for a LAYER_CALLS target."""
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _importers(function: Any) -> List[Tuple[Any, str]]:
    """Every (module, name) binding of ``function`` in loaded repro/perfbench modules."""
    bindings = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(("repro", "perfbench")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                bindings.append((module, name))
    return bindings


@contextmanager
def install(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Wrap every entry point of :data:`LAYER_CALLS` while the block runs."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for name, _, module_name, attribute in LAYER_CALLS:
            owner, leaf, original = _resolve(module_name, attribute)
            wrapper = _wrap(tracer, name, original)
            if isinstance(owner, type):
                restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
            else:
                for module, bound_name in _importers(original):
                    restore.append((module, bound_name, original))
                    setattr(module, bound_name, wrapper)
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


def _wrap(tracer: LayerTracer, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)

    return wrapper


# ---------------------------------------------------------------- program spans
def program_span_summary(spans: Sequence[Any]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (interval union)."""
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own[span.span_id]
    return summary


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class IterationTrace:
    """Per-layer metrics of one traced iteration."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    inclusive: Dict[str, float]
    program_spans: Dict[str, Dict[str, float]]
    wall_seconds: float
    #: Spans (layer or program) with negative self time; must stay empty.
    negative: List[str]


def iteration_metrics(
    tracer: LayerTracer,
    recorder: Any,
    wall_seconds: float,
    shard_bytes: Callable[[int], int],
) -> IterationTrace:
    """The per-layer metrics of one traced iteration.

    ``recorder`` is the installed ``TelemetryRecorder``; ``shard_bytes``
    maps a shard index to the size of its value block, so mapped bytes are
    computed from the shard shapes.
    """
    counters: Mapping[str, int] = recorder.counters
    program = list(recorder.spans)
    shard_loads = [span for span in program if span.name == "engine.shard.load"]
    cache_reads = [span for span in program if span.name == "engine.cache.read"]
    calls = tracer.call_self_times()
    assign_calls = tracer.calls("core.assign")
    distinct = len(set(tracer.assign_inputs))
    layers = tracer.layer_self_times()
    metrics = {
        "engine.shard.load_s": sum(span.duration for span in shard_loads),
        "engine.shard.load_p50_ms": 1000.0
        * median_or_zero([span.duration for span in shard_loads]),
        "engine.shards_loaded": counters.get("engine.shards_loaded", 0),
        "engine.shard.bytes_mapped": sum(
            shard_bytes(int(span.attributes["shard"])) for span in shard_loads
        ),
        "engine.cache.read_s": sum(span.duration for span in cache_reads),
        "engine.cache.hits": counters.get("engine.cache.hits", 0),
        "core.train_s": layers["core.train"],
        "core.train_calls": tracer.calls("core.train"),
        "core.assign_s": layers["core.assign"],
        "core.assign_calls": assign_calls,
        "core.assign_distinct_inputs": distinct,
        "core.assign_useful_ratio": distinct / assign_calls if assign_calls else 0.0,
        "core.measure_s": layers["core.measure"],
        "core.measure_calls": tracer.calls("core.measure"),
        "core.host_weeks_measured": counters.get("core.host_weeks_measured", 0),
        "core.sampling.bootstrap_s": layers["core.sampling"],
        "temporal.timeline_s": layers["temporal"],
        "temporal.retrains": counters.get("temporal.retrains", 0),
        "temporal.weeks_measured": counters.get("temporal.weeks_measured", 0),
        "sweeps.run_s": calls.get("sweeps.run", 0.0),
        "sweeps.store.append_p50_ms": 1000.0
        * median_or_zero(tracer.durations("sweeps.store.append")),
        "sweeps.store.read_s": calls.get("sweeps.store.read", 0.0),
        "sweeps.scenarios_evaluated": counters.get("sweeps.scenarios_evaluated", 0),
        "experiments.fig3_s": calls.get("experiments.fig3", 0.0),
        "experiments.table3_s": calls.get("experiments.table3", 0.0),
        "experiments.fig4_s": calls.get("experiments.fig4", 0.0),
        "trace.coverage": tracer.coverage(wall_seconds),
    }
    return IterationTrace(
        metrics=metrics,
        layers=layers,
        inclusive=tracer.layer_inclusive_times(),
        program_spans=program_span_summary(program),
        wall_seconds=wall_seconds,
        negative=negative_self_times(tracer.spans) + negative_self_times(program),
    )


#: Per-layer metrics that are counts of work: they must repeat exactly
#: between iterations and runs of the same seed.
COUNT_METRICS = (
    "engine.hosts_generated",
    "engine.population_bytes",
    "engine.shards_loaded",
    "engine.shard.bytes_mapped",
    "engine.cache.hits",
    "core.train_calls",
    "core.assign_calls",
    "core.assign_distinct_inputs",
    "core.measure_calls",
    "core.host_weeks_measured",
    "temporal.retrains",
    "temporal.weeks_measured",
    "sweeps.scenarios_evaluated",
)


#: A layer moved when its self time changed by more than MOVED_RELATIVE of
#: its own base value and by more than MOVED_SHARE of the base run's total.
#: The share keeps small layers from being named for noise: on a shared
#: machine the speed of one run drifts by 10-15%.
MOVED_RELATIVE = 0.15
MOVED_SHARE = 0.05


def moved_layers(base: Mapping[str, float], head: Mapping[str, float]) -> List[str]:
    """Layers whose self time moved between two traced runs."""
    total = sum(base.values())
    moved = []
    for layer in LAYERS:
        change = abs(head.get(layer, 0.0) - base.get(layer, 0.0))
        if change > MOVED_RELATIVE * base.get(layer, 0.0) and change > MOVED_SHARE * total:
            moved.append(layer)
    return moved
