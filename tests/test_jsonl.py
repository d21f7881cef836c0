"""Crash safety of the append-only JSONL stores (result store and metrics history)."""

from __future__ import annotations

import logging

import pytest

from repro.metrics.record import MetricsHistory, build_run_record
from repro.sweeps.results import ResultStore, ScenarioRecord
from repro.telemetry import TelemetryRecorder
from repro.utils.jsonl import append_jsonl, read_jsonl
from repro.utils.validation import ValidationError


def _scenario_record(name: str) -> ScenarioRecord:
    return ScenarioRecord(
        sweep="sw",
        scenario=name,
        spec={"policy": {"kind": "homogeneous"}, "attack": {"size": 10.0}},
        metrics={"mean_utility": 0.5, "total_false_alarms": 3},
    )


def _run_record(name: str):
    return build_run_record(
        TelemetryRecorder().snapshot(),
        command="sweep run",
        wall_clock_seconds=1.5,
        run_id=name,
        timestamp="2026-08-07T00:00:00+00:00",
        rss_probe=lambda: 64 * 1024 * 1024,
    )


STORES = {
    "result-store": (ResultStore, _scenario_record),
    "metrics-history": (MetricsHistory, _run_record),
}


@pytest.fixture(params=list(STORES))
def store_kind(request):
    return STORES[request.param]


def _two_record_store(tmp_path, store_kind):
    store_cls, make = store_kind
    path = tmp_path / "store.jsonl"
    store = store_cls(path)
    first, second = make("first"), make("second")
    store.append(first)
    store.append(second)
    return store, path, first, second


def test_cut_at_any_byte_keeps_exactly_the_committed_records(tmp_path, store_kind):
    store, path, first, second = _two_record_store(tmp_path, store_kind)
    original = path.read_bytes()
    boundary = original.index(b"\n") + 1
    for cut in range(boundary):
        path.write_bytes(original[:cut])
        assert store.records() == [], cut
        store.append(first)
        assert path.read_bytes() == original[:boundary], cut
    for cut in range(boundary, len(original)):
        path.write_bytes(original[:cut])
        assert store.records() == [first], cut
        store.append(second)
        assert path.read_bytes() == original, cut


def test_torn_line_is_reported_on_read_and_append(tmp_path, store_kind, caplog):
    store, path, first, second = _two_record_store(tmp_path, store_kind)
    original = path.read_bytes()
    path.write_bytes(original[:-5])
    with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
        store.records()
        store.append(second)
    messages = [record.getMessage() for record in caplog.records]
    assert any("skipping an unterminated final line" in message for message in messages)
    assert any("truncating an unterminated final line" in message for message in messages)


def test_terminated_corrupt_line_still_raises(tmp_path, store_kind):
    store, path, first, second = _two_record_store(tmp_path, store_kind)
    original = path.read_bytes()
    boundary = original.index(b"\n") + 1
    # A torn line that a later append wrote past is corruption, not a crash tail.
    path.write_bytes(original[: boundary + 10] + b"\n" + original[boundary:])
    with pytest.raises(ValidationError, match="store.jsonl:2: not valid JSON"):
        store.records()


def test_missing_file_reads_as_empty(tmp_path, store_kind):
    store_cls, _ = store_kind
    assert store_cls(tmp_path / "absent.jsonl").records() == []


def test_torn_line_longer_than_one_scan_chunk_is_truncated(tmp_path, store_kind):
    store, path, first, second = _two_record_store(tmp_path, store_kind)
    original = path.read_bytes()
    boundary = original.index(b"\n") + 1
    path.write_bytes(original[:boundary] + b'{"torn": "' + b"x" * 200_000)
    assert store.records() == [first]
    store.append(second)
    assert path.read_bytes() == original


def test_append_creates_missing_directories_and_keeps_append_order(tmp_path):
    path = tmp_path / "nested" / "deeper" / "log.jsonl"
    append_jsonl(path, {"b": 2, "a": 1})
    append_jsonl(path, {"n": 2})
    assert read_jsonl(path) == [{"a": 1, "b": 2}, {"n": 2}]
    assert path.read_bytes() == b'{"a": 1, "b": 2}\n{"n": 2}\n'


def test_blank_lines_are_not_records(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\n\n  \n{"n": 2}\n')
    assert read_jsonl(path) == [{"n": 1}, {"n": 2}]


def test_whitespace_only_tail_is_not_reported_as_torn(tmp_path, caplog):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\n   ')
    with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
        assert read_jsonl(path) == [{"n": 1}]
    assert caplog.records == []


def test_file_that_is_only_a_torn_line_is_emptied_by_the_next_append(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"torn": tr')
    assert read_jsonl(path) == []
    append_jsonl(path, {"n": 1})
    assert path.read_bytes() == b'{"n": 1}\n'


def test_corrupt_line_error_names_its_line_number(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\n{"n": 2}\nnot json\n')
    with pytest.raises(ValidationError, match=r"log.jsonl:3: not valid JSON"):
        read_jsonl(path)
