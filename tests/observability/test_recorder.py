"""The trace recorder: envelope, sequencing, torn traces, no-op default."""

import io
import json

import numpy as np
import pytest

from repro.observability.events import EVENT_TYPES, SCHEMA_VERSION, validate_event
from repro.observability.recorder import (
    NULL_RECORDER,
    Recorder,
    TraceRecorder,
    read_trace,
)

pytestmark = pytest.mark.observability


class FakeClock:
    def __init__(self, minutes=0.0):
        self.elapsed_minutes = minutes


def test_envelope_fields_and_sequencing(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceRecorder(path) as rec:
        rec.emit("run_start", tuner="hstuner")
        rec.emit("run_end", stop_reason="budget")
    events = read_trace(path)
    assert [e["event"] for e in events] == ["run_start", "run_end"]
    assert [e["seq"] for e in events] == [1, 2]
    assert all(e["schema"] == SCHEMA_VERSION for e in events)
    assert all(e["wall_s"] >= 0 for e in events)
    assert "sim_minutes" not in events[0]  # no clock bound
    assert events[0]["tuner"] == "hstuner"


def test_bound_clock_stamps_sim_minutes(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = TraceRecorder(path)
    clock = FakeClock()
    rec.bind_clock(clock)
    clock.elapsed_minutes = 12.5
    rec.emit("baseline", perf=1.0)
    rec.close()
    (event,) = read_trace(path)
    assert event["sim_minutes"] == 12.5


def test_numpy_payloads_serialise(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceRecorder(path) as rec:
        rec.emit(
            "evaluation",
            perf=np.float64(3.5),
            genome=np.array([1, 2]),
            iteration=np.int64(4),
            subset=("a", "b"),
        )
    (event,) = read_trace(path)
    assert event["perf"] == 3.5
    assert event["genome"] == [1, 2]
    assert event["iteration"] == 4
    assert event["subset"] == ["a", "b"]


def test_unserialisable_payload_raises(tmp_path):
    rec = TraceRecorder(tmp_path / "t.jsonl")
    with pytest.raises(TypeError, match="cannot serialise"):
        rec.emit("cache", op=object())


def test_emit_after_close_is_a_noop(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = TraceRecorder(path)
    rec.emit("cache", op="hit")
    rec.close()
    rec.emit("cache", op="miss")  # late straggler: dropped, no crash
    rec.close()  # idempotent
    assert len(read_trace(path)) == 1


def test_file_like_sink_is_not_closed():
    sink = io.StringIO()
    rec = TraceRecorder(sink)
    rec.emit("cache", op="hit")
    rec.close()
    assert not sink.closed
    assert json.loads(sink.getvalue())["op"] == "hit"


def test_parent_directories_are_created(tmp_path):
    path = tmp_path / "deep" / "nested" / "t.jsonl"
    with TraceRecorder(path) as rec:
        rec.emit("run_start")
    assert len(read_trace(path)) == 1


def test_null_recorder_contract():
    assert NULL_RECORDER.enabled is False
    assert isinstance(NULL_RECORDER, Recorder)
    assert isinstance(TraceRecorder(io.StringIO()), Recorder)
    NULL_RECORDER.emit("run_start", anything="goes")
    NULL_RECORDER.bind_clock(object())
    NULL_RECORDER.flush()
    NULL_RECORDER.close()


def test_torn_trailing_line_is_tolerated(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceRecorder(path) as rec:
        rec.emit("run_start")
        rec.emit("generation", iteration=0)
    whole = path.read_text()
    path.write_text(whole + '{"schema":1,"event":"gen')  # killed mid-write
    assert [e["event"] for e in read_trace(path)] == ["run_start", "generation"]


def test_mid_file_corruption_raises_with_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('not json\n{"schema":1,"event":"run_end","seq":2}\n')
    with pytest.raises(ValueError, match="undecodable"):
        read_trace(path)


@pytest.mark.parametrize(
    "record, match",
    [
        ([], "must be an object"),
        ({"event": "run_start", "seq": 1}, "schema"),
        ({"schema": SCHEMA_VERSION + 1, "event": "run_start", "seq": 1}, "newer"),
        ({"schema": SCHEMA_VERSION, "event": "warp-drive", "seq": 1}, "unknown"),
        ({"schema": SCHEMA_VERSION, "event": "run_start"}, "seq"),
    ],
)
def test_validate_event_rejections(record, match):
    with pytest.raises(ValueError, match=match):
        validate_event(record)


def test_event_type_set_is_the_documented_eleven():
    assert len(EVENT_TYPES) == 11
    assert {"run_start", "run_end", "generation", "evaluation"} <= EVENT_TYPES
