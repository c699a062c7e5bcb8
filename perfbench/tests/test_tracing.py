"""Span recording, self-time arithmetic and patch restoration."""

import pytest

from perfbench.tracing import Patches, Tracer, covered_length, self_times, summarize


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(2.0)
    # clipped to the parent's interval; intervals outside it count nothing
    assert covered_length([(-1.0, 1.0), (9.0, 12.0), (20.0, 30.0)], 0.0, 10.0) == pytest.approx(2.0)
    # a child nested inside another child is not counted twice
    assert covered_length([(1.0, 5.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(4.0)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["tune", 0.0, 10.0, -1],
        ["step", 1.0, 6.0, 0],
        ["evaluate", 2.0, 5.0, 1],
        ["trace", 2.5, 3.0, 2],
        ["stop", 7.0, 8.0, 0],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 5.0 - 3.0, 3.0 - 0.5, 0.5, 1.0])


def test_summarize_adds_calls_total_and_self_per_name():
    spans = [
        ["lustre", 0.0, 1.0, -1],
        ["trace", 2.0, 6.0, -1],
        ["lustre", 3.0, 4.0, 1],
    ]
    summary = summarize(spans)
    assert summary["lustre"].calls == 2
    assert summary["lustre"].total_s == pytest.approx(2.0)
    assert summary["trace"].self_s == pytest.approx(3.0)


def test_wrap_records_parents_and_results():
    tracer = Tracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1, on_return=seen.append)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert seen == [2]
    (outer_name, o_start, o_end, o_parent), (inner_name, i_start, i_end, i_parent) = tracer.spans
    assert (outer_name, o_parent) == ("outer", -1)
    assert (inner_name, i_parent) == ("inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        pass
    assert [s[3] for s in tracer.spans] == [-1, -1]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_patches_restore_the_originals():
    class Layer:
        def serve(self):
            return "original"

    tracer = Tracer()
    with Patches() as patches:
        patches.replace(Layer, "serve", lambda fn: tracer.wrap("layer", fn))
        assert Layer().serve() == "original"
        assert len(tracer.spans) == 1
    Layer().serve()
    assert len(tracer.spans) == 1
