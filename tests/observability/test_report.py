"""tunio-report: reconstructing runs from their trace files alone."""

import json

import numpy as np
import pytest

from repro.iostack import EvaluationCache, IOStackSimulator, NoiseModel, cori
from repro.observability.recorder import TraceRecorder, read_trace
from repro.observability.report import (
    baseline_line,
    final_line,
    iteration_line,
    main,
    reconstruct_result,
    render_report,
)
from repro.tuners.hstuner import HSTuner
from repro.tuners.journal import JournalWriter, ReplayCursor, load_journal
from repro.tuners.stoppers import NoStop
from tests.conftest import make_workload

pytestmark = pytest.mark.observability


def make_tuner(recorder=None):
    sim = IOStackSimulator(cori(2), NoiseModel(seed=11))
    return HSTuner(
        sim, stopper=NoStop(), rng=np.random.default_rng(7),
        population_size=4, cache=EvaluationCache(), recorder=recorder,
    )


def traced_run(path, iterations=4):
    with TraceRecorder(path) as recorder:
        result = make_tuner(recorder).tune(
            make_workload(), max_iterations=iterations
        )
    return result


# -- reconstruction from synthetic events --------------------------------------


def _ev(event, **fields):
    return {"schema": 1, "event": event, "seq": 0, "wall_s": 0.0, **fields}


def _gen(iteration, best_perf, replayed=False):
    return _ev(
        "generation", iteration=iteration, iteration_perf=best_perf,
        best_perf=best_perf, elapsed_minutes=10.0 * (iteration + 1),
        evaluations=4, subset=["striping_factor"], replayed=replayed,
    )


def test_duplicate_generations_resolve_to_the_last_emission():
    events = [
        _ev("run_start", tuner="t", workload="w"),
        _ev("baseline", perf=100.0),
        _gen(0, 110.0, replayed=True),
        _gen(0, 120.0),  # resume re-emission wins
    ]
    result = reconstruct_result(events)
    assert len(result.history) == 1
    assert result.history[0].best_perf == 120.0
    assert result.stop_reason == "incomplete"  # no run_end


def test_cli_sourced_trips_are_prepended():
    events = [
        _ev("guardrail_trip", source="cli", trip="checkpoint:schema (bad)"),
        _ev("run_end", stop_reason="budget", stopped_at=None,
            baseline_perf=100.0, guardrail_trips=["picker:impact (x)"]),
    ]
    result = reconstruct_result(events)
    assert result.guardrail_trips == (
        "checkpoint:schema (bad)", "picker:impact (x)",
    )
    assert result.stop_reason == "budget"


def test_tuner_level_trips_do_not_double_count():
    events = [
        _ev("guardrail_trip", guardrail="picker", kind="impact", detail="x",
            iteration=2),  # no source=cli: already in run_end's list
        _ev("run_end", stop_reason="budget", stopped_at=None,
            baseline_perf=100.0, guardrail_trips=["picker:impact (x)"]),
    ]
    assert reconstruct_result(events).guardrail_trips == ("picker:impact (x)",)


def test_unknown_eval_stats_fields_are_ignored():
    events = [
        _ev("run_end", stop_reason="budget", stopped_at=None,
            baseline_perf=1.0,
            eval_stats={"evaluations": 3, "from_the_future": 9}),
    ]
    result = reconstruct_result(events)
    assert result.eval_stats.evaluations == 3


def test_incomplete_trace_renders_with_unavailable_roti():
    text = render_report([_ev("run_start", tuner="t", workload="w")], "x")
    assert "incomplete" in text
    assert "roti: unavailable" in text


# -- reconstruction from real traced runs --------------------------------------


def test_reconstruction_matches_the_live_result(tmp_path):
    trace = tmp_path / "run.jsonl"
    result = traced_run(trace)
    rebuilt = reconstruct_result(read_trace(trace))
    assert rebuilt.tuner_name == "hstuner"
    assert rebuilt.workload_name == result.workload_name
    assert rebuilt.baseline_perf == result.baseline_perf
    assert rebuilt.stop_reason == result.stop_reason
    assert rebuilt.stopped_at == result.stopped_at
    assert rebuilt.history == result.history
    assert rebuilt.eval_stats == result.eval_stats
    assert rebuilt.guardrail_trips == result.guardrail_trips
    assert baseline_line(rebuilt) == baseline_line(result)
    assert final_line(rebuilt) == final_line(result)
    for a, b in zip(rebuilt.history, result.history):
        assert iteration_line(a, rebuilt.stopped_at) == iteration_line(
            b, result.stopped_at
        )


def test_resumed_trace_reports_identically_to_the_fresh_one(tmp_path):
    """A trace written by a journal-resumed run reconstructs the same
    report as the uninterrupted run's trace (replayed generations are
    re-emitted, so the resumed trace stands alone)."""
    fresh_trace = tmp_path / "fresh.jsonl"
    journal_path = tmp_path / "run.journal"
    with TraceRecorder(fresh_trace) as recorder:
        tuner = make_tuner(recorder)
        writer = JournalWriter(str(journal_path), header={"h": 1})
        tuner.attach_journal(writer)
        tuner.tune(make_workload(), max_iterations=5)
        writer.close()

    # keep header + baseline + 2 generations: a simulated kill
    lines = open(journal_path).readlines()
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(lines[:4]))

    journal = load_journal(str(cut))
    resumed_trace = tmp_path / "resumed.jsonl"
    with TraceRecorder(resumed_trace) as recorder:
        resumed = make_tuner(recorder)
        writer = JournalWriter(str(cut), header={"h": 1}, resume_from=journal)
        resumed.attach_journal(writer, replay=ReplayCursor(journal))
        resumed.tune(make_workload(), max_iterations=5)
        writer.close()

    fresh = render_report(read_trace(fresh_trace), "trace").splitlines()
    again = render_report(read_trace(resumed_trace), "trace").splitlines()
    # the header line carries the event count (prewarm events differ);
    # every reconstructed line below it must match exactly
    assert fresh[1:] == again[1:]
    assert any(line.startswith("roti: peak") for line in fresh)


# -- the CLI entry point -------------------------------------------------------


def test_main_missing_and_invalid_traces_exit_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope.jsonl")]) == 2
    assert "not found" in capsys.readouterr().err

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main([str(empty)]) == 2
    assert "no events" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n\n")
    assert main([str(bad)]) == 2
    assert "invalid trace" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_main_event_missing_a_payload_field_exits_2(tmp_path, capsys, flags):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"schema":1,"event":"generation","seq":2,"wall_s":0}\n')
    assert main([str(trace), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("tunio-report: invalid trace: ")
    assert "seq 2" in captured.err and "'iteration'" in captured.err
    assert captured.out == ""


def test_main_incomplete_trace_warns_and_exits_1(tmp_path, capsys):
    trace = tmp_path / "cut.jsonl"
    with TraceRecorder(trace) as rec:
        rec.emit("run_start", tuner="t", workload="w")
        rec.emit("baseline", perf=100.0)
    assert main([str(trace)]) == 1
    captured = capsys.readouterr()
    assert "no run_end" in captured.err
    assert "incomplete" in captured.out


def test_main_reports_a_complete_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    result = traced_run(trace)
    assert main([str(trace)]) == 0
    out = capsys.readouterr().out
    assert final_line(result) in out
    assert baseline_line(result) in out
    assert "fastpath:" in out
    assert "roti: peak" in out


def test_main_json_payload(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    result = traced_run(trace)
    assert main([str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_perf"] == result.best_perf
    assert payload["stop_reason"] == result.stop_reason
    assert len(payload["history"]) == len(result.history)
    assert payload["metrics"]["counters"]["evaluations"] == (
        result.eval_stats.evaluations
    )
