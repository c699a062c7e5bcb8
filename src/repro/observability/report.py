"""``tunio-report``: reconstruct a tuning run from its trace file.

A trace written by ``tunio-tune --trace-out run.jsonl`` carries enough
to rebuild the run's :class:`~repro.tuners.base.TuningResult` -- the
per-generation best-perf series, the RoTI curve, and the final summary
lines -- without the journal, the simulator, or the original process::

    tunio-report run.jsonl
    tunio-report run.jsonl --json        # machine-readable reconstruction

Resumed runs re-emit their replayed generations, so a trace written by
``tunio-tune resume`` is complete on its own; duplicate ``generation``
events for the same iteration are resolved to the last one emitted.

This module is also the single source of truth for the run-summary line
formats: ``tunio-tune`` imports :func:`baseline_line`,
:func:`iteration_line` and :func:`final_line` from here, so the live CLI
and the offline report cannot drift apart.

Exit codes: 0 success, 1 incomplete trace (no ``run_end``), 2 missing or
invalid trace file (including an event that lacks, or mistypes, a
payload field the reconstruction reads).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Iterable, Mapping

from repro.tuners.base import IterationRecord, TuningResult
from repro.tuners.resilience import EvaluationStats

from .metrics import (
    fastpath_line,
    guardrails_line,
    metrics_snapshot,
    resilience_line,
    snapshot_degraded,
)
from .recorder import read_trace

__all__ = [
    "baseline_line",
    "iteration_line",
    "final_line",
    "reconstruct_result",
    "render_report",
    "main",
]


# -- run-summary lines (shared with tunio-tune) ------------------------------------


def baseline_line(result: TuningResult) -> str:
    return f"baseline: {result.baseline_perf:10.1f} MB/s"


def iteration_line(record: IterationRecord, stopped_at: int | None) -> str:
    marker = "  <- stopped" if stopped_at == record.iteration else ""
    return (
        f"iter {record.iteration:3d}  best {record.best_perf:10.1f} MB/s  "
        f"t={record.elapsed_minutes:8.1f} min  "
        f"subset={len(record.tuned_parameters):2d}{marker}"
    )


def final_line(result: TuningResult) -> str:
    return (
        f"final: {result.best_perf:.1f} MB/s "
        f"({result.best_perf / max(result.baseline_perf, 1e-9):.2f}x) "
        f"in {result.total_minutes:.1f} simulated minutes "
        f"({result.total_evaluations} evaluations, {result.stop_reason})"
    )


# -- reconstruction ----------------------------------------------------------------


def _eval_stats_from(payload: Mapping[str, Any] | None) -> EvaluationStats | None:
    """Rebuild :class:`EvaluationStats` from a ``run_end`` payload,
    ignoring fields this build does not know (forward compatibility)."""
    if payload is None:
        return None
    known = {f.name for f in dataclasses.fields(EvaluationStats)}
    return EvaluationStats(**{k: v for k, v in payload.items() if k in known})


def _field(event: Mapping[str, Any], key: str, cast: Any) -> Any:
    """``cast(event[key])``, or :class:`ValueError` naming the event's
    ``seq`` when the field is missing or of the wrong type."""
    try:
        return cast(event[key])
    except (KeyError, TypeError, ValueError):
        problem = "lacks" if key not in event else "has a malformed"
        raise ValueError(
            f"{event['event']} event seq {event['seq']} {problem} field {key!r}"
        ) from None


def reconstruct_result(events: Iterable[Mapping[str, Any]]) -> TuningResult:
    """The :class:`TuningResult` a trace's events describe.

    ``generation`` duplicates (journal-resume re-emission) resolve to
    the last event per iteration; an incomplete trace (no ``run_end``)
    reconstructs what was recorded with ``stop_reason="incomplete"``.
    An event missing a payload field read here raises
    :class:`ValueError`.
    """
    tuner_name = "?"
    workload_name = "?"
    baseline_perf = float("nan")
    generations: dict[int, Mapping[str, Any]] = {}
    cli_trips: list[str] = []
    run_end: Mapping[str, Any] | None = None
    for event in events:
        kind = event["event"]
        if kind == "run_start":
            tuner_name = event.get("tuner", tuner_name)
            workload_name = event.get("workload", workload_name)
        elif kind == "baseline":
            baseline_perf = _field(event, "perf", float)
        elif kind == "generation":
            generations[_field(event, "iteration", int)] = event
        elif kind == "guardrail_trip" and event.get("source") == "cli":
            cli_trips.append(_field(event, "trip", str))
        elif kind == "run_end":
            run_end = event

    history = [
        IterationRecord(
            iteration=iteration,
            iteration_perf=_field(event, "iteration_perf", float),
            best_perf=_field(event, "best_perf", float),
            elapsed_minutes=_field(event, "elapsed_minutes", float),
            evaluations=_field(event, "evaluations", int),
            tuned_parameters=tuple(event.get("subset") or ()),
        )
        for iteration, event in sorted(generations.items())
    ]
    result = TuningResult(
        tuner_name=tuner_name,
        workload_name=workload_name,
        history=history,
        baseline_perf=baseline_perf,
        stop_reason="incomplete",
    )
    if run_end is not None:
        result.stop_reason = str(run_end.get("stop_reason", "completed"))
        stopped_at = run_end.get("stopped_at")
        result.stopped_at = int(stopped_at) if stopped_at is not None else None
        if "baseline_perf" in run_end:
            result.baseline_perf = _field(run_end, "baseline_perf", float)
        result.eval_stats = _eval_stats_from(run_end.get("eval_stats"))
        result.guardrail_trips = tuple(cli_trips) + tuple(
            run_end.get("guardrail_trips") or ()
        )
    else:
        result.guardrail_trips = tuple(cli_trips)
    return result


# -- rendering ---------------------------------------------------------------------


def _roti_section(result: TuningResult) -> list[str]:
    from repro.core.roti import roti_curve

    try:
        curve = roti_curve(result)
    except ValueError as exc:
        return [f"roti: unavailable ({exc})"]
    lines = [
        f"roti: peak {curve.peak:.2f} MB/s per minute at "
        f"t={curve.peak_minutes:.1f} min, final {curve.final:.2f}"
    ]
    for minutes, value in zip(curve.minutes, curve.values):
        lines.append(f"  t={float(minutes):8.1f} min  roti {float(value):10.2f}")
    return lines


def render_report(events: list[Mapping[str, Any]], source: str) -> str:
    """The human-readable report of one trace."""
    result = reconstruct_result(events)
    lines = [
        f"trace: {source} ({len(events)} events)",
        f"run: {result.workload_name} with {result.tuner_name} "
        f"({len(result.history)} iterations, {result.stop_reason})",
        "",
        baseline_line(result),
    ]
    lines.extend(
        iteration_line(record, result.stopped_at) for record in result.history
    )
    lines.append("")
    lines.append(final_line(result))
    if result.eval_stats is not None:
        snapshot = metrics_snapshot(result)
        lines.append(f"fastpath: {fastpath_line(snapshot)}")
        if snapshot_degraded(snapshot):
            lines.append(f"resilience: {resilience_line(snapshot)}")
    if result.guardrail_trips:
        lines.append(f"guardrails: {guardrails_line(result.guardrail_trips)}")
    lines.append("")
    lines.extend(_roti_section(result))
    return "\n".join(lines)


def _json_payload(events: list[Mapping[str, Any]]) -> dict[str, Any]:
    result = reconstruct_result(events)
    return {
        "workload": result.workload_name,
        "tuner": result.tuner_name,
        "stop_reason": result.stop_reason,
        "stopped_at": result.stopped_at,
        "baseline_perf": result.baseline_perf,
        "best_perf": result.best_perf,
        "total_minutes": result.total_minutes,
        "total_evaluations": result.total_evaluations,
        "guardrail_trips": list(result.guardrail_trips),
        "history": [dataclasses.asdict(record) for record in result.history],
        "metrics": metrics_snapshot(result),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunio-report",
        description="Reconstruct a tuning run's curves and summary from a "
                    "--trace-out JSONL file.",
    )
    parser.add_argument("trace", help="trace file written by tunio-tune --trace-out")
    parser.add_argument(
        "--json", action="store_true",
        help="print the reconstruction as JSON instead of the report",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.exists(args.trace):
        print(f"tunio-report: file not found: {args.trace}", file=sys.stderr)
        return 2
    try:
        events = read_trace(args.trace)
    except ValueError as exc:
        print(f"tunio-report: invalid trace: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"tunio-report: {args.trace} holds no events", file=sys.stderr)
        return 2
    try:
        if args.json:
            text = json.dumps(_json_payload(events), indent=2, sort_keys=True)
        else:
            text = render_report(events, args.trace)
    except ValueError as exc:
        print(f"tunio-report: invalid trace: {exc}", file=sys.stderr)
        return 2
    print(text)
    complete = any(event["event"] == "run_end" for event in events)
    if not complete:
        print(
            f"tunio-report: warning: {args.trace} has no run_end event "
            f"(interrupted run?)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
