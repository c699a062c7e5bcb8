"""``tunio-tune``: tune a bundled workload end-to-end from the shell.

Runs the offline training phase (or loads a checkpoint), builds the
TunIO pipeline against the simulated Cori platform, tunes the chosen
application, and prints the tuning curve plus the chosen configuration.

Usage::

    tunio-tune flash
    tunio-tune hacc --tuner hstuner --iterations 40
    tunio-tune macsio --use-kernel --loop-reduction 0.01 --seed 7

Robustness features ride the same entry point: ``--fault-rate`` /
``--fault-straggler-rate`` / ``--fault-window`` inject a deterministic
:class:`~repro.iostack.faults.FaultPlan`, ``--fault-agent`` injects
agent-level faults (weight corruption, forced degenerate policies,
checkpoint truncation) that the guardrails detect and survive by
degrading to plain-GA tuning, ``--constraints`` arms cross-parameter
validation/repair, ``--max-retries`` / ``--eval-timeout`` shape the
resilient harness, and ``--journal PATH`` arms crash-safe
checkpointing.  An interrupted journaled run continues bit-identically
with::

    tunio-tune resume tuning.journal

Exit codes: 2 invalid input/constraint violation/missing file, 3
journal error, 4 harness failure, 5 evaluation failure, 6 rejected
agent checkpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.discovery.kernel import DiscoveryOptions, discover_io
from repro.discovery.reducers import IOPathSwitching, LoopReduction, Reducer
from repro.iostack.cluster import cori
from repro.iostack.config import to_xml
from repro.iostack.evalcache import EvaluationCache
from repro.iostack.faults import (
    AGENT_FAULT_MODES,
    DegradedWindow,
    EvaluationError,
    FaultPlan,
)
from repro.iostack.noise import NoiseModel
from repro.iostack.parameters import (
    ConstraintContext,
    ConstraintViolationError,
    default_constraints,
)
from repro.iostack.simulator import IOStackSimulator
from repro.observability.metrics import (
    fastpath_line,
    guardrails_line,
    metrics_snapshot,
    resilience_line,
    snapshot_degraded,
)
from repro.observability.recorder import NULL_RECORDER, Recorder, TraceRecorder
from repro.observability.report import baseline_line, final_line, iteration_line
from repro.rl.guardrails import CheckpointError
from repro.tuners.journal import JournalError, ReplayCursor, load_journal
from repro.tuners.resilience import HarnessError, RetryPolicy
from repro.workloads import bdcats, flash, hacc, ior, macsio_vpic_dipole, vpic
from repro.workloads.sources import canonical_hints, load_source

from .objective import PerfNormalizer
from .offline_training import load_agents, save_agents, train_tunio_agents
from .pipeline import TUNER_KINDS, TuningSession, make_tuner

__all__ = ["main", "build_parser", "build_resume_parser"]

_WORKLOADS = {
    "vpic": vpic,
    "flash": flash,
    "hacc": hacc,
    "macsio": macsio_vpic_dipole,
    "bdcats": bdcats,
    "ior": ior,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunio-tune",
        description="Tune a bundled HPC workload on the simulated I/O stack.",
    )
    parser.add_argument("workload", choices=sorted(_WORKLOADS))
    parser.add_argument(
        "--tuner", choices=TUNER_KINDS,
        default="tunio", help="pipeline to run (default: tunio)",
    )
    parser.add_argument("--iterations", type=int, default=50, help="iteration budget")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--use-kernel", action="store_true",
        help="tune the discovered I/O kernel instead of the full application",
    )
    parser.add_argument(
        "--loop-reduction", type=float, default=None, metavar="FRACTION",
        help="apply loop reduction to the kernel (implies --use-kernel)",
    )
    parser.add_argument(
        "--path-switch", type=str, default=None, metavar="PREFIX",
        help="apply I/O path switching to the kernel (implies --use-kernel)",
    )
    parser.add_argument(
        "--expected-runs", type=float, default=None,
        help="anticipated production executions (stopper patience input)",
    )
    parser.add_argument(
        "--agents-cache", type=str, default=None, metavar="PATH",
        help="npz checkpoint for the offline-trained agents: loaded when "
             "present, written after training otherwise",
    )
    parser.add_argument(
        "--constraints", action="store_true",
        help="arm cross-parameter platform constraints: user seeds are "
             "validated strictly, GA offspring are repaired (stripe counts "
             "vs OSTs, aggregators vs MPI ranks, alignment divisibility)",
    )
    faults = parser.add_argument_group(
        "fault injection (seeded, deterministic; off by default)"
    )
    faults.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="per-attempt probability that an evaluation fails transiently",
    )
    faults.add_argument(
        "--fault-straggler-rate", type=float, default=0.0, metavar="P",
        help="per-run probability of a latency straggler",
    )
    faults.add_argument(
        "--fault-straggler-slowdown", type=float, default=4.0, metavar="X",
        help="service-time multiplier of a straggling run (default: 4)",
    )
    faults.add_argument(
        "--fault-window", action="append", default=None, metavar="S:E:X",
        dest="fault_windows",
        help="degraded-bandwidth window of the tuning clock, as "
             "start:end:slowdown in minutes (repeatable)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the fault schedule (default: --seed)",
    )
    faults.add_argument(
        "--fault-agent", choices=AGENT_FAULT_MODES, default=None, metavar="MODE",
        help="inject an agent-level fault (one of: "
             + ", ".join(AGENT_FAULT_MODES)
             + "); the guardrails detect it and degrade to plain-GA tuning",
    )
    faults.add_argument(
        "--fault-agent-at", type=int, default=0, metavar="ITER",
        help="iteration at which the agent fault engages (default: 0)",
    )
    resil = parser.add_argument_group("resilient evaluation harness")
    resil.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="re-attempts after a failed evaluation before quarantining "
             "(default: 2)",
    )
    resil.add_argument(
        "--retry-backoff", type=float, default=30.0, metavar="SECONDS",
        help="simulated backoff before the first retry, doubled per retry "
             "and charged to the tuning clock (default: 30)",
    )
    resil.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="simulated per-evaluation deadline; runs past it are treated "
             "as killed (default: none)",
    )
    parser.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="append each completed generation to a crash-safe journal; "
             "an interrupted run continues with `tunio-tune resume PATH`",
    )
    obs = parser.add_argument_group(
        "observability (pure observers; traced runs stay bit-identical)"
    )
    obs.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="stream schema-versioned JSONL run events to PATH; "
             "reconstruct curves and summaries later with `tunio-report PATH`",
    )
    obs.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the run's metrics snapshot (counters and gauges) "
             "to PATH as JSON",
    )
    return parser


def build_resume_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunio-tune resume",
        description="Resume an interrupted journaled tuning run "
                    "bit-identically.",
    )
    parser.add_argument("journal", help="journal file of the interrupted run")
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="override the original iteration budget",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="trace the resumed run to PATH (replayed generations are "
             "re-emitted, so the trace is complete on its own)",
    )
    parser.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the resumed run's metrics snapshot to PATH as JSON",
    )
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.iterations < 1:
        parser.error("--iterations must be >= 1")
    if not 0.0 <= args.fault_rate < 1.0:
        parser.error("--fault-rate must be in [0, 1)")
    if not 0.0 <= args.fault_straggler_rate < 1.0:
        parser.error("--fault-straggler-rate must be in [0, 1)")
    if args.fault_straggler_slowdown < 1.0:
        parser.error("--fault-straggler-slowdown must be >= 1")
    if args.max_retries < 0:
        parser.error(
            "--max-retries must be >= 0 (a negative retry count is "
            "contradictory; use 0 to quarantine on first failure)"
        )
    if args.retry_backoff < 0:
        parser.error("--retry-backoff must be >= 0")
    if args.eval_timeout is not None and args.eval_timeout <= 0:
        parser.error("--eval-timeout must be positive")
    if args.expected_runs is not None and args.expected_runs <= 0:
        parser.error("--expected-runs must be positive")
    if args.fault_agent_at < 0:
        parser.error("--fault-agent-at must be >= 0")
    if args.fault_agent is not None and args.tuner != "tunio":
        parser.error(
            f"--fault-agent needs --tuner tunio (the {args.tuner} tuner "
            f"runs no agent to inject into)"
        )
    if args.fault_agent == "checkpoint-truncation" and not args.agents_cache:
        parser.error(
            "--fault-agent checkpoint-truncation needs --agents-cache PATH "
            "(the fault corrupts that checkpoint file)"
        )
    for spec in args.fault_windows or ():
        try:
            DegradedWindow.parse(spec)
        except ValueError as exc:
            parser.error(str(exc))


def _fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    """The fault plan the flags describe, or None when everything is off."""
    windows = tuple(DegradedWindow.parse(s) for s in args.fault_windows or ())
    agent_fault = getattr(args, "fault_agent", None)
    if not (args.fault_rate or args.fault_straggler_rate or windows or agent_fault):
        return None
    seed = args.fault_seed if args.fault_seed is not None else args.seed
    return FaultPlan(
        seed=seed,
        transient_error_rate=args.fault_rate,
        straggler_rate=args.fault_straggler_rate,
        straggler_slowdown=args.fault_straggler_slowdown,
        degraded_windows=windows,
        agent_fault=agent_fault,
        agent_fault_at=getattr(args, "fault_agent_at", 0),
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv[:1] == ["resume"]:
            return _resume(argv[1:])
        parser = build_parser()
        args = parser.parse_args(argv)
        _validate(parser, args)
        return _run(args, replay=None)
    except JournalError as exc:
        print(f"tunio-tune: journal error: {exc}", file=sys.stderr)
        return 3
    except HarnessError as exc:
        cause = exc.__cause__
        detail = f" ({cause})" if cause is not None else ""
        print(f"tunio-tune: evaluation harness failure: {exc}{detail}",
              file=sys.stderr)
        return 4
    except EvaluationError as exc:
        print(f"tunio-tune: evaluation failed: {exc} "
              f"(raise --max-retries or quarantine the configuration)",
              file=sys.stderr)
        return 5
    except CheckpointError as exc:
        print(f"tunio-tune: agent checkpoint error: {exc}", file=sys.stderr)
        return 6
    except FileNotFoundError as exc:
        print(f"tunio-tune: file not found: {exc.filename or exc}",
              file=sys.stderr)
        return 2
    except ConstraintViolationError as exc:
        print(f"tunio-tune: configuration violates platform constraints:\n{exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"tunio-tune: invalid input: {exc}", file=sys.stderr)
        return 2


def _resume(argv: list[str]) -> int:
    parser = build_resume_parser()
    resume_args = parser.parse_args(argv)
    if resume_args.iterations is not None and resume_args.iterations < 1:
        parser.error("--iterations must be >= 1")
    journal = load_journal(resume_args.journal)
    if journal.completed:
        print(
            f"tunio-tune: journal {resume_args.journal} records a completed "
            f"run ({journal.final.get('stop_reason')}); nothing to resume",
            file=sys.stderr,
        )
        return 1
    saved = journal.header.get("args")
    if not isinstance(saved, dict):
        raise JournalError(
            f"journal {resume_args.journal} has no recorded invocation; "
            f"it was not written by tunio-tune"
        )
    workload = saved.pop("workload", None)
    if workload not in _WORKLOADS:
        raise JournalError(
            f"journal {resume_args.journal} records no known workload "
            f"({workload!r}; expected one of {sorted(_WORKLOADS)})"
        )
    run_parser = build_parser()
    args = run_parser.parse_args([workload])
    # Flags an older build recorded but this parser no longer defines
    # are dropped, so they never reach the run or its trace's run_args.
    defined = vars(args)
    for key, value in saved.items():
        if key in defined:
            setattr(args, key, value)
    if resume_args.iterations is not None:
        args.iterations = resume_args.iterations
    if args.iterations < len(journal.generations):
        parser.error(
            f"--iterations {args.iterations} is below the "
            f"{len(journal.generations)} journaled generations; resuming "
            f"would cut the run short and orphan them"
        )
    _validate(run_parser, args)
    args.journal = resume_args.journal
    # Observability is per-invocation, not part of the run's identity:
    # the resume flags replace whatever the original run used (replayed
    # generations are re-emitted, so a resume trace stands alone).
    args.trace_out = resume_args.trace_out
    args.metrics_out = resume_args.metrics_out
    print(
        f"resuming {args.workload} from {resume_args.journal} "
        f"({len(journal.generations)} journaled generations)"
    )
    return _run(args, replay=ReplayCursor(journal))


def _truncate_checkpoint(path: str) -> None:
    """Fault injection: chop an agent checkpoint to half its size, the
    classic crash-during-write corruption."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)


def _run(args: argparse.Namespace, replay: ReplayCursor | None) -> int:
    """Set up the observability surfaces, then run the campaign.

    The recorder is a pure observer (no RNG, no clock), so a traced run
    stays bit-identical to a bare one.
    """
    recorder = (
        TraceRecorder(args.trace_out) if args.trace_out else NULL_RECORDER
    )
    try:
        return _run_tuning(args, replay, recorder)
    finally:
        recorder.close()


def _tuner_kind(
    args: argparse.Namespace,
    simulator: IOStackSimulator,
    normalizer: PerfNormalizer,
    rng: np.random.Generator,
    eval_cache: EvaluationCache,
    recorder: Recorder,
) -> tuple[str, dict, str | None]:
    """The :func:`make_tuner` kind and agent keyword arguments the flags
    ask for, plus the guardrail trip of a rejected agent checkpoint.
    ``tunio`` loads its agents from ``--agents-cache`` or trains them; a
    rejected checkpoint degrades the run to ``hstuner-heuristic`` (plain
    GA, patience stopping) instead of crashing or silently retraining.
    """
    if args.tuner != "tunio":
        return args.tuner, {}, None
    if not (args.agents_cache and os.path.exists(args.agents_cache)):
        print("offline training (sweep + PCA + log-curve RL)...")
        training = [vpic(), flash(), hacc()]
        agents = train_tunio_agents(
            simulator, training, normalizer, rng=rng, cache=eval_cache
        )
        if args.agents_cache:
            save_agents(agents, args.agents_cache)
            print(f"saved trained agents to {args.agents_cache}")
    else:
        if args.fault_agent == "checkpoint-truncation":
            _truncate_checkpoint(args.agents_cache)
            print(f"fault injection: truncated agent checkpoint {args.agents_cache}")
        print(f"loading trained agents from {args.agents_cache}")
        try:
            agents = load_agents(args.agents_cache, normalizer, rng=rng)
        except CheckpointError as exc:
            trip = f"checkpoint:schema ({exc})"
            if recorder.enabled:
                # The tuner never sees this trip (it happens before one
                # exists), so the CLI records it itself; tunio-report
                # prepends source=="cli" trips to the run_end list when
                # reconstructing.
                recorder.emit(
                    "guardrail_trip",
                    source="cli",
                    guardrail="checkpoint",
                    kind="schema",
                    detail=str(exc),
                    trip=trip,
                )
            print(f"guardrails: agent checkpoint rejected: {exc}", file=sys.stderr)
            print(
                "guardrails: degraded mode -- tuning with plain GA "
                "(full parameter set, patience-based stopping)"
            )
            return "hstuner-heuristic", {}, trip
    kwargs = {
        "agents": agents,
        "normalizer": normalizer,
        "expected_runs": args.expected_runs,
    }
    return "tunio", kwargs, None


def _run_tuning(
    args: argparse.Namespace,
    replay: ReplayCursor | None,
    recorder: Recorder,
) -> int:
    if recorder.enabled:
        recorder.emit(
            "run_args",
            args={k: v for k, v in sorted(vars(args).items())},
            resumed=replay is not None,
        )
    rng = np.random.default_rng(args.seed)

    workload = _WORKLOADS[args.workload]()
    platform = cori(workload.n_nodes)
    simulator = IOStackSimulator(platform, NoiseModel(seed=args.seed))
    normalizer = PerfNormalizer.for_platform(platform, workload.n_nodes)
    eval_cache = EvaluationCache()

    target = workload
    use_kernel = args.use_kernel or args.loop_reduction or args.path_switch
    if use_kernel:
        from repro.workloads.sources import available_sources

        if args.workload not in available_sources():
            print(
                f"tunio-tune: no bundled C source for {args.workload!r}; "
                f"kernel mode needs one of {available_sources()}",
                file=sys.stderr,
            )
            return 2
        reducers: list[Reducer] = []
        if args.loop_reduction:
            reducers.append(LoopReduction(args.loop_reduction))
        if args.path_switch:
            reducers.append(IOPathSwitching(args.path_switch))
        kernel = discover_io(
            load_source(args.workload),
            name=args.workload,
            options=DiscoveryOptions(
                reducers=tuple(reducers), hints=canonical_hints(args.workload)
            ),
        )
        target = kernel.to_workload()
        print(
            f"using I/O kernel: kept {kernel.kept_line_count}/"
            f"{kernel.original_line_count} lines"
        )

    policy = RetryPolicy(
        max_retries=args.max_retries,
        backoff_seconds=args.retry_backoff,
        timeout_seconds=args.eval_timeout,
    )
    fault_plan = _fault_plan(args)
    constraints = None
    if args.constraints:
        context = ConstraintContext.for_run(platform, target)
        constraints = default_constraints(context=context)
        print(
            f"constraints: {len(constraints)} rules armed "
            f"(n_osts={context.n_osts}, n_procs={context.n_procs})"
        )
    kind, tunio_kwargs, checkpoint_trip = _tuner_kind(
        args, simulator, normalizer, rng, eval_cache, recorder
    )
    tuner = make_tuner(
        kind, simulator, rng=rng, cache=eval_cache, retry_policy=policy,
        constraints=constraints, recorder=recorder, **tunio_kwargs,
    )

    # Faults attach after offline training: the plan injects into the
    # *tuning* campaign; training sweeps run fault-free either way.
    simulator.faults = fault_plan
    if fault_plan is not None:
        agent_part = (
            f" agent={fault_plan.agent_fault}@{fault_plan.agent_fault_at}"
            if fault_plan.agent_fault is not None
            else ""
        )
        print(
            f"fault injection armed: rate={fault_plan.transient_error_rate} "
            f"stragglers={fault_plan.straggler_rate} "
            f"windows={len(fault_plan.degraded_windows)}"
            f"{agent_part} (seed {fault_plan.seed})"
        )

    session = TuningSession(
        tuner=tuner,
        workload=target,
        journal_path=args.journal,
        journal_header={"args": dict(vars(args))},
        replay=replay,
    )
    print(f"tuning {target.name} with {tuner.name} (budget {args.iterations})...")
    try:
        result = session.run(args.iterations)
    finally:
        session.close()

    # Summary lines render through the shared formatters so tunio-tune
    # and tunio-report (which rebuilds them from the trace) cannot drift.
    print("\n" + baseline_line(result))
    for rec in result.history:
        print(iteration_line(rec, result.stopped_at))
    print("\n" + final_line(result))
    if checkpoint_trip is not None:
        result.guardrail_trips = (checkpoint_trip,) + result.guardrail_trips
    snapshot = metrics_snapshot(result, cache=eval_cache)
    if result.eval_stats is not None:
        print(f"fastpath: {fastpath_line(snapshot)}")
        if snapshot_degraded(snapshot):
            print(f"resilience: {resilience_line(snapshot)}")
    if result.guardrail_trips:
        print(f"guardrails: {guardrails_line(result.guardrail_trips)}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics written to {args.metrics_out}")
    if result.best_config is not None:
        print("\nH5Tuner override file:")
        print(to_xml(result.best_config))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
