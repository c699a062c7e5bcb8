"""Which layer functions the traced run wraps, and the per-layer metrics
derived from the spans.

Every wrapper is installed at the name the caller looks up: the layer
models at ``repro.iostack.simulator``'s module globals, the offline
training phases at ``repro.core.offline_training``'s, discovery at
``repro.analysis.experiments``', and methods on their classes.  Nothing
inside ``src/`` changes.
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

from .metrics import Metric
from .tracing import Patches, SpanSummary, Tracer

__all__ = ["FIGURES", "instrument", "layer_metrics"]

#: The figure runners the ``figures`` workload calls, in order.
FIGURES = ("fig02", "fig08", "fig08c", "fig09", "fig10", "fig11", "fig12")


def instrument(tracer: Tracer) -> Patches:
    """Wrap every layer entry point with a span (or a counter) recorded
    by ``tracer``; the returned :class:`Patches` undoes it on exit."""
    from repro.analysis import experiments
    from repro.core import offline_training
    from repro.core.early_stopping import EarlyStoppingAgent, RLStopper
    from repro.core.smart_config import SmartConfigAgent
    from repro.ga.engine import EvolutionEngine
    from repro.ga.toolbox import Toolbox
    from repro.iostack import simulator
    from repro.iostack.evalcache import EvaluationCache
    from repro.iostack.faults import EvaluationError, FaultPlan
    from repro.rl.bandit import NeuralContextualBandit
    from repro.rl.curves import LogCurveGenerator
    from repro.rl.nn import MLP
    from repro.rl.qlearning import QLearningAgent
    from repro.rl.replay import ReplayBuffer
    from repro.tuners.hstuner import HSTuner
    from repro.tuners.journal import JournalWriter, ReplayCursor

    def span(name: str, on_return=None):
        return lambda fn: tracer.wrap(name, fn, on_return)

    def count_lookup(trace: Any) -> None:
        tracer.count("evalcache.lookups")
        if trace is not None:
            tracer.count("evalcache.hits")

    def count_replayed(record: Any) -> None:
        if record is not None:
            tracer.count("journal.replayed")

    def count_straggler(slowdown: float) -> None:
        if slowdown != 1.0:
            tracer.count("faults.injected")

    def counting_faults(check_trace):
        @functools.wraps(check_trace)
        def checked(self, config):
            try:
                return check_trace(self, config)
            except EvaluationError:
                tracer.count("faults.injected")
                raise

        return checked

    def traced_register(register):
        # The engine looks its evaluation dispatch up on the toolbox, so
        # the span goes on the entry the tuner registers there.
        @functools.wraps(register)
        def registered(self, name, fn, *args, **kwargs):
            if name in ("evaluate", "evaluate_batch"):
                fn = tracer.wrap("ga.evaluate", fn)
            return register(self, name, fn, *args, **kwargs)

        return registered

    patches = Patches()
    replace = patches.replace
    # iostack: the layer models, as the simulator's trace looks them up.
    replace(simulator, "apply_hdf5", span("iostack.hdf5"))
    replace(simulator, "apply_mpiio", span("iostack.mpiio"))
    replace(simulator, "serve_lustre", span("iostack.lustre"))
    replace(simulator, "serve_metadata", span("iostack.lustre"))
    replace(simulator, "serve_memory", span("iostack.posix"))
    replace(simulator, "serve_memory_metadata", span("iostack.posix"))
    replace(simulator.IOStackSimulator, "trace", span("iostack.simulator.trace"))
    replace(simulator.IOStackSimulator, "replay", span("iostack.simulator.replay"))
    replace(EvaluationCache, "lookup", lambda fn: tracer.observe(fn, count_lookup))
    replace(FaultPlan, "check_trace", counting_faults)
    replace(FaultPlan, "replay_slowdown", lambda fn: tracer.observe(fn, count_straggler))
    # ga and the tuner loop.
    replace(
        EvolutionEngine, "step",
        span("ga.step", lambda stats: tracer.count("ga.evaluations", stats.evaluations)),
    )
    replace(Toolbox, "register", traced_register)
    replace(HSTuner, "tune", span("tuners.hstuner.tune"))
    # resilience and journaling.
    for method in ("write_baseline", "write_generation", "write_final"):
        replace(JournalWriter, method, span("tuners.journal.write"))
    replace(ReplayCursor, "next_generation", lambda fn: tracer.observe(fn, count_replayed))
    # agents at tuning time.
    replace(SmartConfigAgent, "subset_picker", span("core.smart_config.pick"))
    replace(RLStopper, "should_stop", span("core.early_stopping.decide"))
    replace(NeuralContextualBandit, "update", span("rl.bandit.update"))
    # training.
    replace(offline_training, "parameter_sweep", span("core.offline_training.sweep"))
    replace(offline_training, "impact_from_sweeps", span("core.offline_training.pca"))
    replace(
        offline_training, "pretrain_subset_picker",
        span("core.offline_training.picker_pretrain"),
    )
    replace(
        EarlyStoppingAgent, "train_offline",
        span(
            "core.early_stopping.train_offline",
            lambda report: tracer.count("early_stopping.train_epochs", report.epochs),
        ),
    )
    # ``MLP.__call__`` is a second class attribute bound to ``forward``.
    replace(MLP, "forward", span("rl.nn.forward"))
    replace(MLP, "__call__", span("rl.nn.forward"))
    replace(MLP, "train_batch", span("rl.nn.train_batch"))
    replace(QLearningAgent, "act", span("rl.qlearning.act"))
    replace(QLearningAgent, "train_step", span("rl.qlearning.train_step"))
    replace(ReplayBuffer, "sample_arrays", span("rl.replay.sample"))
    replace(LogCurveGenerator, "sample", span("rl.curves.sample"))
    # discovery, as the figure runners look it up.
    replace(experiments, "discover_io", span("discovery.discover_io"))
    replace(experiments, "workload_from_source", span("discovery.workload_from_source"))
    return patches


def layer_metrics(
    summary: dict[str, SpanSummary],
    counters: dict[str, float],
    results: Sequence[Any],
    trace_overhead: float,
) -> list[Metric]:
    """Per-layer metrics of one traced round.

    ``summary`` is :func:`~perfbench.tracing.summarize` of its spans,
    ``counters`` the tracer's counters and ``results`` the round's
    (uninterrupted) tuning results, whose
    :class:`~repro.iostack.evalcache.EvaluationStats` give the
    resilience counters.
    """
    empty = SpanSummary(0, 0.0, 0.0)

    def get(name: str) -> SpanSummary:
        return summary.get(name, empty)

    out: list[Metric] = []

    def add(name: str, value: float, unit: str) -> None:
        out.append(Metric(name, float(value), unit))

    for layer in ("hdf5", "mpiio", "lustre", "posix"):
        s = get(f"iostack.{layer}")
        add(f"iostack.{layer}.calls", s.calls, "count")
        add(f"iostack.{layer}.self_s", s.self_s, "s")
    trace, replay = get("iostack.simulator.trace"), get("iostack.simulator.replay")
    add("iostack.simulator.traces", trace.calls, "count")
    add("iostack.simulator.trace_self_s", trace.self_s, "s")
    add("iostack.simulator.replays", replay.calls, "count")
    add("iostack.simulator.replay_s", replay.total_s, "s")
    lookups = counters.get("evalcache.lookups", 0)
    add("iostack.evalcache.lookups", lookups, "count")
    add(
        "iostack.evalcache.hit_ratio",
        counters.get("evalcache.hits", 0) / lookups if lookups else 0.0,
        "ratio",
    )
    add("iostack.faults.injected", counters.get("faults.injected", 0), "count")

    step = get("ga.step")
    add("ga.generations", step.calls, "count")
    add("ga.evaluations", counters.get("ga.evaluations", 0), "count")
    add("ga.variation_self_s", step.self_s, "s")
    tune = get("tuners.hstuner.tune")
    add("tuners.hstuner.tunes", tune.calls, "count")
    add("tuners.hstuner.self_s", tune.self_s, "s")

    stats = [r.eval_stats for r in results if r.eval_stats is not None]
    evaluations = sum(s.evaluations for s in stats)
    retries = sum(s.retries for s in stats)
    quarantined = sum(s.quarantined for s in stats)
    attempts = evaluations + retries
    add("tuners.resilience.attempts", attempts, "count")
    add("tuners.resilience.retries", retries, "count")
    add("tuners.resilience.quarantined", quarantined, "count")
    add(
        "tuners.resilience.useful_ratio",
        (evaluations - quarantined) / attempts if attempts else 0.0,
        "ratio",
    )
    write = get("tuners.journal.write")
    add("tuners.journal.writes", write.calls, "count")
    add("tuners.journal.write_s", write.total_s, "s")
    add("tuners.journal.replayed", counters.get("journal.replayed", 0), "count")

    pick, decide = get("core.smart_config.pick"), get("core.early_stopping.decide")
    add("core.smart_config.picks", pick.calls, "count")
    add("core.smart_config.pick_s", pick.total_s, "s")
    add("core.early_stopping.decisions", decide.calls, "count")
    add("core.early_stopping.decide_s", decide.total_s, "s")
    update = get("rl.bandit.update")
    add("rl.bandit.updates", update.calls, "count")
    add("rl.bandit.update_s", update.total_s, "s")
    add("rl.guardrails.trips", sum(len(r.guardrail_trips) for r in results), "count")

    add("core.offline_training.sweep_s", get("core.offline_training.sweep").total_s, "s")
    add("core.offline_training.pca_s", get("core.offline_training.pca").total_s, "s")
    add(
        "core.offline_training.picker_pretrain_s",
        get("core.offline_training.picker_pretrain").total_s,
        "s",
    )
    add(
        "core.early_stopping.train_offline_s",
        get("core.early_stopping.train_offline").total_s,
        "s",
    )
    add(
        "core.early_stopping.train_epochs",
        counters.get("early_stopping.train_epochs", 0),
        "count",
    )
    forward, batch = get("rl.nn.forward"), get("rl.nn.train_batch")
    add("rl.nn.forwards", forward.calls, "count")
    add("rl.nn.forward_s", forward.total_s, "s")
    add("rl.nn.train_batches", batch.calls, "count")
    add("rl.nn.train_batch_s", batch.total_s, "s")
    act, train_step = get("rl.qlearning.act"), get("rl.qlearning.train_step")
    add("rl.qlearning.acts", act.calls, "count")
    add("rl.qlearning.train_steps", train_step.calls, "count")
    add("rl.qlearning.train_step_self_s", train_step.self_s, "s")
    for name in ("replay", "curves"):
        s = get(f"rl.{name}.sample")
        add(f"rl.{name}.samples", s.calls, "count")
        add(f"rl.{name}.sample_s", s.total_s, "s")

    add("discovery.discover_io_s", get("discovery.discover_io").total_s, "s")
    add(
        "discovery.workload_from_source_s",
        get("discovery.workload_from_source").total_s,
        "s",
    )
    for fig in FIGURES:
        add(f"analysis.{fig}_s", get(f"analysis.{fig}").total_s, "s")
    add("observability.trace_overhead", trace_overhead, "ratio")
    return out
