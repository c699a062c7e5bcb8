"""HSTuner: the genetic-algorithm I/O tuner TunIO builds on.

HSTuner drives a GA (tournament selection + elitism, as in the paper's
DEAP pipeline) over the 12-parameter HDF5/MPI-IO/Lustre space.  Each
fitness evaluation runs the workload (or its I/O kernel) on the stack
simulator three times, averages bandwidths into the ``perf`` objective,
and charges one run's duration plus setup overhead to the simulated
tuning clock.

The class exposes three extension points.  :meth:`_select_subset`
returns the parameter names the next generation may vary (None = all);
TunIO's Smart Configuration Generation plugs in there, and the base
class always returns None, which *is* HSTuner.
:meth:`_observe_iteration` sees each finished iteration (TunIO feeds its
agents), and :meth:`_journal_agent_state` adds agent state to each
journaled generation.

Evaluation
----------
Every evaluation -- the untuned baseline as a batch of one, then each
generation's unevaluated individuals as one batch -- is a single
:meth:`~repro.tuners.resilience.ResilientEvaluator.evaluate` call.  It
pre-draws the noise factors in population order, takes each distinct
configuration's trace from the tuner's
:class:`~repro.iostack.evalcache.EvaluationCache` or builds it once
(re-visited configurations -- elites re-drawn by crossover, duplicate
genomes -- skip the stack traversal), then replays every individual's
own factor slice.  That is bit-identical to a per-individual,
per-repeat loop: same fitnesses, same noise-stream consumption, same
clock charges.

The cache is the run's one memo: it also holds the layer results its
traces share.  :meth:`tune` and :meth:`resume` empty it when they end,
however they end, so nothing of it outlives the call.

Each :meth:`tune` builds a fresh evaluator, and the evaluator counts the
run's work on its own record; :attr:`TuningResult.eval_stats` is a copy
of it, completed with the fault and guardrail counts when the run
ends.

The same call is the resilience harness: retryable failures (injected
faults, timeouts, non-finite measurements) are retried with
simulated-clock-charged exponential backoff, configurations that exhaust
their retries are quarantined at the worst-case fitness instead of
crashing the generation, and an unexpected exception is re-raised with
the failing genome preserved in the exception chain.

Journaling
----------
:meth:`attach_journal` arms crash-safe checkpoint/resume: completed
generations are appended to a JSONL journal, and a replay cursor feeds
journaled evaluations back on resume so an interrupted run continues
bit-identically.  The tuner only calls a
:class:`~repro.tuners.journal.RunJournal` at fixed points of the loop;
recording and replay live there.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Sequence

import numpy as np

from repro.ga import (
    Cardinalities,
    EvolutionEngine,
    Individual,
    Toolbox,
    repair_individual,
    tournament_pair,
    uniform_crossover,
    uniform_reset_mutation,
)
from repro.iostack.clock import SimulatedClock
from repro.iostack.config import StackConfiguration
from repro.iostack.evalcache import EvaluationCache
from repro.iostack.parameters import TUNED_SPACE, ConstraintRegistry
from repro.iostack.simulator import IOStackSimulator, WorkloadLike
from repro.observability.recorder import NULL_RECORDER, Recorder
from repro.rl.guardrails import GuardrailMonitor

from .base import IterationRecord, Tuner, TuningResult
from .journal import JournalWriter, ReplayCursor, RunJournal
from .resilience import EvaluationStats, ResilientEvaluator, RetryPolicy
from .stoppers import NoStop, Stopper

__all__ = ["HSTuner"]

#: Attempts at perturbing the seed genome before accepting a duplicate
#: (only a degenerate space -- all cardinalities 1 -- exhausts this).
_MAX_PERTURBATION_ATTEMPTS = 16

#: Per-gene mutation rate of offspring over the full parameter set.
MUTATION_PROBABILITY = 0.12

#: The tuned space's candidate counts, validated once for every mutation.
_CARDINALITIES = Cardinalities(TUNED_SPACE.cardinalities)


class HSTuner(Tuner):
    """GA-based I/O stack tuner (the paper's baseline pipeline).

    Parameters
    ----------
    simulator:
        The stack simulator standing in for the testbed.
    population_size, n_elites:
        GA shape; the paper's pipeline uses elitism (1 elite) with
        3-way-tournament parent selection.
    stopper:
        Stopping strategy consulted after every generation.
    repeats:
        Runs averaged per evaluation (3 in the paper's methodology).
    rng:
        Seeded generator for reproducibility.
    cache:
        The run's memo: repeat configurations reuse their stored trace
        (the simulated clock is still charged on hits) and traces share
        layer results.  ``None`` (the default) gives the tuner a fresh
        private one.  It is emptied when each :meth:`tune` or
        :meth:`resume` ends.
    retry_policy:
        How evaluation failures are retried/timed-out/quarantined; see
        :class:`~repro.tuners.resilience.RetryPolicy`.  The default
        policy never engages unless something actually fails.
    constraints:
        Optional cross-parameter
        :class:`~repro.iostack.parameters.ConstraintRegistry`.  When
        given, a ``repair`` hook is registered in the GA toolbox so
        every bred individual (initial population and post-variation
        offspring) is projected onto the constraint-satisfying region.
        ``None`` (the default) changes nothing -- runs stay bit-identical
        to pre-constraint builds.
    recorder:
        Optional :class:`~repro.observability.recorder.Recorder`; a
        :class:`~repro.observability.recorder.TraceRecorder` streams the
        run's events (baseline, evaluations, generations, agent
        decisions, cache/retry activity, run end) to a JSONL trace.  The
        default :data:`~repro.observability.recorder.NULL_RECORDER`
        drops everything; either way the recorder is a pure observer --
        it never draws RNG or touches the simulated clock, so traced
        runs are bit-identical to untraced ones.
    """

    name = "hstuner"

    def __init__(
        self,
        simulator: IOStackSimulator,
        population_size: int = 6,
        n_elites: int = 1,
        stopper: Stopper | None = None,
        repeats: int = 3,
        rng: np.random.Generator | None = None,
        cache: EvaluationCache | None = None,
        retry_policy: RetryPolicy | None = None,
        constraints: ConstraintRegistry | None = None,
        recorder: Recorder | None = None,
    ):
        self.simulator = simulator
        self.population_size = population_size
        self.n_elites = n_elites
        self.stopper = stopper if stopper is not None else NoStop()
        self.repeats = repeats
        self.rng = rng if rng is not None else np.random.default_rng()
        self.cache = cache if cache is not None else EvaluationCache()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.constraints = constraints
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.clock = SimulatedClock()
        #: Trips of the agents' guardrails (none for the plain tuner).
        self.guardrails = GuardrailMonitor()
        self._active_subset_size: int | None = None
        #: Iteration the trace's evaluation events belong to (None before
        #: the first generation, i.e. during the baseline).
        self._trace_iteration: int | None = None
        self._journal = RunJournal(self)  # attach_journal arms it

    # -- journaling ----------------------------------------------------------

    def attach_journal(
        self,
        writer: JournalWriter | None,
        replay: ReplayCursor | None = None,
    ) -> None:
        """Arm checkpoint/resume: ``writer`` appends each completed
        generation; ``replay`` (a cursor over a loaded journal) answers
        journaled generations on resume instead of re-simulating them."""
        self._journal = RunJournal(self, writer, replay)

    # -- extension points ----------------------------------------------------

    def _select_subset(
        self, iteration: int, history: Sequence[IterationRecord]
    ) -> tuple[str, ...] | None:
        """Parameter names the next generation may vary; None = all.
        Overridden by TunIO's Smart Configuration Generation."""
        return None

    def _observe_iteration(self, record: IterationRecord) -> None:
        """Hook called after each iteration (TunIO feeds its agents)."""

    def _journal_agent_state(self) -> dict | None:
        """Agent state snapshot for the journal (overridden by TunIO to
        record its impact scores); informational, not used by replay."""
        return None

    # -- per-generation warning summaries -----------------------------------

    def _warn_generation_events(
        self, iteration: int, before: EvaluationStats
    ) -> None:
        """Emit at most one resilience summary per generation (instead
        of one line per retried evaluation) plus any queued guardrail
        warnings -- each trip kind surfaces once per run, not once per
        decision."""
        after = self._resilient.stats
        parts = [
            f"{getattr(after, key) - getattr(before, key)} {key}"
            for key in ("retries", "timeouts", "quarantined")
            if getattr(after, key) > getattr(before, key)
        ]
        lines = []
        if parts:
            lines.append(
                f"iteration {iteration}: resilience events: " + ", ".join(parts)
            )
        lines.extend(self.guardrails.drain_warnings())
        for line in lines:
            warnings.warn(line, RuntimeWarning, stacklevel=3)

    # -- pipeline --------------------------------------------------------------

    def tune(self, workload: WorkloadLike, max_iterations: int = 50) -> TuningResult:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # The memo serves this run only; it is emptied however the run
        # ends.
        try:
            self._start_run(workload, max_iterations)
            self._run_iterations(max_iterations)
        finally:
            self.cache.clear()
        return self._result

    def _start_run(self, workload: WorkloadLike, max_iterations: int) -> None:
        """Reset the run state, evaluate the baseline and build the GA
        engine that :meth:`_run_iterations` steps."""
        self.clock.reset()
        self.stopper.reset()
        self._resilient = ResilientEvaluator(
            self.simulator, self.clock, cache=self.cache, policy=self.retry_policy
        )
        recorder = self.recorder
        recorder.bind_clock(self.clock)
        self._resilient.recorder = recorder
        if self.simulator.faults is not None:
            # Rewind the fault schedule and tie its degraded windows to
            # this run's clock, so repeated tunes replay the same plan.
            self.simulator.faults.reset()
            self.simulator.faults.attach_clock(self.clock)
        # A fresh run re-arms the guardrails, so a journal replay
        # re-earns its trips deterministically; in-session resume() does
        # not pass here, so degradation persists across refinement.
        self.guardrails.reset()
        self.guardrails.recorder = recorder
        if recorder.enabled:
            recorder.emit(
                "run_start",
                tuner=self.name,
                workload=workload.name,
                max_iterations=max_iterations,
                population_size=self.population_size,
                repeats=self.repeats,
                resumed=self._journal.replay is not None,
            )

        result = TuningResult(tuner_name=self.name, workload_name=workload.name)
        result.baseline_perf, replayed = self._journal.baseline(
            lambda: self._evaluate(
                workload, [StackConfiguration.default()], charge=False
            )[0]
        )
        if recorder.enabled:
            recorder.emit("baseline", perf=result.baseline_perf, replayed=replayed)

        generation_evals: list[float] = []

        def live(individuals: Sequence[Individual]) -> list[float]:
            configs = [
                StackConfiguration.from_genome(ind.genome)
                for ind in individuals
            ]
            return self._evaluate(workload, configs, charge=True)

        def evaluate_batch(individuals: Sequence[Individual]) -> list[float]:
            # A generation the journal cannot answer is evaluated live.
            journal = self._journal
            perfs = journal.answer(individuals, live)
            generation_evals.extend(perfs)
            if recorder.enabled:
                for ind, perf in zip(individuals, perfs):
                    recorder.emit(
                        "evaluation",
                        iteration=self._trace_iteration,
                        genome=[int(i) for i in ind.genome],
                        perf=perf,
                        replayed=journal.replaying,
                    )
            return perfs

        def generate(n: int, rng: np.random.Generator) -> list[Individual]:
            # HSTuner explores outward from the library defaults: the
            # initial population is the default configuration plus
            # neighbour perturbations of it.  (Uniform-random seeding
            # would start the search deep inside the space and skip the
            # climb the paper's tuning curves show.)
            seed = Individual(TUNED_SPACE.encode(TUNED_SPACE.default_values()))
            population = [seed]
            while len(population) < n:
                population.append(self._perturbed(seed, rng))
            return population

        def mutate(ind: Individual, rng: np.random.Generator) -> Individual:
            # Classic DEAP-style uniform reset (mutUniformInt): a mutated
            # gene re-draws uniformly among its candidate values.  Subset
            # tuning concentrates the whole mutation budget into the
            # active subset: the expected number of mutated genes per
            # child stays constant however narrow the mask is -- which is
            # exactly why a small high-impact subset converges faster.
            active = self._active_subset_size or len(TUNED_SPACE)
            rate = min(0.6, MUTATION_PROBABILITY * len(TUNED_SPACE) / active)
            return uniform_reset_mutation(
                ind,
                rng,
                cardinalities=_CARDINALITIES,
                per_gene_probability=rate,
            )

        toolbox = Toolbox()
        toolbox.register("generate", generate)
        toolbox.register("evaluate_batch", evaluate_batch)
        toolbox.register("select", tournament_pair)
        toolbox.register("mate", uniform_crossover)
        toolbox.register("mutate", mutate)
        if self.constraints is not None:
            toolbox.register("repair", repair_individual, registry=self.constraints)

        engine = EvolutionEngine(
            toolbox,
            population_size=self.population_size,
            n_elites=self.n_elites,
            rng=self.rng,
        )

        # Preserved so a session can resume later (interactive refinement).
        self._engine = engine
        self._result = result
        self._generation_evals = generation_evals
        self._workload = workload

    def resume(self, extra_iterations: int) -> TuningResult:
        """Continue a finished :meth:`tune` run for more iterations,
        keeping the GA population, clock and stopper state."""
        if getattr(self, "_engine", None) is None:
            raise RuntimeError("nothing to resume; call tune() first")
        if extra_iterations < 1:
            raise ValueError("extra_iterations must be >= 1")
        try:
            self._run_iterations(extra_iterations)
        finally:
            self.cache.clear()
        return self._result

    def _perturbed(self, seed: Individual, rng: np.random.Generator) -> Individual:
        """A perturbation of the seed genome that actually differs from
        it.  A ~15% per-gene reset leaves every gene untouched for ~14%
        of draws; re-drawing those avoids silently spending a full
        evaluation on a duplicate of the seed."""
        candidate = seed
        for _ in range(_MAX_PERTURBATION_ATTEMPTS):
            candidate = uniform_reset_mutation(
                seed,
                rng,
                cardinalities=_CARDINALITIES,
                per_gene_probability=0.15,
            )
            if not candidate.same_genome(seed):
                return candidate
        return candidate  # degenerate space: nothing can differ

    def _run_iterations(self, n_iterations: int) -> None:
        engine, result = self._engine, self._result
        generation_evals = self._generation_evals
        recorder = self.recorder
        start = len(result.history)
        for iteration in range(start, start + n_iterations):
            self._trace_iteration = iteration
            subset = self._select_subset(iteration, result.history)
            tuned_names: tuple[str, ...]
            if subset is None:
                engine.set_mask(None)
                tuned_names = TUNED_SPACE.names
                self._active_subset_size = None
            else:
                mask = np.array([n in subset for n in TUNED_SPACE.names])
                engine.set_mask(mask)
                tuned_names = tuple(n for n in TUNED_SPACE.names if n in subset)
                self._active_subset_size = len(tuned_names)

            generation_evals.clear()
            self._journal.begin_generation()
            resilience_before = dataclasses.replace(self._resilient.stats)
            stats = engine.step()
            replayed = self._journal.end_generation()
            record = IterationRecord(
                iteration=iteration,
                iteration_perf=max(generation_evals) if generation_evals else stats.best_fitness,
                best_perf=stats.best_fitness,
                elapsed_minutes=self.clock.elapsed_minutes,
                evaluations=stats.evaluations,
                tuned_parameters=tuned_names,
            )
            result.history.append(record)
            if recorder.enabled:
                recorder.emit(
                    "generation",
                    iteration=iteration,
                    iteration_perf=record.iteration_perf,
                    best_perf=record.best_perf,
                    elapsed_minutes=record.elapsed_minutes,
                    evaluations=record.evaluations,
                    subset=list(tuned_names),
                    replayed=replayed,
                )
            self._observe_iteration(record)
            self._journal.record_generation(iteration, tuned_names, generation_evals)

            should_stop = self.stopper.should_stop(result.history)
            if recorder.enabled:
                recorder.emit(
                    "agent_decision",
                    agent="stopper",
                    iteration=iteration,
                    stop=bool(should_stop),
                )
            self._warn_generation_events(iteration, resilience_before)
            if should_stop:
                result.stop_reason = "stopper"
                result.stopped_at = iteration
                break
        else:
            result.stop_reason = "budget"

        self._trace_iteration = None
        result.best_config = StackConfiguration.from_genome(engine.best.genome)
        faults = self.simulator.faults
        result.guardrail_trips = tuple(str(t) for t in self.guardrails.trips)
        result.eval_stats = dataclasses.replace(
            self._resilient.stats,
            # The plan is rewound at the start of every tune, so its
            # injection counters are already run-relative.
            faults_injected=(
                faults.transient_errors_injected + faults.stragglers_injected
                if faults is not None
                else 0
            ),
            guardrail_trips=len(result.guardrail_trips),
        )
        self._journal.end_run(result.stop_reason, result.stopped_at)
        if recorder.enabled:
            recorder.emit(
                "run_end",
                stop_reason=result.stop_reason,
                stopped_at=result.stopped_at,
                best_perf=result.best_perf,
                baseline_perf=result.baseline_perf,
                total_minutes=result.total_minutes,
                total_evaluations=result.total_evaluations,
                best_genome=[int(i) for i in engine.best.genome],
                eval_stats=result.eval_stats.as_dict(),
                guardrail_trips=list(result.guardrail_trips),
            )

    # -- evaluation ---------------------------------------------------------------

    def _evaluate(
        self,
        workload: WorkloadLike,
        configs: Sequence[StackConfiguration],
        charge: bool,
    ) -> list[float]:
        # A success is charged one run's duration, on cache hits too: a
        # hit saves simulation work on our side, not testbed time on the
        # simulated cluster.  Failed attempts charge their launch and
        # backoff inside the resilient evaluator.
        return self._resilient.evaluate(workload, configs, self.repeats, charge)
