"""HSTuner: the genetic-algorithm I/O tuner TunIO builds on.

HSTuner drives a GA (tournament selection + elitism, as in the paper's
DEAP pipeline) over the 12-parameter HDF5/MPI-IO/Lustre space.  Each
fitness evaluation runs the workload (or its I/O kernel) on the stack
simulator three times, averages bandwidths into the ``perf`` objective,
and charges one run's duration plus setup overhead to the simulated
tuning clock.

The class exposes one extension point, :meth:`_select_subset`, returning
the parameter names the next generation may vary (None = all).  TunIO's
Smart Configuration Generation plugs in there; the base class always
returns None, which *is* HSTuner.

Evaluation fastpath
-------------------
Evaluations ride the simulator's trace/replay fastpath and, when a
:class:`~repro.iostack.evalcache.EvaluationCache` is attached, re-visited
configurations (elites re-drawn by crossover, duplicate genomes, the
default baseline) skip the stack traversal entirely.  Each generation is
additionally dispatched as one batch: noise factors are pre-drawn in
population order, traces are deduplicated per distinct genome, then
every individual replays its own factor slice.  All of this is
bit-identical to the naive per-individual, per-repeat loop -- same
fitnesses, same noise-stream consumption, same clock charges -- the
fastpath only removes redundant deterministic work.  :attr:`TuningResult.eval_stats` records what was
saved.

Resilience
----------
Every evaluation flows through a
:class:`~repro.tuners.resilience.ResilientEvaluator`: retryable failures
(injected faults, timeouts, non-finite measurements) are retried with
simulated-clock-charged exponential backoff, configurations that exhaust
their retries are quarantined at the worst-case fitness instead of
crashing the generation, and an unexpected exception is re-raised with
the failing genome preserved in the exception chain.  With nothing
failing, the harness performs exactly the calls the bare fastpath
would -- results stay bit-identical.

Journaling
----------
:meth:`attach_journal` arms crash-safe checkpoint/resume: completed
generations are appended to a JSONL journal, and a replay cursor feeds
journaled evaluations back on resume so an interrupted run continues
bit-identically (see :mod:`repro.tuners.journal`).
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from repro.ga import (
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
from repro.iostack.evalcache import EvaluationCache, EvaluationStats
from repro.iostack.parameters import TUNED_SPACE, ConstraintRegistry, ParameterSpace
from repro.iostack.simulator import IOStackSimulator, StackTrace, WorkloadLike
from repro.observability.recorder import NULL_RECORDER, Recorder

from .base import IterationRecord, Tuner, TuningResult
from .journal import (
    BaselineRecord,
    GenerationRecord,
    JournalError,
    JournalWriter,
    ReplayCursor,
    rng_state_jsonable,
    verify_rng,
)
from .resilience import ResilientEvaluator, RetryPolicy
from .stoppers import NoStop, Stopper

__all__ = ["HSTuner"]

#: Attempts at perturbing the seed genome before accepting a duplicate
#: (only a degenerate space -- all cardinalities 1 -- exhausts this).
_MAX_PERTURBATION_ATTEMPTS = 16


class HSTuner(Tuner):
    """GA-based I/O stack tuner (the paper's baseline pipeline).

    Parameters
    ----------
    simulator:
        The stack simulator standing in for the testbed.
    space:
        Parameter space to tune (defaults to the paper's 12 parameters).
    population_size, n_elites:
        GA shape; the paper's pipeline uses elitism (1 elite) with
        3-way-tournament parent selection.
    stopper:
        Stopping strategy consulted after every generation.
    repeats:
        Runs averaged per evaluation (3 in the paper's methodology).
    mutation_probability:
        Per-gene mutation rate of offspring.
    rng:
        Seeded generator for reproducibility.
    cache:
        Optional evaluation cache; repeat configurations reuse their
        stored trace (results stay bit-identical, the simulated clock is
        still charged on hits).
    batch_evaluation:
        Dispatch each generation through the toolbox's ``evaluate_batch``
        entry (deduplicates traces within the generation); results are
        bit-identical to per-individual evaluation.
    retry_policy:
        How evaluation failures are retried/timed-out/quarantined; see
        :class:`~repro.tuners.resilience.RetryPolicy`.  The default
        policy never engages unless something actually fails.
    constraints:
        Optional cross-parameter
        :class:`~repro.iostack.parameters.ConstraintRegistry`.  When
        given, a ``repair`` hook is registered in the GA toolbox so
        every bred individual (initial population and post-variation
        offspring) is projected onto the constraint-satisfying region,
        and a user-supplied ``seed_config`` is strictly validated up
        front (raising with one actionable message per violation).
        ``None`` (the default) changes nothing -- runs stay bit-identical
        to pre-constraint builds.
    seed_config:
        Optional starting configuration for the GA (defaults to the
        library defaults).  Must belong to ``space``; validated against
        ``constraints`` when both are given.
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
        space: ParameterSpace = TUNED_SPACE,
        population_size: int = 6,
        n_elites: int = 1,
        stopper: Stopper | None = None,
        repeats: int = 3,
        mutation_probability: float = 0.12,
        rng: np.random.Generator | None = None,
        cache: EvaluationCache | None = None,
        batch_evaluation: bool = True,
        retry_policy: RetryPolicy | None = None,
        constraints: ConstraintRegistry | None = None,
        seed_config: StackConfiguration | None = None,
        recorder: Recorder | None = None,
    ):
        if seed_config is not None and seed_config.space != space:
            raise ValueError(
                "seed_config belongs to a different parameter space than the tuner"
            )
        if constraints is not None and seed_config is not None:
            # Strict gate for user-supplied seeds: fail fast with one
            # actionable message per violation (bred individuals are
            # repaired instead, never rejected).
            seed_config.validate(constraints)
        self.simulator = simulator
        self.space = space
        self.population_size = population_size
        self.n_elites = n_elites
        self.stopper = stopper if stopper is not None else NoStop()
        self.repeats = repeats
        self.mutation_probability = mutation_probability
        self.rng = rng if rng is not None else np.random.default_rng()
        self.cache = cache
        self.batch_evaluation = batch_evaluation
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.constraints = constraints
        self.seed_config = seed_config
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.clock = SimulatedClock()
        self._active_subset_size: int | None = None
        self._n_evaluations = 0
        #: Live counter values at the start of the run's stats window;
        #: the window is live minus base (see :meth:`_live_counters`).
        self._stats_base: dict[str, int] = {}
        #: ``prewarm_*`` fields of the run's :class:`EvaluationStats`.
        self._prewarm_stats: dict[str, int] = {}
        #: Iteration the trace's evaluation events belong to (None before
        #: the first generation, i.e. during the baseline).
        self._trace_iteration: int | None = None
        self._resilient = ResilientEvaluator(
            self.simulator, self.clock, cache=self.cache, policy=self.retry_policy
        )
        self._resilient.recorder = self.recorder
        # Journal hooks (attach_journal); None = no journaling/replay.
        self._journal_writer: JournalWriter | None = None
        self._replay_cursor: ReplayCursor | None = None
        self._replay_record: GenerationRecord | None = None
        self._replay_pop = 0
        self._replay_warmed = False
        self._dispatch_log: list[list[int]] = []

    # -- journaling ----------------------------------------------------------

    def attach_journal(
        self,
        writer: JournalWriter | None,
        replay: ReplayCursor | None = None,
    ) -> None:
        """Arm checkpoint/resume: ``writer`` appends each completed
        generation; ``replay`` (a cursor over a loaded journal) answers
        journaled generations on resume instead of re-simulating them."""
        self._journal_writer = writer
        self._replay_cursor = replay
        self._replay_warmed = False

    # -- extension point -----------------------------------------------------

    def _select_subset(
        self, iteration: int, history: Sequence[IterationRecord]
    ) -> tuple[str, ...] | None:
        """Parameter names the next generation may vary; None = all.
        Overridden by TunIO's Smart Configuration Generation."""
        return None

    def _observe_iteration(self, record: IterationRecord) -> None:
        """Hook called after each iteration (TunIO feeds its agents)."""

    def _drain_guardrail_warnings(self) -> list[str]:
        """Deduplicated guardrail warning lines queued since the last
        drain (overridden by tuners that carry a guardrail monitor)."""
        return []

    def _guardrail_trips(self) -> tuple[str, ...]:
        """Guardrail trips recorded this run (none for the plain tuner)."""
        return ()

    def _begin_run(self) -> None:
        """Hook called as :meth:`tune` starts a fresh run (TunIO re-arms
        its guardrails here)."""

    # -- per-generation warning summaries -----------------------------------

    def _resilience_counts(self) -> dict[str, int]:
        s = self._resilient.stats
        return {
            "retries": s.retries,
            "timeouts": s.timeouts,
            "quarantined": s.quarantined,
        }

    def _warn_generation_events(
        self, iteration: int, before: dict[str, int]
    ) -> None:
        """Emit at most one resilience summary per generation (instead
        of one line per retried evaluation) plus any queued guardrail
        warnings -- each trip kind surfaces once per run, not once per
        decision."""
        after = self._resilience_counts()
        parts = [
            f"{after[key] - before[key]} {key}"
            for key in after
            if after[key] > before[key]
        ]
        lines = []
        if parts:
            lines.append(
                f"iteration {iteration}: resilience events: " + ", ".join(parts)
            )
        lines.extend(self._drain_guardrail_warnings())
        for line in lines:
            warnings.warn(line, RuntimeWarning, stacklevel=3)

    # -- pipeline --------------------------------------------------------------

    def tune(self, workload: WorkloadLike, max_iterations: int = 50) -> TuningResult:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.clock.reset()
        self.stopper.reset()
        self._resilient = ResilientEvaluator(
            self.simulator, self.clock, cache=self.cache, policy=self.retry_policy
        )
        recorder = self.recorder
        recorder.bind_clock(self.clock)
        self._resilient.recorder = recorder
        if self.cache is not None:
            self.cache.recorder = recorder
        if self.simulator.faults is not None:
            # Rewind the fault schedule and tie its degraded windows to
            # this run's clock, so repeated tunes replay the same plan.
            self.simulator.faults.reset()
            self.simulator.faults.attach_clock(self.clock)
        self._n_evaluations = 0
        self._prewarm_stats = {}
        self._stats_base = self._live_counters()
        self._begin_run()
        if recorder.enabled:
            recorder.emit(
                "run_start",
                tuner=self.name,
                workload=workload.name,
                max_iterations=max_iterations,
                population_size=self.population_size,
                repeats=self.repeats,
                resumed=self._replay_cursor is not None,
            )

        result = TuningResult(tuner_name=self.name, workload_name=workload.name)
        result.baseline_perf = self._baseline_perf(workload)

        generation_evals: list[float] = []

        def evaluate(ind: Individual) -> float:
            self._dispatch_log.append([int(i) for i in ind.genome])
            record = self._replay_record
            if record is not None:
                perf = self._replay_perf(record)
            else:
                config = StackConfiguration.from_genome(self.space, ind.genome)
                perf = self._evaluate_config(workload, config, charge=True)
            generation_evals.append(perf)
            if recorder.enabled:
                recorder.emit(
                    "evaluation",
                    iteration=self._trace_iteration,
                    genome=[int(i) for i in ind.genome],
                    perf=perf,
                    replayed=record is not None,
                )
            return perf

        def evaluate_batch(individuals: Sequence[Individual]) -> list[float]:
            self._dispatch_log.extend(
                [int(i) for i in ind.genome] for ind in individuals
            )
            record = self._replay_record
            if record is not None:
                perfs = [self._replay_perf(record) for _ in individuals]
            else:
                perfs = self._evaluate_generation(workload, individuals)
            generation_evals.extend(perfs)
            if recorder.enabled:
                for ind, perf in zip(individuals, perfs):
                    recorder.emit(
                        "evaluation",
                        iteration=self._trace_iteration,
                        genome=[int(i) for i in ind.genome],
                        perf=perf,
                        replayed=record is not None,
                    )
            return perfs

        def generate(n: int, rng: np.random.Generator) -> list[Individual]:
            # HSTuner explores outward from the library defaults (or a
            # user-supplied seed): the initial population is the seed
            # configuration plus neighbour perturbations of it.
            # (Uniform-random seeding would start the search deep inside
            # the space and skip the climb the paper's tuning curves
            # show.)
            if self.seed_config is not None:
                seed = Individual(self.seed_config.genome())
            else:
                seed = Individual(self.space.encode(self.space.default_values()))
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
            active = self._active_subset_size or len(self.space)
            rate = min(0.6, self.mutation_probability * len(self.space) / active)
            return uniform_reset_mutation(
                ind,
                rng,
                cardinalities=self.space.cardinalities,
                per_gene_probability=rate,
            )

        toolbox = Toolbox()
        toolbox.register("generate", generate)
        toolbox.register("evaluate", evaluate)
        toolbox.register("select", tournament_pair)
        toolbox.register("mate", uniform_crossover)
        toolbox.register("mutate", mutate)
        if self.batch_evaluation:
            toolbox.register("evaluate_batch", evaluate_batch)
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
        self._run_iterations(max_iterations)
        return result

    def resume(self, extra_iterations: int) -> TuningResult:
        """Continue a finished :meth:`tune` run for more iterations,
        keeping the GA population, clock and stopper state."""
        if getattr(self, "_engine", None) is None:
            raise RuntimeError("nothing to resume; call tune() first")
        if extra_iterations < 1:
            raise ValueError("extra_iterations must be >= 1")
        self._run_iterations(extra_iterations)
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
                cardinalities=self.space.cardinalities,
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
                tuned_names = self.space.names
                self._active_subset_size = None
            else:
                mask = np.array([n in subset for n in self.space.names])
                engine.set_mask(mask)
                tuned_names = tuple(n for n in self.space.names if n in subset)
                self._active_subset_size = len(tuned_names)

            generation_evals.clear()
            self._dispatch_log.clear()
            self._replay_pop = 0
            self._replay_record = (
                self._replay_cursor.next_generation() if self._replay_cursor else None
            )
            if (
                self._replay_cursor is not None
                and self._replay_record is None
                and not self._replay_warmed
            ):
                # Replay just ran dry: the next generation goes live.
                self._warm_cache_from_journal()
                self._replay_warmed = True
            resilience_before = self._resilience_counts()
            stats = engine.step()
            replayed = self._replay_record is not None
            if self._replay_record is not None:
                self._finish_replay(self._replay_record)
                self._replay_record = None
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
            if self._journal_writer is not None:
                self._journal_writer.write_generation(
                    self._generation_record(iteration, tuned_names, generation_evals)
                )

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
        result.best_config = StackConfiguration.from_genome(
            self.space, engine.best.genome
        )
        faults = self.simulator.faults
        result.guardrail_trips = self._guardrail_trips()
        result.eval_stats = EvaluationStats(
            evaluations=self._n_evaluations,
            **self._stats_window(),
            **self._resilient.stats.as_dict(),
            # The plan is rewound at the start of every tune, so its
            # injection counters are already run-relative.
            faults_injected=(
                faults.transient_errors_injected + faults.stragglers_injected
                if faults is not None
                else 0
            ),
            guardrail_trips=len(result.guardrail_trips),
            **self._prewarm_stats,
        )
        if self._journal_writer is not None:
            self._journal_writer.write_final(result.stop_reason, result.stopped_at)
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

    # -- journal record/replay ---------------------------------------------------

    def _baseline_perf(self, workload: WorkloadLike) -> float:
        """Evaluate (or replay) the untuned baseline and journal it."""
        record = self._replay_cursor.baseline() if self._replay_cursor else None
        if record is not None:
            perf = record.perf
            self.simulator.noise.seek(record.noise_position)
            if self.simulator.faults is not None and record.fault_state is not None:
                self.simulator.faults.set_state(record.fault_state)
            self._n_evaluations = record.n_evaluations
            self._restore_stats_window(record.fastpath)
        else:
            perf = self._evaluate_config(
                workload, StackConfiguration.default(self.space), charge=False
            )
        if self.recorder.enabled:
            self.recorder.emit("baseline", perf=perf, replayed=record is not None)
        if self._journal_writer is not None:
            self._journal_writer.write_baseline(
                BaselineRecord(
                    perf=perf,
                    noise_position=self.simulator.noise.position,
                    n_evaluations=self._n_evaluations,
                    fault_state=(
                        self.simulator.faults.get_state()
                        if self.simulator.faults is not None
                        else None
                    ),
                    fastpath=self._stats_window(),
                )
            )
        return perf

    def _replay_perf(self, record: GenerationRecord) -> float:
        """The next journaled perf of the generation being replayed."""
        if self._replay_pop >= len(record.perfs):
            raise JournalError(
                f"journal mismatch at iteration {record.iteration}: the resumed "
                f"pipeline dispatched more evaluations than the journaled run"
            )
        perf = record.perfs[self._replay_pop]
        self._replay_pop += 1
        return perf

    def _finish_replay(self, record: GenerationRecord) -> None:
        """Restore every stream a replayed generation would have
        consumed, then verify the replay stayed on the journaled path."""
        if self._dispatch_log != [list(g) for g in record.dispatched]:
            raise JournalError(
                f"journal mismatch at iteration {record.iteration}: the resumed "
                f"pipeline dispatched different genomes than the journaled run "
                f"(was the journal written with different settings or seed?)"
            )
        self.simulator.noise.seek(record.noise_position)
        self.clock.restore(record.clock_seconds, record.clock_evaluations)
        self._n_evaluations = record.n_evaluations
        if self.simulator.faults is not None and record.fault_state is not None:
            self.simulator.faults.set_state(record.fault_state)
        self._resilient.restore_quarantine(record.quarantine)
        self._resilient.stats.restore(record.resilience)
        self._restore_stats_window(record.fastpath)
        verify_rng(record, self.rng)

    def _generation_record(
        self,
        iteration: int,
        tuned_names: tuple[str, ...],
        generation_evals: Sequence[float],
    ) -> GenerationRecord:
        engine = self._engine
        return GenerationRecord(
            iteration=iteration,
            dispatched=tuple(tuple(g) for g in self._dispatch_log),
            perfs=tuple(generation_evals),
            population=tuple(
                (tuple(int(i) for i in ind.genome), float(ind.fitness))
                for ind in engine.population
            ),
            subset=tuned_names,
            noise_position=self.simulator.noise.position,
            clock_seconds=self.clock.elapsed_seconds,
            clock_evaluations=self.clock.n_evaluations,
            n_evaluations=self._n_evaluations,
            rng_state=rng_state_jsonable(self.rng),
            fault_state=(
                self.simulator.faults.get_state()
                if self.simulator.faults is not None
                else None
            ),
            quarantine=self._resilient.quarantine_state(),
            resilience=self._resilient.stats.as_dict(),
            agent_state=self._journal_agent_state(),
            fastpath=self._stats_window(),
        )

    def _journal_agent_state(self) -> dict | None:
        """Agent state snapshot for the journal (overridden by TunIO to
        record its impact scores); informational, not used by replay."""
        return None

    def _warm_cache_from_journal(self) -> None:
        """Rebuild the traces the journaled generations cached, so the
        resumed run enters its first live generation with the same cache
        warmth as the uninterrupted one.

        Without this, revisited configurations would rebuild traces the
        original run served from cache -- harmless for results (trace
        construction is deterministic) except that each rebuild makes an
        extra fault-schedule draw, which would fork the fault stream.
        Fault checks are bypassed while warming (the journal already
        accounts the faults that fired) and quarantined configurations
        are skipped: nothing ever looks their traces up.  Only LRU
        recency can differ from the uninterrupted run, which matters
        only past ``maxsize`` distinct configurations.

        Warming is bookkeeping, not tuning: its lookups and trace builds
        are recorded in the ``prewarm_*`` fields of
        :class:`EvaluationStats` and excluded from the run's own cache
        counters, so a resumed run reports the same ``cache_hit_rate``
        as the uninterrupted one.
        """
        if self.cache is None or self._replay_cursor is None:
            return
        cache = self.cache
        genomes: dict[tuple[int, ...], None] = {}
        for record in self._replay_cursor.journal.generations:
            for genome in record.dispatched:
                genomes.setdefault(tuple(genome), None)
        configs = [StackConfiguration.default(self.space)] + [
            StackConfiguration.from_genome(self.space, genome) for genome in genomes
        ]
        before = self._live_counters()
        faults, self.simulator.faults = self.simulator.faults, None
        # Warming lookups are not run cache activity: mute the cache's
        # per-op trace events for the duration (one summary event below).
        cache_recorder, cache.recorder = cache.recorder, None
        try:
            for config in configs:
                if self._resilient.is_quarantined(config):
                    continue
                cached = cache.lookup(
                    self.simulator.platform, self._workload, config
                )
                if cached is None:
                    trace = self.simulator.trace(self._workload, config)
                    cache.store(
                        self.simulator.platform, self._workload, config, trace
                    )
        finally:
            self.simulator.faults = faults
            cache.recorder = cache_recorder
        # Exclude the warming deltas from the run's stats window.
        delta = {k: v - before[k] for k, v in self._live_counters().items()}
        for key, value in delta.items():
            self._stats_base[key] += value
        lookups = delta["cache_hits"] + delta["cache_misses"]
        self._prewarm_stats = {
            "prewarm_lookups": lookups,
            "prewarm_hits": delta["cache_hits"],
            "prewarm_builds": delta["traces_built"],
        }
        if self.recorder.enabled:
            self.recorder.emit(
                "cache_prewarm",
                lookups=lookups,
                hits=delta["cache_hits"],
                builds=delta["traces_built"],
            )

    # -- evaluation ---------------------------------------------------------------

    def _evaluate_config(
        self, workload: WorkloadLike, config: StackConfiguration, charge: bool
    ) -> float:
        perf = self._resilient.evaluate_config(
            workload, config, repeats=self.repeats, charge=charge
        )
        # Note on charging: a success is charged one run's duration (on
        # cache hits too -- a hit saves simulation work on our side, not
        # testbed time on the simulated cluster); failed attempts charge
        # their launch + backoff inside the resilient evaluator.
        self._n_evaluations += 1
        return perf

    def _evaluate_generation(
        self, workload: WorkloadLike, individuals: Sequence[Individual]
    ) -> list[float]:
        """Evaluate one generation as a batch, bit-identically to a
        per-individual loop when nothing fails.

        Noise factors are pre-drawn in population order (so the noise
        stream advances exactly as the sequential path would), traces
        are built once per distinct genome, and each individual replays
        its own factor slice and charges the clock.  Quarantined
        configurations (``None`` traces) are served the worst-case
        fitness; replay failures retry through the resilient harness.
        """
        configs = [
            StackConfiguration.from_genome(self.space, ind.genome)
            for ind in individuals
        ]
        factors = self.simulator.noise.sample_factors(self.repeats * len(configs))
        traces = self._traces_for(workload, configs)
        perfs: list[float] = []
        for i, (config, trace) in enumerate(zip(configs, traces)):
            self._n_evaluations += 1
            if trace is None:
                self._resilient.charge_quarantined(charge=True)
                perfs.append(self.retry_policy.worst_case_perf)
                continue
            window = factors[i * self.repeats : (i + 1) * self.repeats]
            perfs.append(
                self._resilient.evaluate_trace(
                    workload, config, trace, window, self.repeats, charge=True
                )
            )
        return perfs

    def _traces_for(
        self, workload: WorkloadLike, configs: Sequence[StackConfiguration]
    ) -> list[StackTrace | None]:
        """One trace per config (``None`` for quarantined ones), built
        once per distinct configuration through the cache when attached.
        Misses are built by the resilient harness, which retries
        transient faults with backoff and wraps unexpected exceptions
        with the failing configuration's repr."""
        order: list[StackConfiguration] = list(dict.fromkeys(configs))
        built: dict[StackConfiguration, StackTrace | None] = {}
        for config in order:
            if self._resilient.is_quarantined(config):
                built[config] = None  # served worst-case downstream
                continue
            cached = (
                self.cache.lookup(self.simulator.platform, workload, config)
                if self.cache is not None
                else None
            )
            if cached is not None:
                built[config] = cached
        for config in order:
            if config not in built:
                built[config] = self._resilient.build_trace(
                    workload, config, charge=True, check_cache=False
                )
        return [built[config] for config in configs]

    # -- stats window ------------------------------------------------------------

    def _live_counters(self) -> dict[str, int]:
        """Current simulator and cache counters, keyed like the
        :class:`EvaluationStats` fields they feed."""
        cache = self.cache
        return {
            "traces_built": self.simulator.traces_built,
            "trace_replays": self.simulator.trace_replays,
            "cache_hits": cache.hits if cache else 0,
            "cache_misses": cache.misses if cache else 0,
            "cache_evictions": cache.evictions if cache else 0,
        }

    def _stats_window(self) -> dict[str, int]:
        """The run-relative counters (live minus base), journaled at
        every record boundary so resume can restore them."""
        return {k: v - self._stats_base[k] for k, v in self._live_counters().items()}

    def _restore_stats_window(self, window: Mapping[str, int]) -> None:
        """Re-base the window so it equals a journaled ``fastpath``
        dict.  Replayed generations skip the simulator entirely, so
        without this a resumed run would report zeros for everything the
        journaled generations did.  Keys this build does not count are
        ignored; empty dicts (journals from older builds) change nothing."""
        live = self._live_counters()
        for key, value in window.items():
            if key in live:
                self._stats_base[key] = live[key] - int(value)
