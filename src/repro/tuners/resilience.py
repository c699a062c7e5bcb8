"""The resilient evaluation harness: retry, timeout, quarantine.

Production tuning campaigns (the kind IOPathTune runs online against a
live Lustre deployment) cannot assume every evaluation succeeds: job
steps crash, stragglers blow past any reasonable deadline, and the odd
configuration reliably wedges the middleware.  :class:`ResilientEvaluator`
wraps the simulator's trace/replay fastpath so a failure becomes a
*decision* (retry, time out, quarantine) instead of a crash:

* **One retry loop.**  Every attempt of an evaluation first asks the
  simulator's fault plan whether the launch faults
  (:meth:`~repro.iostack.faults.FaultPlan.check_trace`, once per
  attempt, on a cache hit as on a miss), then replays the trace.
  Building a trace never faults, so transient faults, poisoned
  configurations, timeouts and non-finite measurements all retry in
  :meth:`ResilientEvaluator.evaluate_trace`.
* **Bounded retry with exponential backoff.**  A retryable failure (any
  :class:`~repro.iostack.faults.EvaluationError`) is re-attempted up to
  ``max_retries`` times.  Each retry charges the simulated tuning clock
  with the failed launch plus the backoff wait -- failures cost tuning
  time exactly like the paper's RoTI accounting charges successful runs.
* **Simulated per-evaluation timeout.**  When ``timeout_seconds`` is set
  and an evaluation's charged runtime exceeds it, the run is treated as
  killed at the deadline: the clock is charged setup + timeout, the
  measurement is discarded, and the attempt counts as a retryable
  failure.  Stragglers injected by a fault plan surface here.
* **Quarantine.**  A configuration that exhausts its retries joins the
  quarantine list: it is assigned :data:`WORST_CASE_PERF` (so the GA simply
  selects away from it) and later evaluations of the same configuration
  skip straight to the worst-case fitness without burning more budget.
* **Exception hygiene.**  Anything *not* an ``EvaluationError`` is a
  genuine bug; it is re-raised wrapped with the configuration repr so
  the failing genome is never lost.

The happy path performs exactly the same calls in exactly the same order
as the unwrapped fastpath, so with no faults firing and no timeout
tripping, results remain bit-identical to the pre-harness pipeline.

The evaluator is the only code that touches the trace table of its
:class:`~repro.iostack.evalcache.EvaluationCache`: tuning runs and the
offline parameter sweep look traces up, build and store them through
it, and it hands the same cache to every trace it builds, so they share
layer results.  The cache is a pure memo: whether a trace was cached
changes no fault draw, no noise draw and no clock charge.  Every
evaluation of a tuning run passes through one evaluator, so it owns the
run's only counter record, :attr:`ResilientEvaluator.stats` (an
:class:`EvaluationStats`), and counts -- and, with a recorder
attached, emits the ``cache`` and ``retry`` trace events -- at the
points where it already branches: evaluations, cache hits, misses and
stores, traces built and replayed, retries, timeouts and quarantines.
The counts are run-local by construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.iostack.clock import SimulatedClock
from repro.iostack.config import StackConfiguration
from repro.iostack.evalcache import EvaluationCache
from repro.iostack.faults import (
    EvaluationError,
    EvaluationTimeout,
    config_digest,
)
from repro.iostack.simulator import (
    EvaluationResult,
    IOStackSimulator,
    StackTrace,
    WorkloadLike,
)

__all__ = ["HarnessError", "RetryPolicy", "EvaluationStats", "ResilientEvaluator"]


class HarnessError(Exception):
    """A non-retryable failure inside the evaluation harness, wrapped
    with the configuration that triggered it."""


#: Each retry's backoff wait is this many times the previous one's.
BACKOFF_MULTIPLIER = 2.0
#: Fitness (MB/s) assigned to quarantined configurations: the true worst
#: case, so the GA never selects one.
WORST_CASE_PERF = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """How the harness responds to evaluation failures.

    Parameters
    ----------
    max_retries:
        Re-attempts after the first failure before quarantining.
    backoff_seconds:
        Simulated wait before retry ``k`` is ``backoff_seconds *
        BACKOFF_MULTIPLIER**k`` (exponential backoff, charged to the
        tuning clock).
    timeout_seconds:
        Simulated per-evaluation deadline; ``None`` disables timeouts.
    """

    max_retries: int = 2
    backoff_seconds: float = 30.0
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")

    def backoff_for(self, attempt: int) -> float:
        """Simulated backoff wait before re-attempt ``attempt + 1``."""
        return self.backoff_seconds * BACKOFF_MULTIPLIER**attempt


@dataclass
class EvaluationStats:
    """The counter record of one tuning run, surfaced on
    :class:`~repro.tuners.base.TuningResult` and in the CLI report.

    The run's :class:`ResilientEvaluator` owns it and counts where it
    branches: evaluations, cache lookups that hit or miss, traces built
    and replayed, retries, timeouts and quarantines.  The tuner fills in
    the fault and guardrail fields as the run ends.  The cache and build
    counters count this process's memo work: a run resumed from its
    journal restores the others and counts only its own lookups and
    builds.  It also notes the replays it restored, so
    :attr:`trace_reuse` counts its own replays only.
    """

    #: Configuration evaluations performed (baseline included).
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Full stack traversals performed by the simulator.
    traces_built: int = 0
    #: Reports derived from a stored trace (``repeats`` per evaluation).
    trace_replays: int = 0
    #: The part of ``trace_replays`` a resumed run restored from its
    #: journal: the replayed generations', which this process did not
    #: perform (0 on a run that was not resumed).
    restored_replays: int = 0
    #: Evaluation attempts repeated after a retryable failure.
    retries: int = 0
    #: Evaluations that exceeded the simulated per-evaluation timeout.
    timeouts: int = 0
    #: Configurations that exhausted their retries and were assigned the
    #: worst-case fitness instead of crashing the generation.
    quarantined: int = 0
    #: Faults the plan injected (transient errors + stragglers).
    faults_injected: int = 0
    #: Agent guardrail trips recorded during the run (weight corruption,
    #: training divergence, degenerate policies); details live on
    #: :attr:`~repro.tuners.base.TuningResult.guardrail_trips`.
    guardrail_trips: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hit rate of the cache lookups counted in this process."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def trace_reuse(self) -> int:
        """Replays that reused an existing trace instead of traversing
        the stack -- the simulations the fastpath avoided.  Like the
        cache and build counters, it counts this process's work only:
        its own replays (without the ones a resumed run restored from
        its journal) minus its own builds."""
        return max(0, self.trace_replays - self.restored_replays - self.traces_built)

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (trace ``run_end`` events and the
        ``--metrics-out`` snapshot)."""
        return dataclasses.asdict(self)


class ResilientEvaluator:
    """Retry/timeout/quarantine wrapper around the evaluation fastpath.

    One instance serves one tuning run; it shares the tuner's simulator,
    cache and simulated clock so every failure is charged where a real
    testbed would charge it, and counts the run's work on :attr:`stats`.
    """

    def __init__(
        self,
        simulator: IOStackSimulator,
        clock: SimulatedClock,
        cache: EvaluationCache | None = None,
        policy: RetryPolicy | None = None,
    ):
        self.simulator = simulator
        self.clock = clock
        #: The run's memo, shared with the tuner; ``None`` gets a
        #: private one.
        self.cache = cache if cache is not None else EvaluationCache()
        self.policy = policy if policy is not None else RetryPolicy()
        #: The run's counter record (journal replay restores it).
        self.stats = EvaluationStats()
        #: config digest -> repr, for reporting and journal round-trips.
        self.quarantine: dict[str, str] = {}
        #: Optional trace recorder (duck-typed; see
        #: :mod:`repro.observability.recorder`).  None by default so the
        #: harness needs no observability import.
        self.recorder = None

    def _emit_retry(self, kind: str, config: StackConfiguration, **fields) -> None:
        """Emit one ``retry``-family trace event (no-op untraced)."""
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.emit("retry", kind=kind, config=config_digest(config), **fields)

    def _emit_cache(self, op: str) -> None:
        """Emit one ``cache`` trace event (no-op untraced)."""
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.emit("cache", op=op)

    # -- quarantine -------------------------------------------------------------

    def is_quarantined(self, config: StackConfiguration) -> bool:
        # Most runs never quarantine anything: skip the digest then.
        return bool(self.quarantine) and config_digest(config) in self.quarantine

    def _quarantine(self, config: StackConfiguration, cause: Exception) -> None:
        self.quarantine[config_digest(config)] = repr(config)
        self.stats.quarantined += 1
        self._emit_retry("quarantine", config, detail=str(cause))

    def quarantine_state(self) -> dict[str, str]:
        return dict(self.quarantine)

    def restore_quarantine(self, state: Mapping[str, str]) -> None:
        self.quarantine = {str(k): str(v) for k, v in state.items()}

    # -- clock charges ----------------------------------------------------------

    def _charge_failed_attempt(self, attempt: int, charge: bool) -> None:
        """A failed launch costs its setup plus the backoff wait."""
        if charge:
            self.clock.advance(
                self.clock.setup_overhead + self.policy.backoff_for(attempt)
            )

    def _charge_timeout(self, charge: bool) -> None:
        """A timed-out run was killed at the deadline."""
        if charge and self.policy.timeout_seconds is not None:
            self.clock.advance(self.clock.setup_overhead + self.policy.timeout_seconds)

    def charge_quarantined(self, charge: bool) -> None:
        """Serving a quarantined config costs one (rejected) submission."""
        if charge:
            self.clock.advance(self.clock.setup_overhead)

    # -- trace construction -----------------------------------------------------

    def build_trace(
        self, workload: WorkloadLike, config: StackConfiguration
    ) -> StackTrace:
        """Build ``config``'s trace on the cache's layer results and
        store it there.  Building never faults, so any exception is a
        bug: it is re-raised as a :class:`HarnessError` naming the
        configuration."""
        try:
            trace = self.simulator.trace(workload, config, self.cache)
        except Exception as exc:
            raise HarnessError(
                f"trace construction failed for {config!r}"
            ) from exc
        self.stats.traces_built += 1
        self.cache.store(workload, config, trace)
        self._emit_cache("store")
        return trace

    def traces(
        self, workload: WorkloadLike, configs: Sequence[StackConfiguration]
    ) -> dict[StackConfiguration, StackTrace | None]:
        """The trace of each distinct configuration, or ``None`` for a
        quarantined one: every cache lookup first, in first-seen order,
        then the misses are built (:meth:`build_trace`).  A cache that
        already serves another platform is refused with
        :class:`ValueError` before any lookup."""
        cache = self.cache
        cache.bind(self.simulator.platform)
        traces: dict[StackConfiguration, StackTrace | None] = {}
        distinct = list(dict.fromkeys(configs))
        for config in distinct:
            if self.is_quarantined(config):
                traces[config] = None
                continue
            cached = cache.lookup(workload, config)
            if cached is None:
                self.stats.cache_misses += 1
                self._emit_cache("miss")
            else:
                self.stats.cache_hits += 1
                self._emit_cache("hit")
                traces[config] = cached
        for config in distinct:
            if config not in traces:
                traces[config] = self.build_trace(workload, config)
        return traces

    # -- evaluation -------------------------------------------------------------

    def _validated(self, evaluation: EvaluationResult) -> EvaluationResult:
        """Reject non-finite and timed-out measurements."""
        if not math.isfinite(evaluation.perf_mbps):
            raise EvaluationError(
                f"evaluation produced non-finite perf {evaluation.perf_mbps!r}"
            )
        timeout = self.policy.timeout_seconds
        if timeout is not None and evaluation.charged_seconds > timeout:
            raise EvaluationTimeout(
                f"evaluation ran {evaluation.charged_seconds:.1f}s "
                f"(timeout {timeout:.1f}s)"
            )
        return evaluation

    def evaluate_trace(
        self,
        workload: WorkloadLike,
        config: StackConfiguration,
        trace: StackTrace,
        factors,
        repeats: int,
        charge: bool = True,
    ) -> float:
        """Evaluate ``config`` from its ``trace`` and return its perf: the
        harness's one retry loop.

        Each attempt first draws the fault plan's decision for the
        launch (:meth:`~repro.iostack.faults.FaultPlan.check_trace`),
        then replays the trace and rejects non-finite and timed-out
        measurements.  The first attempt uses the ``factors`` slice
        :meth:`evaluate` pre-drew; every retry draws fresh factors.  A
        configuration whose attempts all fail is quarantined.
        """
        faults = self.simulator.faults
        attempt_factors = factors
        for attempt in range(self.policy.max_retries + 1):
            try:
                if faults is not None:
                    faults.check_trace(config)
                self.stats.trace_replays += len(attempt_factors)
                evaluation = self._validated(
                    self.simulator.evaluate_trace_with_factors(trace, attempt_factors)
                )
            except EvaluationTimeout as exc:
                self.stats.timeouts += 1
                self._charge_timeout(charge)
                self._emit_retry("timeout", config, attempt=attempt, detail=str(exc))
                last: EvaluationError = exc
            except EvaluationError as exc:
                self._charge_failed_attempt(attempt, charge)
                last = exc
            else:
                if charge:
                    self.clock.charge_evaluation(evaluation.charged_seconds)
                return evaluation.perf_mbps
            if attempt < self.policy.max_retries:
                self.stats.retries += 1
                self._emit_retry("retry", config, attempt=attempt, detail=str(last))
                attempt_factors = self.simulator.noise.sample_factors(repeats)
        self._quarantine(config, last)
        self.charge_quarantined(charge)
        return WORST_CASE_PERF

    def evaluate(
        self,
        workload: WorkloadLike,
        configs: Sequence[StackConfiguration],
        repeats: int,
        charge: bool = True,
    ) -> list[float]:
        """Evaluate ``configs`` in order; one perf per configuration.

        Noise factors are pre-drawn in input order, ``repeats`` per
        configuration, so the noise stream advances exactly as a
        one-at-a-time loop would.  Each distinct configuration's trace
        is looked up in the cache or built once, then every
        configuration replays its own factor slice.  Quarantined
        configurations are served the worst-case fitness for one
        rejected submission.  With ``charge`` false nothing touches the
        clock (the untuned baseline is not tuning time).
        """
        # Checked before anything is counted, built or cached.
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.stats.evaluations += len(configs)
        factors = self.simulator.noise.sample_factors(repeats * len(configs))
        traces = self.traces(workload, configs)
        perfs: list[float] = []
        for i, config in enumerate(configs):
            trace = traces[config]
            if trace is None:
                self.charge_quarantined(charge)
                perfs.append(WORST_CASE_PERF)
                continue
            window = factors[i * repeats : (i + 1) * repeats]
            perfs.append(
                self.evaluate_trace(workload, config, trace, window, repeats, charge)
            )
        return perfs
