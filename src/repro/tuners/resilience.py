"""The resilient evaluation harness: retry, timeout, quarantine.

Production tuning campaigns (the kind IOPathTune runs online against a
live Lustre deployment) cannot assume every evaluation succeeds: job
steps crash, stragglers blow past any reasonable deadline, and the odd
configuration reliably wedges the middleware.  :class:`ResilientEvaluator`
wraps the simulator's trace/replay fastpath so a failure becomes a
*decision* (retry, time out, quarantine) instead of a crash:

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
  quarantine list: it is assigned ``worst_case_perf`` (so the GA simply
  selects away from it) and later evaluations of the same configuration
  skip straight to the worst-case fitness without burning more budget.
* **Exception hygiene.**  Anything *not* an ``EvaluationError`` is a
  genuine bug; it is re-raised wrapped with the configuration repr so
  the failing genome is never lost.

The happy path performs exactly the same calls in exactly the same order
as the unwrapped fastpath, so with no faults firing and no timeout
tripping, results remain bit-identical to the pre-harness pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

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

__all__ = ["HarnessError", "RetryPolicy", "ResilienceStats", "ResilientEvaluator"]


class HarnessError(Exception):
    """A non-retryable failure inside the evaluation harness, wrapped
    with the configuration that triggered it."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the harness responds to evaluation failures.

    Parameters
    ----------
    max_retries:
        Re-attempts after the first failure before quarantining.
    backoff_seconds, backoff_multiplier:
        Simulated wait before retry ``k`` is ``backoff_seconds *
        backoff_multiplier**k`` (exponential backoff, charged to the
        tuning clock).
    timeout_seconds:
        Simulated per-evaluation deadline; ``None`` disables timeouts.
    worst_case_perf:
        Fitness assigned to quarantined configurations (MB/s).  0.0 is
        the true worst case: the GA will never select it.
    """

    max_retries: int = 2
    backoff_seconds: float = 30.0
    backoff_multiplier: float = 2.0
    timeout_seconds: float | None = None
    worst_case_perf: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.worst_case_perf < 0:
            raise ValueError("worst_case_perf must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Simulated backoff wait before re-attempt ``attempt + 1``."""
        return self.backoff_seconds * self.backoff_multiplier**attempt


@dataclass
class ResilienceStats:
    """Mutable failure-handling counters for one tuning run."""

    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
        }

    def restore(self, state: Mapping[str, int]) -> None:
        """Restore :meth:`as_dict` counters; unknown keys (such as the
        ``fallbacks`` older journals carry) are ignored."""
        self.retries = int(state.get("retries", 0))
        self.timeouts = int(state.get("timeouts", 0))
        self.quarantined = int(state.get("quarantined", 0))


class ResilientEvaluator:
    """Retry/timeout/quarantine wrapper around the evaluation fastpath.

    One instance serves one tuning run; it shares the tuner's simulator,
    cache and simulated clock so every failure is charged where a real
    testbed would charge it.
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
        self.cache = cache
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = ResilienceStats()
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

    # -- quarantine -------------------------------------------------------------

    def is_quarantined(self, config: StackConfiguration) -> bool:
        return config_digest(config) in self.quarantine

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
        self,
        workload: WorkloadLike,
        config: StackConfiguration,
        charge: bool = True,
        check_cache: bool = True,
    ) -> StackTrace | None:
        """The trace for ``config``, retrying transient failures.

        Returns ``None`` when the configuration is (or becomes)
        quarantined.  Callers that already performed (and counted) the
        cache lookup pass ``check_cache=False``.  Successful traces go
        through the cache; faulted attempts raise before producing
        anything, so no partial trace is ever stored.
        """
        if self.is_quarantined(config):
            return None
        if check_cache and self.cache is not None:
            cached = self.cache.lookup(self.simulator.platform, workload, config)
            if cached is not None:
                return cached
        last: EvaluationError | None = None
        for attempt in range(self.policy.max_retries + 1):
            try:
                trace = self.simulator.trace(workload, config)
            except EvaluationError as exc:
                last = exc
                if attempt < self.policy.max_retries:
                    self.stats.retries += 1
                    self._charge_failed_attempt(attempt, charge)
                    self._emit_retry("retry", config, attempt=attempt, detail=str(exc))
                continue
            except Exception as exc:
                raise HarnessError(
                    f"trace construction failed for {config!r}"
                ) from exc
            if self.cache is not None:
                self.cache.store(self.simulator.platform, workload, config, trace)
            return trace
        assert last is not None
        self._quarantine(config, last)
        return None

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
        """Replay ``trace`` resiliently and return its perf.

        The first attempt uses the pre-drawn ``factors`` slice (so the
        batch path consumes the noise stream exactly as the serial path
        would); retry attempts draw fresh factors.  Timeouts and
        non-finite measurements retry, then quarantine.
        """
        attempt_factors = factors
        for attempt in range(self.policy.max_retries + 1):
            try:
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
        return self.policy.worst_case_perf

    def evaluate_config(
        self,
        workload: WorkloadLike,
        config: StackConfiguration,
        repeats: int,
        charge: bool = True,
    ) -> float:
        """Full resilient evaluation: build (or fetch) the trace, then
        replay it ``repeats`` times.  Quarantined configurations are
        served the worst-case fitness immediately."""
        if self.is_quarantined(config):
            self.charge_quarantined(charge)
            return self.policy.worst_case_perf
        trace = self.build_trace(workload, config, charge=charge)
        if trace is None:
            self.charge_quarantined(charge)
            return self.policy.worst_case_perf
        factors = self.simulator.noise.sample_factors(repeats)
        return self.evaluate_trace(
            workload, config, trace, factors, repeats, charge=charge
        )
