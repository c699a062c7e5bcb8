"""Tuner foundations: iteration records, results and the Tuner protocol.

A *tuning iteration* is one GA generation (the paper uses the terms
interchangeably).  Every tuner produces a :class:`TuningResult` whose
history carries, per iteration, the best objective so far and the
simulated minutes spent -- the two series every figure in the paper's
evaluation is drawn from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.iostack.config import StackConfiguration
from repro.iostack.evalcache import EvaluationStats

__all__ = ["IterationRecord", "TuningResult", "Tuner"]


@dataclass(frozen=True)
class IterationRecord:
    """Summary of one tuning iteration (GA generation)."""

    iteration: int
    #: Best perf found in this iteration's population (MB/s).
    iteration_perf: float
    #: Best perf found so far across all iterations (MB/s).
    best_perf: float
    #: Simulated tuning overhead accumulated so far, in minutes.
    elapsed_minutes: float
    #: Objective evaluations performed this iteration.
    evaluations: int
    #: Parameters tuned this iteration (subset tuning), genome order.
    tuned_parameters: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        if self.elapsed_minutes < 0:
            raise ValueError("elapsed_minutes must be >= 0")


@dataclass
class TuningResult:
    """Outcome of a tuning run."""

    tuner_name: str
    workload_name: str
    history: list[IterationRecord] = field(default_factory=list)
    best_config: StackConfiguration | None = None
    #: Perf of the default (untuned) configuration, MB/s.
    baseline_perf: float = 0.0
    #: Why the run ended: "stopper", "budget", or "completed".
    stop_reason: str = "completed"
    #: Iteration index at which the stopper fired (None if it didn't).
    stopped_at: int | None = None
    #: The run's counter record (evaluations, cache hits, trace reuse,
    #: retries...); populated by tuners that track it, None otherwise.
    eval_stats: EvaluationStats | None = None
    #: Human-readable agent guardrail trips ("guardrail:kind at
    #: iteration N (detail)"); empty when the agents stayed healthy (or
    #: the tuner has no guarded agents).
    guardrail_trips: tuple[str, ...] = ()

    @property
    def best_perf(self) -> float:
        """Best objective reached (MB/s); baseline if nothing ran."""
        if not self.history:
            return self.baseline_perf
        return self.history[-1].best_perf

    @property
    def total_minutes(self) -> float:
        """Total simulated tuning overhead in minutes."""
        if not self.history:
            return 0.0
        return self.history[-1].elapsed_minutes

    @property
    def total_evaluations(self) -> int:
        return sum(r.evaluations for r in self.history)

    @property
    def gain(self) -> float:
        """Absolute improvement over the untuned configuration (MB/s)."""
        return max(0.0, self.best_perf - self.baseline_perf)

    def perf_series(self) -> np.ndarray:
        """Best-so-far perf per iteration (MB/s)."""
        return np.array([r.best_perf for r in self.history])

    def minutes_series(self) -> np.ndarray:
        """Elapsed minutes per iteration."""
        return np.array([r.elapsed_minutes for r in self.history])

    def iterations_to_reach(self, perf_mbps: float) -> int | None:
        """First iteration whose best-so-far meets a target, or None."""
        for record in self.history:
            if record.best_perf >= perf_mbps:
                return record.iteration
        return None



class Tuner(abc.ABC):
    """A tuning pipeline: takes a workload, produces a TuningResult."""

    name: str = "tuner"

    @abc.abstractmethod
    def tune(self, workload, max_iterations: int) -> TuningResult:
        """Run the tuning pipeline for at most ``max_iterations``
        iterations (the stopper may end it earlier)."""
