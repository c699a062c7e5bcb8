"""Application-lifecycle cost analysis (the paper's Figure 12).

Tuning pays off only if the application runs often enough: total cost
over the lifecycle is ``tuning_minutes + n_executions x per_run_minutes``
(the y-intercept is the tuning time).  The *viability point* against the
no-tuning line is the execution count where the tuned lifecycle becomes
cheaper; two tuners can also be compared for the crossover where the
slower-but-better tune overtakes the faster one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.iostack.config import StackConfiguration
from repro.iostack.simulator import IOStackSimulator, WorkloadLike
from repro.iostack.units import seconds_to_minutes

from .base import TuningResult

__all__ = ["LifecycleModel", "lifecycle_model", "viability_point", "crossover_point"]


@dataclass(frozen=True)
class LifecycleModel:
    """Linear lifecycle cost: ``total(n) = tuning_minutes + n * run_minutes``."""

    name: str
    tuning_minutes: float
    run_minutes: float

    def __post_init__(self) -> None:
        if self.tuning_minutes < 0 or self.run_minutes <= 0:
            raise ValueError("tuning_minutes must be >= 0 and run_minutes > 0")

    def total_minutes(self, n_executions: float) -> float:
        """Lifecycle cost in minutes after ``n_executions`` runs."""
        if n_executions < 0:
            raise ValueError("n_executions must be >= 0")
        return self.tuning_minutes + n_executions * self.run_minutes


def lifecycle_model(
    simulator: IOStackSimulator,
    workload: WorkloadLike,
    result: TuningResult,
    name: str | None = None,
) -> LifecycleModel:
    """Build a lifecycle model from a tuning run: its tuning time plus
    the tuned configuration's per-run duration (noise-averaged)."""
    if result.best_config is None:
        raise ValueError("tuning result has no best_config")
    evaluation = simulator.evaluate(workload, result.best_config, repeats=3)
    return LifecycleModel(
        name=name or result.tuner_name,
        tuning_minutes=result.total_minutes,
        run_minutes=seconds_to_minutes(evaluation.charged_seconds),
    )


def untuned_model(simulator: IOStackSimulator, workload: WorkloadLike) -> LifecycleModel:
    """The no-tuning reference line (zero intercept, default config)."""
    evaluation = simulator.evaluate(workload, StackConfiguration.default(), repeats=3)
    return LifecycleModel(
        name="no-tuning",
        tuning_minutes=0.0,
        run_minutes=seconds_to_minutes(evaluation.charged_seconds),
    )


def viability_point(tuned: LifecycleModel, untuned: LifecycleModel) -> int | None:
    """Executions after which tuning beats not tuning (None if never).

    Solves ``tuning + n*run_tuned <= n*run_untuned``.
    """
    saved_per_run = untuned.run_minutes - tuned.run_minutes
    if saved_per_run <= 0:
        return None
    return math.ceil(tuned.tuning_minutes / saved_per_run)


def crossover_point(a: LifecycleModel, b: LifecycleModel) -> int | None:
    """Executions at which model ``b`` overtakes model ``a`` (``b`` has
    the larger up-front tuning cost but the faster runs), or None if the
    lines never cross in n >= 0."""
    delta_tuning = b.tuning_minutes - a.tuning_minutes
    delta_run = a.run_minutes - b.run_minutes
    if delta_run <= 0:
        return None if delta_tuning > 0 else 0
    return max(0, math.ceil(delta_tuning / delta_run))
