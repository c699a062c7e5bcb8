"""Tuning pipelines: the Tuner protocol, iteration records, stopping
strategies, the HSTuner GA baseline and application-lifecycle analysis.

TunIO itself (HSTuner + the three AI components) lives in
:mod:`repro.core`.
"""

from .base import IterationRecord, Tuner, TuningResult
from .hstuner import HSTuner
from .journal import (
    Journal,
    JournalError,
    JournalWriter,
    ReplayCursor,
    load_journal,
)
from .lifecycle import (
    LifecycleModel,
    crossover_point,
    lifecycle_model,
    untuned_model,
    viability_point,
)
from .resilience import (
    EvaluationStats,
    HarnessError,
    ResilientEvaluator,
    RetryPolicy,
)
from .stoppers import (
    AnyStopper,
    HeuristicStopper,
    MaxPerfOracleStopper,
    NoStop,
    Stopper,
    TimeBudgetStopper,
    first_stop,
)

__all__ = [
    "IterationRecord",
    "Tuner",
    "TuningResult",
    "HSTuner",
    "Journal",
    "JournalError",
    "JournalWriter",
    "ReplayCursor",
    "load_journal",
    "EvaluationStats",
    "HarnessError",
    "ResilientEvaluator",
    "RetryPolicy",
    "LifecycleModel",
    "crossover_point",
    "lifecycle_model",
    "untuned_model",
    "viability_point",
    "AnyStopper",
    "HeuristicStopper",
    "MaxPerfOracleStopper",
    "NoStop",
    "Stopper",
    "first_stop",
    "TimeBudgetStopper",
]
