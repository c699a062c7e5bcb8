"""Stopping strategies for tuning pipelines.

The paper compares four ways to end a tuning run (Figure 10):

* no stopping (exhaust the iteration budget) -- :class:`NoStop`;
* the traditional heuristic: stop when the objective has not improved by
  a threshold over a window of iterations (5% / 5 iterations in the
  paper) -- :class:`HeuristicStopper`;
* a "Maximizing Performance" oracle that stops exactly when the best
  achievable performance is reached (assumed perfect, as the paper does
  for Figure 10(b)) -- :class:`MaxPerfOracleStopper`;
* TunIO's RL-based early stopper -- :class:`repro.core.early_stopping.
  RLStopper`, which implements the same :class:`Stopper` protocol.

A stopper sees the running history (one :class:`IterationRecord` per
iteration) and answers "stop now?"; :func:`first_stop` replays one over a
finished run's history.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from .base import IterationRecord

__all__ = [
    "Stopper",
    "NoStop",
    "HeuristicStopper",
    "MaxPerfOracleStopper",
    "TimeBudgetStopper",
    "AnyStopper",
    "first_stop",
]


@runtime_checkable
class Stopper(Protocol):
    """Decides whether to end the tuning pipeline after each iteration."""

    name: str

    def should_stop(self, history: Sequence[IterationRecord]) -> bool: ...

    def reset(self) -> None: ...


class NoStop:
    """Never stops; the pipeline runs its full iteration budget."""

    name = "no-stop"

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        return False

    def reset(self) -> None:
        pass


#: The heuristic baseline stops below this relative improvement...
HEURISTIC_THRESHOLD = 0.05
#: ...over this many iterations (the paper's 5%/5-iteration rule).
HEURISTIC_WINDOW = 5


class HeuristicStopper:
    """Stop when perf improved by less than :data:`HEURISTIC_THRESHOLD`
    (relative) over the last :data:`HEURISTIC_WINDOW` iterations -- the
    paper's 5%/5-iteration heuristic baseline."""

    name = f"heuristic-{HEURISTIC_THRESHOLD:.0%}/{HEURISTIC_WINDOW}"

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        if len(history) <= HEURISTIC_WINDOW:
            return False
        past = history[-1 - HEURISTIC_WINDOW].best_perf
        now = history[-1].best_perf
        if past <= 0:
            return False
        return (now - past) / past < HEURISTIC_THRESHOLD

    def reset(self) -> None:
        pass


class MaxPerfOracleStopper:
    """Stops the moment the (externally known) optimal perf is reached.

    The paper: "Models which utilize Maximizing Performance stopping
    would typically take a few iterations to determine that the true
    optimal was reached, but we assume a perfect model for this
    evaluation."
    """

    name = "max-perf-oracle"

    def __init__(self, optimal_perf_mbps: float):
        if optimal_perf_mbps <= 0:
            raise ValueError("optimal_perf_mbps must be positive")
        self.optimal = optimal_perf_mbps

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        if not history:
            return False
        return history[-1].best_perf >= self.optimal

    def reset(self) -> None:
        pass


class TimeBudgetStopper:
    """Stop when the simulated tuning overhead exceeds a budget in
    minutes (the user-constraint form of the tuning budget)."""

    def __init__(self, budget_minutes: float):
        if budget_minutes <= 0:
            raise ValueError("budget_minutes must be positive")
        self.budget_minutes = budget_minutes
        self.name = f"budget-{budget_minutes:g}min"

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        if not history:
            return False
        return history[-1].elapsed_minutes >= self.budget_minutes

    def reset(self) -> None:
        pass


class AnyStopper:
    """Stops when any member stopper fires (used to combine the RL
    stopper with hard user constraints such as a minute budget)."""

    def __init__(self, *stoppers: Stopper):
        if not stoppers:
            raise ValueError("AnyStopper needs at least one stopper")
        self.stoppers = stoppers
        self.name = "any(" + ",".join(s.name for s in stoppers) + ")"

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        return any(s.should_stop(history) for s in self.stoppers)

    def reset(self) -> None:
        for s in self.stoppers:
            s.reset()


def first_stop(stopper: Stopper, history: Sequence[IterationRecord]) -> int:
    """Replay ``stopper`` over a finished run's ``history``: the index of
    the first iteration it stops at, or the last index if it never
    stops."""
    stopper.reset()
    for i in range(len(history)):
        if stopper.should_stop(history[: i + 1]):
            return i
    return len(history) - 1
