"""Stopping strategies."""

import pytest

from repro.tuners.base import IterationRecord
from repro.tuners.stoppers import (
    HeuristicStopper,
    MaxPerfOracleStopper,
    NoStop,
    Stopper,
    TimeBudgetStopper,
    first_stop,
)


def history(perfs, minutes_per_iter=10.0):
    return [
        IterationRecord(
            iteration=i,
            iteration_perf=p,
            best_perf=p,
            elapsed_minutes=(i + 1) * minutes_per_iter,
            evaluations=5,
        )
        for i, p in enumerate(perfs)
    ]


def test_all_satisfy_protocol():
    for stopper in (NoStop(), HeuristicStopper(), MaxPerfOracleStopper(1.0),
                    TimeBudgetStopper(10)):
        assert isinstance(stopper, Stopper)
        stopper.reset()


def test_nostop_never_stops():
    h = history([1.0] * 100)
    assert not NoStop().should_stop(h)


def test_heuristic_stops_on_flat_window():
    flat = history([1.0, 2.0, 3.0] + [3.0] * 6)
    assert HeuristicStopper().should_stop(flat)


def test_heuristic_keeps_going_while_improving():
    growing = history([1.0 * 1.1**i for i in range(10)])
    assert not HeuristicStopper().should_stop(growing)


def test_heuristic_needs_full_window():
    short = history([1.0, 1.0, 1.0])
    assert not HeuristicStopper().should_stop(short)


def test_heuristic_threshold_semantics():
    # +4% over the 5-iteration window is below the 5% threshold -> stop;
    # +6% is not.
    assert HeuristicStopper().should_stop(history([1.0] * 5 + [1.04]))
    assert not HeuristicStopper().should_stop(history([1.0] * 5 + [1.06]))
    # Only the last five iterations count: +6% since an older iteration
    # does not keep the run going.
    assert HeuristicStopper().should_stop(history([1.0] + [1.02] * 5 + [1.06]))


def test_heuristic_validation():
    # A non-positive perf at the window start gives no relative
    # improvement to judge, so the heuristic keeps going.
    assert not HeuristicStopper().should_stop(history([0.0] * 7))


def test_max_perf_oracle():
    stopper = MaxPerfOracleStopper(optimal_perf_mbps=100.0)
    assert not stopper.should_stop(history([50.0, 80.0]))
    assert not stopper.should_stop(history([50.0, 99.9]))
    assert stopper.should_stop(history([50.0, 100.0]))
    with pytest.raises(ValueError):
        MaxPerfOracleStopper(0.0)


def test_first_stop_replays_a_finished_history():
    h = history([1.0, 2.0, 3.0, 3.0])
    assert first_stop(MaxPerfOracleStopper(3.0), h) == 2
    assert first_stop(NoStop(), h) == 3  # never stops: the last index


def test_time_budget():
    stopper = TimeBudgetStopper(budget_minutes=25.0)
    assert not stopper.should_stop(history([1.0, 2.0]))  # 20 minutes
    assert stopper.should_stop(history([1.0, 2.0, 3.0]))  # 30 minutes
    assert not stopper.should_stop([])
    with pytest.raises(ValueError):
        TimeBudgetStopper(0)


def test_any_stopper_fires_on_either():
    from repro.tuners.stoppers import AnyStopper

    budget = TimeBudgetStopper(budget_minutes=25.0)
    heuristic = HeuristicStopper()
    combo = AnyStopper(budget, heuristic)
    assert not combo.should_stop(history([1.0, 2.0]))         # 20 min, growing
    assert combo.should_stop(history([1.0, 2.0, 3.0]))        # budget fires
    flat = history([1.0] * 7, minutes_per_iter=1.0)
    assert combo.should_stop(flat)                            # heuristic fires
    combo.reset()
    with pytest.raises(ValueError):
        AnyStopper()
