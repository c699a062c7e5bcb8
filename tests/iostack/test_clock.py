"""Simulated tuning clock."""

import pytest

from repro.iostack.clock import SimulatedClock


def test_new_clock_is_zero():
    clock = SimulatedClock()
    assert clock.elapsed_seconds == 0.0
    assert clock.elapsed_minutes == 0.0
    assert clock.n_evaluations == 0


def test_charge_evaluation_adds_setup_overhead():
    clock = SimulatedClock(setup_overhead=30.0)
    clock.charge_evaluation(90.0)
    assert clock.elapsed_seconds == pytest.approx(120.0)
    assert clock.elapsed_minutes == pytest.approx(2.0)
    assert clock.n_evaluations == 1


def test_charges_accumulate():
    clock = SimulatedClock(setup_overhead=10.0)
    for _ in range(5):
        clock.charge_evaluation(50.0)
    assert clock.elapsed_seconds == pytest.approx(300.0)
    assert clock.n_evaluations == 5


def test_advance_does_not_count_as_evaluation():
    clock = SimulatedClock()
    clock.advance(12.5)
    assert clock.elapsed_seconds == pytest.approx(12.5)
    assert clock.n_evaluations == 0


def test_negative_durations_rejected():
    clock = SimulatedClock()
    with pytest.raises(ValueError):
        clock.advance(-1.0)
    with pytest.raises(ValueError):
        clock.charge_evaluation(-0.1)


def test_reset_zeroes_everything():
    clock = SimulatedClock()
    clock.charge_evaluation(100.0)
    clock.reset()
    assert clock.elapsed_seconds == 0.0
    assert clock.n_evaluations == 0
