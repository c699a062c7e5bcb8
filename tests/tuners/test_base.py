"""Tuning records and results."""

import numpy as np
import pytest

from repro.tuners.base import IterationRecord, TuningResult


def record(i, perf, minutes):
    return IterationRecord(
        iteration=i, iteration_perf=perf, best_perf=perf,
        elapsed_minutes=minutes, evaluations=5,
    )


def make_result():
    res = TuningResult(tuner_name="t", workload_name="w", baseline_perf=100.0)
    res.history = [record(0, 150.0, 10.0), record(1, 200.0, 20.0), record(2, 400.0, 30.0)]
    return res


def test_record_validation():
    with pytest.raises(ValueError):
        record(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        record(0, 1.0, -1.0)


def test_result_properties():
    res = make_result()
    assert res.best_perf == 400.0
    assert res.total_minutes == 30.0
    assert res.total_evaluations == 15
    assert res.gain == 300.0


def test_empty_result_falls_back_to_baseline():
    res = TuningResult(tuner_name="t", workload_name="w", baseline_perf=50.0)
    assert res.best_perf == 50.0
    assert res.total_minutes == 0.0
    assert res.gain == 0.0


def test_series_accessors():
    res = make_result()
    assert np.array_equal(res.perf_series(), [150.0, 200.0, 400.0])
    assert np.array_equal(res.minutes_series(), [10.0, 20.0, 30.0])


def test_reach_queries():
    res = make_result()
    assert res.iterations_to_reach(200.0) == 1
    assert res.iterations_to_reach(999.0) is None
