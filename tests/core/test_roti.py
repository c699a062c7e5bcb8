"""Return on Tuning Investment."""

import numpy as np
import pytest

from repro.core.roti import RoTICurve, roti, roti_curve
from repro.tuners.base import IterationRecord, TuningResult


def test_point_roti():
    assert roti(perf_at_t=500.0, perf_at_0=100.0, minutes=10.0) == 40.0
    with pytest.raises(ValueError):
        roti(1.0, 0.0, minutes=0.0)


def make_result(perfs, minutes):
    res = TuningResult("t", "w", baseline_perf=100.0)
    res.history = [
        IterationRecord(i, p, p, m, 5) for i, (p, m) in enumerate(zip(perfs, minutes))
    ]
    return res


def test_curve_from_result():
    res = make_result([200.0, 400.0, 420.0], [10.0, 20.0, 40.0])
    curve = roti_curve(res)
    assert np.allclose(curve.values, [10.0, 15.0, 8.0])
    assert curve.peak == 15.0
    assert curve.peak_minutes == 20.0
    assert curve.final == 8.0


def test_curve_validation():
    with pytest.raises(ValueError):
        RoTICurve(minutes=np.array([1.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RoTICurve(minutes=np.array([]), values=np.array([]))
    with pytest.raises(ValueError):
        roti_curve(TuningResult("t", "w"))


def test_negative_gain_allowed():
    # A regressing run has negative RoTI, not an error.
    res = make_result([50.0], [10.0])
    assert roti_curve(res).final == -5.0


def test_non_monotonic_minutes_rejected():
    with pytest.raises(ValueError, match="non-decreasing"):
        RoTICurve(minutes=np.array([2.0, 1.0]), values=np.array([1.0, 1.0]))


def test_nan_baseline_fails_fast():
    res = make_result([200.0], [10.0])
    res.baseline_perf = float("nan")
    with pytest.raises(ValueError, match="finite baseline"):
        roti_curve(res)
    res.baseline_perf = float("inf")
    with pytest.raises(ValueError, match="finite baseline"):
        roti_curve(res)


def test_non_finite_curve_values_rejected():
    with pytest.raises(ValueError, match="finite"):
        RoTICurve(minutes=np.array([1.0]), values=np.array([np.nan]))


def test_single_iteration_curve():
    curve = roti_curve(make_result([250.0], [5.0]))
    assert curve.peak == curve.final == 30.0
    assert curve.peak_minutes == 5.0


def test_zero_time_iterations_are_masked():
    # Instantaneous iterations cannot contribute a divide-by-zero point.
    res = make_result([150.0, 200.0], [0.0, 10.0])
    curve = roti_curve(res)
    assert curve.minutes.tolist() == [10.0]
    assert curve.values.tolist() == [10.0]
