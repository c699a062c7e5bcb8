"""Synthetic tuning-curve generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl.curves import LogCurve, LogCurveGenerator


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_curves_are_monotone_and_bounded(seed):
    gen = LogCurveGenerator()
    curve = gen.sample(np.random.default_rng(seed))
    v = curve.values
    assert v.size == gen.n_iterations
    assert np.all(np.diff(v) >= -1e-12)  # best-so-far is monotone
    assert np.all(v > 0)
    assert curve.final == pytest.approx(float(v[-1]))
    assert 0 <= curve.ideal_stop < v.size


def test_curve_shapes_vary(rng):
    gen = LogCurveGenerator()
    finals = [gen.sample(rng).final for _ in range(50)]
    assert np.std(finals) > 0.05


def test_staged_curves_have_late_gains():
    gen = LogCurveGenerator(
        staged_fraction=1.0, saturating_fraction=0.0, noise_sigma=0.0,
        dip_probability=0.0,
    )
    rng = np.random.default_rng(0)
    late_gains = []
    for _ in range(30):
        v = gen.sample(rng).values
        late_gains.append(v[-1] - v[25])
    # With a surge onset up to iteration 28, many curves gain late.
    assert sum(g > 0.05 for g in late_gains) > 5


def test_saturating_curves_flatten():
    gen = LogCurveGenerator(
        staged_fraction=0.0, saturating_fraction=1.0, noise_sigma=0.0,
        dip_probability=0.0, tau_range=(2.0, 3.0),
    )
    v = gen.sample(np.random.default_rng(1)).values
    assert v[-1] - v[25] < 0.01  # flat tail


def test_generator_validation():
    with pytest.raises(ValueError):
        LogCurveGenerator(n_iterations=2)
    with pytest.raises(ValueError):
        LogCurveGenerator(dip_probability=2.0)
    with pytest.raises(ValueError):
        LogCurveGenerator(noise_sigma=-1.0)


def test_logcurve_validation():
    with pytest.raises(ValueError):
        LogCurve(values=np.array([1.0]), initial=1.0, final=1.0, ideal_stop=0)
    with pytest.raises(ValueError):
        LogCurve(values=np.array([1.0, 2.0]), initial=1.0, final=2.0, ideal_stop=5)
