"""PCA and impact analysis."""

import numpy as np
import pytest

from repro.rl.pca import parameter_impact, principal_components


def test_pca_recovers_dominant_direction(rng):
    # Data stretched along [1, 1]/sqrt(2).
    base = rng.normal(size=(500, 1))
    data = np.hstack([base, base]) + rng.normal(scale=0.05, size=(500, 2))
    res = principal_components(data)
    first = res.components[:, 0]
    assert abs(abs(first @ np.array([1, 1]) / np.sqrt(2)) - 1.0) < 0.05
    assert res.explained_variance[0] > res.explained_variance[1]


def test_pca_validation():
    with pytest.raises(ValueError):
        principal_components(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        principal_components(np.zeros(5))


def test_parameter_impact_finds_driver(rng):
    x = rng.uniform(0, 1, (300, 5))
    perf = 4.0 * x[:, 2] + rng.normal(scale=0.05, size=300)
    impact = parameter_impact(x, perf)
    assert impact.shape == (5,)
    assert impact.sum() == pytest.approx(1.0)
    assert np.argmax(impact) == 2


def test_parameter_impact_two_drivers(rng):
    x = rng.uniform(0, 1, (400, 4))
    perf = 2.0 * x[:, 0] + 1.0 * x[:, 3] + rng.normal(scale=0.05, size=400)
    impact = parameter_impact(x, perf)
    assert set(np.argsort(impact)[-2:]) == {0, 3}


def test_parameter_impact_degenerate_perf_uniform(rng):
    x = rng.uniform(0, 1, (50, 3))
    perf = np.full(50, 7.0)
    impact = parameter_impact(x, perf)
    assert np.allclose(impact, 1 / 3, atol=0.15)


def test_parameter_impact_validation(rng):
    x = rng.uniform(size=(10, 3))
    with pytest.raises(ValueError):
        parameter_impact(x, np.zeros(9))
    with pytest.raises(ValueError):
        parameter_impact(x[:2], np.zeros(2))
    with pytest.raises(ValueError):
        parameter_impact(np.zeros(10), np.zeros(10))

