"""Platform volatility model."""

import numpy as np
import pytest

from repro.iostack.noise import NoiseModel


def test_quiet_model_is_exactly_one():
    noise = NoiseModel.quiet()
    assert all(noise.sample_factor() == 1.0 for _ in range(10))


def test_same_seed_same_sequence():
    a = NoiseModel(seed=7)
    b = NoiseModel(seed=7)
    assert [a.sample_factor() for _ in range(20)] == [
        b.sample_factor() for _ in range(20)
    ]


def test_different_seeds_differ():
    a = [NoiseModel(seed=1).sample_factor() for _ in range(5)]
    b = [NoiseModel(seed=2).sample_factor() for _ in range(5)]
    assert a != b


def test_sequence_advances_between_calls():
    noise = NoiseModel(seed=3)
    values = [noise.sample_factor() for _ in range(50)]
    assert len(set(values)) > 40


def test_factors_center_near_one():
    noise = NoiseModel(seed=5, spike_probability=0.0)
    values = np.array([noise.sample_factor() for _ in range(3000)])
    assert 0.95 < np.median(values) < 1.05


def test_spikes_slow_down_only():
    noise = NoiseModel(seed=9, sigma=0.0, spike_probability=0.5, spike_slowdown=3.0)
    values = [noise.sample_factor() for _ in range(500)]
    assert all(v in (1.0, 3.0) for v in values)
    assert any(v == 3.0 for v in values)


def test_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(spike_probability=1.5)
    with pytest.raises(ValueError):
        NoiseModel(spike_slowdown=0.5)


# -- vectorized sampling (sequence contract) ------------------------------------


def test_sample_factors_matches_sequential_calls():
    vec = NoiseModel(seed=13)
    seq = NoiseModel(seed=13)
    batch = vec.sample_factors(25)
    singles = np.array([seq.sample_factor() for _ in range(25)])
    assert np.array_equal(batch, singles)


def test_sample_factors_advances_counter_like_n_calls():
    a = NoiseModel(seed=13)
    b = NoiseModel(seed=13)
    a.sample_factors(7)
    for _ in range(7):
        b.sample_factor()
    assert a.sample_factor() == b.sample_factor()


def test_interleaved_batches_and_singles_form_one_stream():
    mixed = NoiseModel(seed=4)
    plain = NoiseModel(seed=4)
    got = [mixed.sample_factor()]
    got.extend(mixed.sample_factors(5))
    got.append(mixed.sample_factor())
    got.extend(mixed.sample_factors(3))
    assert got == [plain.sample_factor() for _ in range(10)]


def test_quiet_sample_factors_is_ones_and_consumes_counter():
    noise = NoiseModel.quiet()
    assert np.array_equal(noise.sample_factors(6), np.ones(6))
    assert noise._counter == 6


def test_sample_factors_zero_and_negative():
    noise = NoiseModel(seed=1)
    assert noise.sample_factors(0).shape == (0,)
    assert noise._counter == 0
    with pytest.raises(ValueError):
        noise.sample_factors(-1)
