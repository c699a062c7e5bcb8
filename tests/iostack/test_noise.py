"""Platform volatility model."""

import copy

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
    # A bad seed is refused when the model is built, naming the seed,
    # not at its first draw.
    for seed in (-3, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(seed=seed)


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


# -- bit identity with the per-counter generator ----------------------------------


def legacy_sample_factor(noise):
    """``NoiseModel.sample_factor`` as it was before the model seeded its
    generators in bulk, copied verbatim: one fresh generator keyed on
    ``(seed, counter)`` per factor."""
    counter = noise._counter
    noise._counter += 1
    if noise.deterministic:
        return 1.0
    rng = np.random.default_rng((noise.seed, counter))
    factor = float(rng.lognormal(mean=0.0, sigma=noise.sigma)) if noise.sigma > 0 else 1.0
    if noise.spike_probability > 0 and rng.random() < noise.spike_probability:
        factor *= noise.spike_slowdown
    return factor


def reference(noise, start, n):
    """Factors ``start .. start + n - 1`` of ``noise``'s stream, drawn by
    the legacy formula on a fresh model with the same parameters."""
    ref = NoiseModel(
        noise.sigma, noise.spike_probability, noise.spike_slowdown, noise.seed
    )
    ref.seek(start)
    return [legacy_sample_factor(ref) for _ in range(n)]


def draw(noise, sizes):
    """Concatenated ``sample_factors`` batches of the given sizes."""
    return [float(f) for size in sizes for f in noise.sample_factors(size)]


# Seeds of one, two and three uint32 words, and one of four words, which
# takes the per-key seeding fallback.
SEEDS = [0, 7, 2**32 + 9, 2**64 + 1, 2**96 + 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_batches_match_the_per_counter_formula(seed):
    # Batches of 15 and odd sizes straddle every read-ahead boundary
    # (blocks of 16, 32, 64, ...); a batch of 0 draws nothing.
    sizes = [15] * 10 + [1, 0, 40, 3, 1, 200]
    noise = NoiseModel(seed=seed)
    assert draw(noise, sizes) == reference(noise, 0, sum(sizes))
    assert noise.position == sum(sizes)


@pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**96 + 1])
def test_counters_across_two_to_the_32(seed):
    # Counters from 2**32 on have two uint32 words and take the fallback,
    # including inside a block that starts below 2**32.
    noise = NoiseModel(seed=seed)
    noise.seek(2**32 - 20)
    got = draw(noise, [15, 15, 15, 1])
    assert got == reference(noise, 2**32 - 20, 46)
    noise.seek(0)
    assert draw(noise, [3]) == reference(noise, 0, 3)


def test_seek_backwards_and_forwards_past_a_block():
    noise = NoiseModel(seed=21)
    for position, size in [(0, 40), (3, 10), (5000, 20), (41, 5), (13, 30), (0, 1)]:
        noise.seek(position)
        assert draw(noise, [size]) == reference(noise, position, size)
        assert noise.position == position + size


def test_zero_factors_mid_stream_draw_nothing():
    noise = NoiseModel(seed=2)
    assert noise.sample_factors(0).shape == (0,)
    first = draw(noise, [5])
    assert noise.sample_factors(0).shape == (0,)
    assert noise.position == 5
    assert first + draw(noise, [5]) == reference(noise, 0, 10)


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(seed=9, sigma=0.0, spike_probability=0.5, spike_slowdown=3.0),
        NoiseModel(seed=9, spike_probability=0.0),
        NoiseModel.quiet(),
    ],
    ids=["sigma0", "no-spikes", "quiet"],
)
def test_degenerate_parameters_match_the_per_counter_formula(noise):
    sizes = [15, 1, 30]
    assert draw(noise, sizes) == reference(noise, 0, sum(sizes))


def test_single_factor_is_a_python_float():
    noise = NoiseModel(seed=3)
    factor = noise.sample_factor()
    assert type(factor) is float
    assert [factor] == reference(noise, 0, 1)


def test_deepcopy_mid_stream_continues_both_streams():
    noise = NoiseModel(seed=13)
    draw(noise, [7])
    clone = copy.deepcopy(noise)
    assert draw(noise, [15, 15]) == reference(noise, 7, 30)
    assert draw(clone, [30]) == reference(noise, 7, 30)
    assert clone.position == noise.position == 37


def test_changed_parameters_take_effect_at_the_next_draw():
    noise = NoiseModel(seed=5)
    draw(noise, [4])
    noise.sigma = 0.3
    noise.seed = 6
    assert draw(noise, [4]) == reference(noise, 4, 4)
