"""Crossover and mutation operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ga import (
    Individual,
    apply_mask,
    uniform_crossover,
    uniform_reset_mutation,
)


def parents():
    return Individual(np.zeros(8, dtype=int)), Individual(np.full(8, 5))


def test_uniform_crossover_preserves_multiset(rng):
    a, b = parents()
    ca, cb = uniform_crossover(a, b, rng)
    combined = np.sort(np.concatenate([ca.genome, cb.genome]))
    original = np.sort(np.concatenate([a.genome, b.genome]))
    assert np.array_equal(combined, original)
    assert not ca.evaluated and not cb.evaluated


def test_uniform_crossover_respects_mask(rng):
    a, b = parents()
    mask = np.zeros(8, dtype=bool)
    mask[0] = True
    for _ in range(10):
        ca, cb = uniform_crossover(a, b, rng, swap_probability=1.0, mask=mask)
        assert np.array_equal(ca.genome[1:], a.genome[1:])
        assert ca.genome[0] == 5 and cb.genome[0] == 0


def test_uniform_crossover_parents_untouched(rng):
    a, b = parents()
    uniform_crossover(a, b, rng, swap_probability=1.0)
    assert np.all(a.genome == 0) and np.all(b.genome == 5)


def test_crossover_length_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        uniform_crossover(Individual(np.zeros(3, dtype=int)), Individual(np.zeros(4, dtype=int)), rng)


def test_uniform_reset_stays_in_range(rng):
    cards = [2, 4, 8, 16]
    ind = Individual(np.zeros(4, dtype=int))
    for _ in range(50):
        out = uniform_reset_mutation(ind, rng, cards, per_gene_probability=1.0)
        assert np.all(out.genome >= 0)
        assert np.all(out.genome < np.array(cards))


def test_uniform_reset_validates_cardinalities(rng):
    ind = Individual(np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        uniform_reset_mutation(ind, rng, [2, 2], per_gene_probability=0.5)
    with pytest.raises(ValueError):
        uniform_reset_mutation(ind, rng, [2, 2, 0], per_gene_probability=0.5)


def test_apply_mask_pins_unmasked_genes():
    offspring = Individual(np.array([9, 9, 9, 9]))
    incumbent = Individual(np.array([1, 2, 3, 4]))
    mask = np.array([True, False, True, False])
    out = apply_mask(offspring, incumbent, mask)
    assert np.array_equal(out.genome, [9, 2, 9, 4])


@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
def test_mutation_respects_mask_property(seed, prob):
    rng = np.random.default_rng(seed)
    ind = Individual(np.zeros(10, dtype=int))
    mask = rng.random(10) < 0.5
    out = uniform_reset_mutation(
        ind, rng, [8] * 10, per_gene_probability=prob, mask=mask
    )
    assert np.all(out.genome[~mask] == 0)
