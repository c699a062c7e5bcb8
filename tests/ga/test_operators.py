"""Crossover and mutation operators."""

import numpy as np
import pytest

from repro.ga import (
    Cardinalities,
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


def test_uniform_crossover_parents_untouched(rng):
    a, b = parents()
    uniform_crossover(a, b, rng)
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
    with pytest.raises(ValueError):
        Cardinalities([2, 0, 2])
    with pytest.raises(ValueError):
        uniform_reset_mutation(ind, rng, Cardinalities([2, 2]), per_gene_probability=0.5)


def test_validated_cardinalities_mutate_like_a_list():
    cards = [2, 4, 8, 16]
    ind = Individual(np.zeros(4, dtype=int))
    plain, validated = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        a = uniform_reset_mutation(ind, plain, cards, per_gene_probability=0.5)
        b = uniform_reset_mutation(ind, validated, Cardinalities(cards), per_gene_probability=0.5)
        assert a.same_genome(b)


def test_apply_mask_pins_unmasked_genes():
    offspring = Individual(np.array([9, 9, 9, 9]))
    incumbent = Individual(np.array([1, 2, 3, 4]))
    mask = np.array([True, False, True, False])
    out = apply_mask(offspring, incumbent, mask)
    assert np.array_equal(out.genome, [9, 2, 9, 4])



def test_apply_mask_rejects_wrong_shape():
    ind = Individual(np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        apply_mask(ind, ind, np.ones(3, dtype=bool))
