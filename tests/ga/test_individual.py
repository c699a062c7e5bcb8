"""GA individuals."""

import numpy as np
import pytest

from repro.ga import Individual


def test_genome_copied_defensively():
    genome = np.array([1, 2, 3])
    ind = Individual(genome)
    genome[0] = 99
    assert ind.genome[0] == 1


def test_validation():
    with pytest.raises(ValueError):
        Individual(np.array([]))
    with pytest.raises(ValueError):
        Individual(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        Individual(np.array([-1, 0]))


def test_evaluated_flag():
    ind = Individual(np.array([0]))
    assert not ind.evaluated
    ind.fitness = 1.0
    assert ind.evaluated


def test_same_genome():
    a = Individual(np.array([1, 2]))
    b = Individual(np.array([1, 2]), fitness=9.0)
    c = Individual(np.array([2, 1]))
    assert a.same_genome(b)
    assert not a.same_genome(c)


def test_repr_mentions_fitness():
    assert "unevaluated" in repr(Individual(np.array([1])))
    assert "2.000" in repr(Individual(np.array([1]), fitness=2.0))
