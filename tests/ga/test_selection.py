"""Tournament selection and elitism."""

import numpy as np
import pytest

from repro.ga import Individual, elites, tournament_pair


def population(fitnesses):
    return [Individual(np.array([i]), fitness=f) for i, f in enumerate(fitnesses)]


def test_tournament_pair_returns_best_two_of_three(rng):
    pop = population([1.0, 2.0, 3.0])
    a, b = tournament_pair(pop, rng)
    assert a.fitness >= b.fitness
    assert {a.fitness, b.fitness} <= {1.0, 2.0, 3.0}


def test_tournament_pair_needs_three(rng):
    with pytest.raises(ValueError):
        tournament_pair(population([1.0, 2.0]), rng)


def test_tournament_pair_requires_fitness(rng):
    pop = population([1.0, 2.0, 3.0])
    pop[1].fitness = None
    with pytest.raises(ValueError):
        tournament_pair(pop, rng)


def test_tournament_pressure_favors_fit(rng):
    pop = population([0.0] * 9 + [10.0])
    wins = sum(
        tournament_pair(pop, rng)[0].fitness == 10.0 for _ in range(300)
    )
    # P(best in 3-of-10 sample) = 1 - C(9,3)/C(10,3) = 0.3
    assert 50 < wins < 130


def test_elites_sorted_best_first():
    pop = population([1.0, 5.0, 3.0])
    top = elites(pop, 2)
    assert [i.fitness for i in top] == [5.0, 3.0]
    assert elites(pop, 0) == []
    with pytest.raises(ValueError):
        elites(pop, -1)
