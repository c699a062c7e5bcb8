"""Selection schemes: tournament selection and elitism.

The paper's pipeline "employs elitism ... to ensure the best solution
found so far is always carried through", counter-balanced by "tournament
selection, a technique where three individuals are chosen randomly from
the population ... and the best two are carried forward as parents".
Both are implemented exactly in that form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .individual import Individual

__all__ = ["tournament_pair", "elites"]


def _require_evaluated(population: Sequence[Individual]) -> None:
    for ind in population:
        if not ind.evaluated:
            raise ValueError("selection requires a fully evaluated population")


def tournament_pair(
    population: Sequence[Individual], rng: np.random.Generator
) -> tuple[Individual, Individual]:
    """The paper's parent-selection rule: draw three distinct individuals
    at random, return the best two as parents."""
    if len(population) < 3:
        raise ValueError("tournament_pair needs a population of at least 3")
    _require_evaluated(population)
    picks = rng.choice(len(population), size=3, replace=False)
    chosen = sorted(
        (population[int(i)] for i in picks),
        key=lambda ind: ind.fitness,  # type: ignore[arg-type, return-value]
        reverse=True,
    )
    return chosen[0], chosen[1]


def elites(population: Sequence[Individual], n: int) -> list[Individual]:
    """The ``n`` best individuals (ties broken by population order)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_evaluated(population)
    ranked = sorted(
        population,
        key=lambda ind: ind.fitness,  # type: ignore[arg-type, return-value]
        reverse=True,
    )
    return list(ranked[:n])
