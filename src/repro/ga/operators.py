"""Variation operators: crossover and mutation over integer genomes.

All operators take and return :class:`~repro.ga.individual.Individual`
objects and never modify their inputs.  Crossover and mutation vary
every gene; Impact-First tuning confines the search to the RL-selected
parameter subset afterwards, with :func:`apply_mask` pinning the genes
outside it to the incumbent's values.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .individual import Individual

if TYPE_CHECKING:  # layering: ga never imports iostack at runtime
    from repro.iostack.parameters import ConstraintRegistry

__all__ = [
    "Cardinalities",
    "uniform_crossover",
    "uniform_reset_mutation",
    "apply_mask",
    "repair_individual",
]

#: Probability that uniform crossover exchanges a gene.
SWAP_PROBABILITY = 0.5


def uniform_crossover(
    a: Individual, b: Individual, rng: np.random.Generator
) -> tuple[Individual, Individual]:
    """Exchange each gene between the parents with probability
    :data:`SWAP_PROBABILITY`."""
    if a.genome.size != b.genome.size:
        raise ValueError("parents have different genome lengths")
    swap = rng.random(a.genome.size) < SWAP_PROBABILITY
    ga, gb = a.genome.copy(), b.genome.copy()
    ga[swap], gb[swap] = gb[swap], ga[swap]
    return Individual(ga), Individual(gb)


class Cardinalities(tuple):
    """Per-gene candidate counts, each checked to be an integer >= 1 once
    when built, so a mutation operator handed one re-checks only its
    length per child."""

    def __new__(cls, counts: Iterable[int]) -> "Cardinalities":
        counts = tuple(operator.index(c) for c in counts)
        if any(c < 1 for c in counts):
            raise ValueError("cardinalities must be >= 1")
        return super().__new__(cls, counts)


def uniform_reset_mutation(
    ind: Individual,
    rng: np.random.Generator,
    cardinalities: Sequence[int],
    per_gene_probability: float = 0.1,
) -> Individual:
    """Re-draw each gene uniformly from its candidate range with the
    given probability (pure exploration; no ordinal structure).

    Pass a :class:`Cardinalities` to skip re-validating the counts on
    every call."""
    cards = (
        cardinalities
        if isinstance(cardinalities, Cardinalities)
        else Cardinalities(cardinalities)
    )
    if len(cards) != ind.genome.size:
        raise ValueError("cardinalities must match genome length")
    genome = ind.genome.copy()
    hits = rng.random(genome.size) < per_gene_probability
    for pos in np.flatnonzero(hits):
        genome[pos] = int(rng.integers(cards[pos]))
    return Individual(genome)


def apply_mask(
    offspring: Individual, incumbent: Individual, mask: Sequence[bool] | np.ndarray
) -> Individual:
    """Force unmasked genes of ``offspring`` back to the incumbent's
    values.  Used when entering a new subset-tuning iteration: genes
    outside the active subset are pinned to the best configuration found
    so far."""
    m = np.asarray(mask, dtype=bool)
    if m.shape != offspring.genome.shape:
        raise ValueError(
            f"mask shape {m.shape} does not match genome size {offspring.genome.size}"
        )
    return Individual(np.where(m, offspring.genome, incumbent.genome))


def repair_individual(ind: Individual, registry: "ConstraintRegistry") -> Individual:
    """Project an individual onto the constraint-satisfying region.

    Delegates to the registry's deterministic, idempotent genome repair
    (every offending parameter is lowered to the largest candidate that
    satisfies its constraints).  Constraint-clean individuals are
    returned unchanged -- same object, fitness preserved -- so the hook
    is free when variation happens to produce a valid child.

    Consumes no randomness: registering this in a toolbox leaves the GA's
    RNG stream untouched, which is what keeps constraint-free runs
    bit-identical to runs where the registry never fires.
    """
    repaired = registry.repair_genome(ind.genome)
    if np.array_equal(repaired, ind.genome):
        return ind
    return Individual(repaired)
