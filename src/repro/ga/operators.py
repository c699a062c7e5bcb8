"""Variation operators: crossover and mutation over integer genomes.

All operators take and return :class:`~repro.ga.individual.Individual`
objects and never modify their inputs.  Each accepts an optional ``mask``
-- a boolean vector marking the genome positions that may vary.  The
mask is how Impact-First tuning confines the search to the RL-selected
parameter subset: unmasked genes are copied from the incumbent and left
untouched by crossover and mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .individual import Individual

if TYPE_CHECKING:  # layering: ga never imports iostack at runtime
    from repro.iostack.parameters import ConstraintContext, ConstraintRegistry

__all__ = [
    "uniform_crossover",
    "uniform_reset_mutation",
    "apply_mask",
    "repair_individual",
]


def _validate_pair(a: Individual, b: Individual) -> None:
    if a.genome.size != b.genome.size:
        raise ValueError("parents have different genome lengths")


def _as_mask(mask: Sequence[bool] | np.ndarray | None, size: int) -> np.ndarray:
    if mask is None:
        return np.ones(size, dtype=bool)
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != (size,):
        raise ValueError(f"mask shape {arr.shape} does not match genome size {size}")
    return arr


def uniform_crossover(
    a: Individual,
    b: Individual,
    rng: np.random.Generator,
    swap_probability: float = 0.5,
    mask: Sequence[bool] | np.ndarray | None = None,
) -> tuple[Individual, Individual]:
    """Exchange each masked gene between the parents with probability
    ``swap_probability``; unmasked genes are inherited unchanged."""
    _validate_pair(a, b)
    if not 0.0 <= swap_probability <= 1.0:
        raise ValueError("swap_probability must be in [0, 1]")
    m = _as_mask(mask, a.genome.size)
    swap = (rng.random(a.genome.size) < swap_probability) & m
    ga, gb = a.genome.copy(), b.genome.copy()
    ga[swap], gb[swap] = gb[swap], ga[swap]
    return Individual(ga), Individual(gb)


def uniform_reset_mutation(
    ind: Individual,
    rng: np.random.Generator,
    cardinalities: Sequence[int],
    per_gene_probability: float = 0.1,
    mask: Sequence[bool] | np.ndarray | None = None,
) -> Individual:
    """Re-draw each masked gene uniformly from its candidate range with
    the given probability (pure exploration; no ordinal structure)."""
    cards = np.asarray(cardinalities, dtype=np.int64)
    if cards.shape != (ind.genome.size,):
        raise ValueError("cardinalities must match genome length")
    if np.any(cards < 1):
        raise ValueError("cardinalities must be >= 1")
    m = _as_mask(mask, ind.genome.size)
    genome = ind.genome.copy()
    hits = (rng.random(genome.size) < per_gene_probability) & m
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
    m = _as_mask(mask, offspring.genome.size)
    genome = np.where(m, offspring.genome, incumbent.genome)
    return Individual(genome)


def repair_individual(
    ind: Individual,
    registry: "ConstraintRegistry",
    context: "ConstraintContext | None" = None,
) -> Individual:
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
    repaired = registry.repair_genome(ind.genome, context)
    if np.array_equal(repaired, ind.genome):
        return ind
    return Individual(repaired)
