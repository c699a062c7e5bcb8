"""Individuals: integer genomes with lazily assigned fitness.

The GA operates on index genomes (one integer per parameter, indexing
into that parameter's candidate values) so it needs no knowledge of the
I/O stack; the tuner's evaluation function decodes genomes into
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Individual"]


@dataclass
class Individual:
    """One candidate solution.

    ``fitness`` is ``None`` until evaluated; higher is better.  Genomes
    are copied defensively on construction so operators can mutate their
    own offspring freely.
    """

    genome: np.ndarray
    fitness: float | None = None

    def __post_init__(self) -> None:
        genome = np.asarray(self.genome, dtype=np.int64).copy()
        if genome.ndim != 1 or genome.size == 0:
            raise ValueError("genome must be a non-empty 1-D integer vector")
        if np.any(genome < 0):
            raise ValueError("genome indices must be >= 0")
        self.genome = genome

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None

    def same_genome(self, other: "Individual") -> bool:
        return bool(np.array_equal(self.genome, other.genome))

    def __repr__(self) -> str:
        fit = f"{self.fitness:.3f}" if self.fitness is not None else "unevaluated"
        return f"Individual({self.genome.tolist()}, fitness={fit})"
