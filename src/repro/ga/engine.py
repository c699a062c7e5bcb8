"""The generational evolution engine.

Drives the classic evaluate -> select -> mate -> mutate loop through a
:class:`~repro.ga.toolbox.Toolbox`, with elitism and optional gene masks
(for subset tuning).  The engine is deliberately DEAP-shaped: the tuning
pipeline owns the outer loop (it consults the early stopper and the
subset picker between generations), so the engine exposes a single
:meth:`step` advancing one generation.

Toolbox contract (all rng arguments are numpy Generators):

* ``generate(n, rng) -> list[Individual]`` -- initial population.
* ``evaluate_batch(individuals) -> sequence[float]`` -- fitnesses,
  higher is better; a generation's unevaluated individuals are
  dispatched as one batch, in population order.
* ``select(population, rng) -> (Individual, Individual)`` -- two parents.
* ``mate(a, b, rng) -> (Individual, Individual)`` -- two offspring.
* ``mutate(individual, rng) -> Individual``.
* ``repair(individual) -> Individual`` -- optional; a deterministic,
  RNG-free projection applied to every bred individual (after mask
  pinning), so variation can never emit a constraint-violating genome.
  Repair may adjust genes outside the active mask when a constraint
  couples a masked gene to a pinned one -- validity wins over pinning.

Only individuals with no fitness are (re)evaluated, matching DEAP's
invalid-fitness convention -- elites carry their fitness across
generations for free.  Duplicate genomes are each evaluated: a
stochastic evaluator must be consulted once per individual (the stack
tuners share work between duplicates at the trace level instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .individual import Individual
from .operators import apply_mask
from .selection import elites
from .toolbox import Toolbox

__all__ = ["GenerationStats", "EvolutionEngine"]


@dataclass(frozen=True)
class GenerationStats:
    """Summary of one generation."""

    generation: int
    best_fitness: float
    best: Individual
    #: Individuals assigned a fitness in this generation.
    evaluations: int


class EvolutionEngine:
    """Generational GA with elitism and optional subset masks.

    Parameters
    ----------
    toolbox:
        Operator registry (see module docstring for the contract).
    population_size:
        Individuals per generation (must fit at least the elites).
    n_elites:
        Individuals copied unchanged into the next generation.
    rng:
        Random source; pass a seeded generator for reproducibility.
    """

    def __init__(
        self,
        toolbox: Toolbox,
        population_size: int,
        n_elites: int = 1,
        rng: np.random.Generator | None = None,
    ):
        toolbox.validate()
        if population_size < 3:
            raise ValueError("population_size must be >= 3 (tournament needs 3)")
        if not 0 <= n_elites < population_size:
            raise ValueError("n_elites must be in [0, population_size)")
        self.toolbox = toolbox
        self.population_size = population_size
        self.n_elites = n_elites
        self.rng = rng if rng is not None else np.random.default_rng()
        self.population: list[Individual] = []
        self._generation = 0
        self._mask: np.ndarray | None = None

    # -- subset masking ---------------------------------------------------------

    def set_mask(self, mask: Sequence[bool] | np.ndarray | None) -> None:
        """Restrict variation to the masked genome positions.  Unmasked
        genes of every offspring are pinned to the current best
        individual's values.  ``None`` clears the restriction."""
        if mask is None:
            self._mask = None
            return
        arr = np.asarray(mask, dtype=bool)
        if not arr.any():
            raise ValueError("mask must enable at least one gene")
        self._mask = arr

    # -- core loop ------------------------------------------------------------------

    def initialize(self) -> GenerationStats:
        """Create and evaluate generation 0.

        Generation 0 is never masked: the tuners pick no subset before
        the first bred generation, and a mask only pins offspring."""
        if self.population:
            raise RuntimeError("engine already initialized")
        self.population = list(self.toolbox.generate(self.population_size, self.rng))
        if len(self.population) != self.population_size:
            raise ValueError("generate() returned the wrong number of individuals")
        if "repair" in self.toolbox:
            self.population = [self.toolbox.repair(ind) for ind in self.population]
        return self._evaluate_and_record()

    def step(self) -> GenerationStats:
        """Advance one generation and return its stats."""
        if not self.population:
            return self.initialize()
        next_pop: list[Individual] = [ind for ind in elites(self.population, self.n_elites)]
        incumbent = self.best
        while len(next_pop) < self.population_size:
            pa, pb = self.toolbox.select(self.population, self.rng)
            ca, cb = self.toolbox.mate(pa, pb, self.rng)
            for child in (ca, cb):
                if len(next_pop) >= self.population_size:
                    break
                child = self.toolbox.mutate(child, self.rng)
                if self._mask is not None:
                    child = apply_mask(child, incumbent, self._mask)
                if "repair" in self.toolbox:
                    child = self.toolbox.repair(child)
                next_pop.append(child)
        self.population = next_pop
        self._generation += 1
        return self._evaluate_and_record()

    # -- accessors --------------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def best(self) -> Individual:
        """Best individual of the current population."""
        if not self.population:
            raise RuntimeError("engine not initialized")
        return elites(self.population, 1)[0]

    # -- internals ---------------------------------------------------------------------

    def _evaluate_and_record(self) -> GenerationStats:
        pending = [ind for ind in self.population if not ind.evaluated]
        if pending:
            for ind, fit in zip(pending, self._dispatch(pending)):
                ind.fitness = fit
        best = self.best
        return GenerationStats(
            generation=self._generation,
            best_fitness=float(best.fitness),  # type: ignore[arg-type]
            best=best,
            evaluations=len(pending),
        )

    def _dispatch(self, individuals: list[Individual]) -> list[float]:
        """Evaluate a list of individuals with one ``evaluate_batch``
        call (population order)."""
        fits = [float(f) for f in self.toolbox.evaluate_batch(individuals)]
        if len(fits) != len(individuals):
            raise ValueError(
                f"evaluate_batch returned {len(fits)} fitnesses "
                f"for {len(individuals)} individuals"
            )
        return fits
