"""A small evolutionary-algorithm framework (the reproduction's DEAP).

Provides integer-genome individuals, crossover/mutation operators, the
subset mask that pins genes outside the tuned subset, the paper's
tournament + elitism selection scheme, a DEAP-style toolbox and a
generational engine the tuning pipelines drive one step at a time.
"""

from .engine import EvolutionEngine, GenerationStats
from .individual import Individual
from .operators import (
    Cardinalities,
    apply_mask,
    repair_individual,
    uniform_crossover,
    uniform_reset_mutation,
)
from .selection import elites, tournament_pair
from .toolbox import Toolbox

__all__ = [
    "Cardinalities",
    "EvolutionEngine",
    "GenerationStats",
    "Individual",
    "apply_mask",
    "repair_individual",
    "uniform_crossover",
    "uniform_reset_mutation",
    "elites",
    "tournament_pair",
    "Toolbox",
]
