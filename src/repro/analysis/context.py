"""Shared experiment context: platform, normaliser, trained agents.

Every figure-reproduction experiment needs the same scaffolding -- the
simulated Cori platform, the perf normaliser and the offline-trained
TunIO agents.  :class:`ExperimentContext` builds it once per seed; agent
training is cached per (seed) within the process so a benchmark session
does not retrain for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.objective import PerfNormalizer
from repro.core.offline_training import (
    TRAINING_NODES,
    TunIOAgents,
    agent_arrays,
    agents_from_arrays,
    train_seeded_agents,
)
from repro.iostack.cluster import Platform, cori
from repro.iostack.noise import NoiseModel
from repro.iostack.simulator import IOStackSimulator

__all__ = ["ExperimentContext", "make_context"]


@dataclass
class ExperimentContext:
    """Bundle of everything an experiment runner needs."""

    seed: int
    platform: Platform
    normalizer: PerfNormalizer
    agents: TunIOAgents

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A fresh, deterministic generator derived from the seed."""
        return np.random.default_rng((self.seed, salt))

    def fresh_agents(self) -> TunIOAgents:
        """A run's copy of the trained agents.

        TunIO's agents learn online during tuning, so handing the shared
        instances to an experiment would leak learning across
        experiments and make results depend on execution order.  Every
        runner builds its own from the learned arrays instead, exactly
        as a run that loads a checkpoint does.
        """
        return agents_from_arrays(agent_arrays(self.agents), self.normalizer, self.seed)

    def simulator_for(self, n_nodes: int, salt: int = 0) -> IOStackSimulator:
        """A simulator scaled to a job size with independent noise."""
        return IOStackSimulator(
            cori(n_nodes), NoiseModel(seed=self.seed * 1000 + salt)
        )

    def normalizer_for(self, n_nodes: int) -> PerfNormalizer:
        return PerfNormalizer.for_platform(self.platform, n_nodes)


def make_context(seed: int = 0) -> ExperimentContext:
    """The experiment context for a seed, cached or built.

    The agents come from :func:`~repro.core.offline_training.train_seeded_agents`,
    the paper's offline phase on a :data:`TRAINING_NODES`-node platform.
    Training is cached per seed within the process.
    """
    return _build_context(seed)


@lru_cache(4)
def _build_context(seed: int) -> ExperimentContext:
    platform = cori(TRAINING_NODES)
    return ExperimentContext(
        seed=seed,
        platform=platform,
        normalizer=PerfNormalizer.for_platform(platform, TRAINING_NODES),
        agents=train_seeded_agents(seed),
    )
