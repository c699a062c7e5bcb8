"""Shared experiment context: platform, simulator, trained agents.

Every figure-reproduction experiment needs the same scaffolding -- the
simulated Cori platform, a seeded noise model, the perf normaliser and
the offline-trained TunIO agents.  :class:`ExperimentContext` builds it
once per seed; agent training is cached per (seed) within the process so
a benchmark session does not retrain for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.objective import PerfNormalizer
from repro.core.offline_training import TunIOAgents, train_tunio_agents
from repro.iostack.cluster import Platform, cori
from repro.iostack.noise import NoiseModel
from repro.iostack.simulator import IOStackSimulator
from repro.workloads import flash, hacc, vpic

__all__ = ["ExperimentContext", "make_context"]


@dataclass
class ExperimentContext:
    """Bundle of everything an experiment runner needs."""

    seed: int
    platform: Platform
    simulator: IOStackSimulator
    normalizer: PerfNormalizer
    agents: TunIOAgents

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A fresh, deterministic generator derived from the seed."""
        return np.random.default_rng((self.seed, salt))

    def fresh_agents(self) -> TunIOAgents:
        """A deep copy of the trained agents.

        TunIO's agents learn online during tuning, so handing the shared
        instances to an experiment would leak learning across
        experiments and make results depend on execution order.  Every
        runner clones instead.
        """
        from repro.core.early_stopping import EarlyStoppingAgent
        from repro.core.smart_config import SmartConfigAgent

        smart = SmartConfigAgent(
            space=self.agents.smart_config.space,
            normalizer=self.agents.smart_config.normalizer,
            rng=self.rng(0xC10E),
        )
        smart.set_state(self.agents.smart_config.get_state())
        stopper = EarlyStoppingAgent(
            config=self.agents.early_stopper.config, rng=self.rng(0xC10F)
        )
        stopper.set_weights(self.agents.early_stopper.get_weights())
        return TunIOAgents(
            smart_config=smart,
            early_stopper=stopper,
            impact_scores=self.agents.impact_scores.copy(),
        )

    def simulator_for(self, n_nodes: int, salt: int = 0) -> IOStackSimulator:
        """A simulator scaled to a job size with independent noise."""
        return IOStackSimulator(
            cori(n_nodes), NoiseModel(seed=self.seed * 1000 + salt)
        )

    def normalizer_for(self, n_nodes: int) -> PerfNormalizer:
        return PerfNormalizer.for_platform(self.platform, n_nodes)


def make_context(seed: int = 0, n_nodes: int = 4) -> ExperimentContext:
    """The experiment context for a seed, cached or built.

    Offline training follows the paper: sweep VPIC, FLASH and HACC
    kernels, PCA the results, pre-train the subset picker, train the
    early stopper on generated log curves.  Training is cached per
    (seed, n_nodes) within the process.
    """
    return _build_context(seed, n_nodes)


@lru_cache(maxsize=4)
def _build_context(seed: int, n_nodes: int) -> ExperimentContext:
    platform = cori(n_nodes)
    simulator = IOStackSimulator(platform, NoiseModel(seed=seed))
    normalizer = PerfNormalizer.for_platform(platform, n_nodes)
    agents = train_tunio_agents(
        simulator,
        [vpic(), flash(), hacc()],
        normalizer,
        rng=np.random.default_rng((seed, 0xA11)),
    )
    return ExperimentContext(
        seed=seed,
        platform=platform,
        simulator=simulator,
        normalizer=normalizer,
        agents=agents,
    )
