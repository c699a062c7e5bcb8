"""The tuning specification and the one-call pipeline entry point.

Figure 3 of the paper: "TunIO takes as inputs the tuning specification
(including all user constraints) and source code."  :class:`TuningSpec`
is that specification -- the iteration/minute budget, the anticipated
production-run count, and the kernel-reduction choices that "capture the
user tuning constraints (e.g., debugging or production job)" --
and :func:`tune_application` runs the whole pipeline from C source to a
tuned H5Tuner configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.discovery.kernel import DiscoveryOptions, IOKernel, discover_io
from repro.discovery.modelgen import ModelHints, workload_from_source
from repro.discovery.reducers import IOPathSwitching, LoopReduction, Reducer
from repro.iostack.cluster import cori
from repro.iostack.noise import NoiseModel
from repro.iostack.simulator import IOStackSimulator
from repro.tuners.base import TuningResult
from repro.tuners.stoppers import AnyStopper, TimeBudgetStopper

from .objective import PerfNormalizer
from .offline_training import (
    TunIOAgents,
    agent_arrays,
    agents_from_arrays,
    train_seeded_agents,
)
from .pipeline import build_tunio

__all__ = ["TuningSpec", "TuningOutcome", "tune_application"]


@dataclass(frozen=True)
class TuningSpec:
    """User constraints for one tuning job.

    Attributes
    ----------
    max_iterations:
        Hard cap on GA generations.
    budget_minutes:
        Optional hard cap on simulated tuning overhead; the pipeline
        stops when it is exhausted even if the RL stopper would go on.
    expected_runs:
        Anticipated production executions of the tuned application; more
        runs buy the stopper more patience (the paper's future-work
        input).
    use_io_kernel:
        Tune the discovered I/O kernel instead of the full application.
    loop_reduction:
        Optional fraction of I/O-loop iterations the kernel keeps
        (e.g. ``0.01``); a debugging-phase constraint.  Needs
        ``use_io_kernel``.
    path_switch:
        Optional memory-backed path prefix (e.g. ``"/dev/shm"``); trades
        storage-target fidelity for evaluation speed.  Needs
        ``use_io_kernel``.
    repeats:
        Runs averaged per objective evaluation.
    seed:
        Seed for every stochastic component of the job.
    """

    max_iterations: int = 50
    budget_minutes: float | None = None
    expected_runs: float | None = None
    use_io_kernel: bool = True
    loop_reduction: float | None = None
    path_switch: str | None = None
    repeats: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.budget_minutes is not None and self.budget_minutes <= 0:
            raise ValueError("budget_minutes must be positive")
        if self.expected_runs is not None and self.expected_runs <= 0:
            raise ValueError("expected_runs must be positive")
        if self.loop_reduction is not None and not 0 < self.loop_reduction <= 1:
            raise ValueError("loop_reduction must be in (0, 1]")
        if not self.use_io_kernel:
            # The reducers rewrite the kernel; the full application
            # would be tuned without them.
            for name in ("loop_reduction", "path_switch"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"{name} reduces the I/O kernel and needs "
                        f"use_io_kernel=True, got use_io_kernel=False"
                    )
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    def reducers(self) -> tuple[Reducer, ...]:
        """The kernel reducers this specification asks for."""
        out: list[Reducer] = []
        if self.loop_reduction is not None:
            out.append(LoopReduction(self.loop_reduction))
        if self.path_switch is not None:
            out.append(IOPathSwitching(self.path_switch))
        return tuple(out)


@dataclass(frozen=True)
class TuningOutcome:
    """Everything :func:`tune_application` produces."""

    result: TuningResult
    kernel: IOKernel | None
    #: Perf of the chosen configuration on the *full application* (MB/s).
    app_perf_mbps: float
    #: Perf of the default configuration on the full application (MB/s).
    app_baseline_mbps: float

    @property
    def gain(self) -> float:
        """Application-level speedup factor of the tune."""
        if self.app_baseline_mbps <= 0:
            return 1.0
        return self.app_perf_mbps / self.app_baseline_mbps


def tune_application(
    source_code: str,
    hints: ModelHints,
    spec: TuningSpec | None = None,
    name: str = "app",
    agents: TunIOAgents | None = None,
    simulator: IOStackSimulator | None = None,
) -> TuningOutcome:
    """The paper's end-to-end pipeline in one call.

    Steps: discover the I/O kernel from ``source_code`` (per the spec's
    reduction constraints), train the spec seed's agents
    (:func:`~repro.core.offline_training.train_seeded_agents`) if none
    are given, run the TunIO pipeline under the spec's budget, and
    evaluate the winning configuration back on the full application.
    The run tunes with its own agents, built from the learned arrays of
    ``agents`` for the spec's seed, so ``agents`` themselves do not
    change and a run given the seed's trained agents tunes as one that
    trains them.
    """
    spec = spec or TuningSpec()
    rng = np.random.default_rng(spec.seed)
    platform = cori(hints.n_nodes)
    if simulator is None:
        simulator = IOStackSimulator(platform, NoiseModel(seed=spec.seed))
    normalizer = PerfNormalizer.for_platform(platform, hints.n_nodes)

    app = workload_from_source(source_code, f"{name}-app", hints)
    kernel: IOKernel | None = None
    target = app
    if spec.use_io_kernel:
        kernel = discover_io(
            source_code,
            name,
            DiscoveryOptions(hints=hints, reducers=spec.reducers()),
        )
        target = kernel.to_workload()

    if agents is None:
        agents = train_seeded_agents(spec.seed)
    run_agents = agents_from_arrays(agent_arrays(agents), normalizer, spec.seed)

    tuner = build_tunio(
        simulator, run_agents, normalizer,
        expected_runs=spec.expected_runs, repeats=spec.repeats, rng=rng,
    )
    if spec.budget_minutes is not None:
        budget = TimeBudgetStopper(spec.budget_minutes)
        tuner.stopper = AnyStopper(tuner.stopper, budget)
    result = tuner.tune(target, max_iterations=spec.max_iterations)

    from repro.iostack.config import StackConfiguration

    baseline = simulator.evaluate(app, StackConfiguration.default(), repeats=spec.repeats)
    tuned = simulator.evaluate(app, result.best_config, repeats=spec.repeats)
    return TuningOutcome(
        result=result,
        kernel=kernel,
        app_perf_mbps=tuned.perf_mbps,
        app_baseline_mbps=baseline.perf_mbps,
    )
