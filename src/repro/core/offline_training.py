"""Offline training of TunIO's agents.

Per Section III-C/D:

* The Smart Configuration Generation agent "is first trained offline to
  get a baseline model ... by first doing a simple parameter sweep on
  some representative I/O kernels, including VPIC, FLASH, and HACC ...
  After performing a sweep on each I/O kernel, a PCA analysis is
  performed on the parameters with respect to perf to ... isolate the
  most impactful parameters."  :func:`parameter_sweep` +
  :func:`impact_from_sweeps` implement exactly that, and
  :func:`pretrain_subset_picker` warms the picker's Q-network in a
  surrogate subset-tuning environment parameterised by those impact
  scores.

* The Early Stopping agent is trained on generated log curves
  (:meth:`EarlyStoppingAgent.train_offline`); :func:`train_tunio_agents`
  bundles both.

:func:`train_seeded_agents` is the one training recipe of a seed: the
CLI, :func:`~repro.core.spec.tune_application`, the experiment context
and the examples all train through it.  A tuning run never tunes with
the trained instances themselves: :func:`agents_from_arrays` builds its
agents from the learned arrays (:func:`agent_arrays`, the
:func:`save_agents` checkpoint format) with generators derived from the
run's seed, so a run tunes the same whether its agents were just
trained or loaded with :func:`load_agents`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.iostack.clock import SimulatedClock
from repro.iostack.cluster import cori
from repro.iostack.config import StackConfiguration
from repro.iostack.noise import NoiseModel
from repro.iostack.parameters import TUNED_SPACE
from repro.iostack.simulator import IOStackSimulator, WorkloadLike
from repro.rl.guardrails import (
    CHECKPOINT_VERSION,
    CheckpointError,
    validate_agent_checkpoint,
)
from repro.rl.pca import parameter_impact
from repro.tuners.resilience import ResilientEvaluator
from repro.workloads import flash, hacc, vpic

from .early_stopping import EarlyStoppingAgent
from .objective import PerfNormalizer
from .smart_config import SmartConfigAgent

__all__ = [
    "SweepResult",
    "parameter_sweep",
    "impact_from_sweeps",
    "pretrain_subset_picker",
    "TunIOAgents",
    "train_tunio_agents",
    "TRAINING_NODES",
    "train_seeded_agents",
    "agent_arrays",
    "agents_from_arrays",
    "save_agents",
    "load_agents",
]

#: Nodes of the platform the agents are trained on (the paper's 4-node
#: training runs).
TRAINING_NODES = 4
#: Salts of the generators a seed derives: the training's, and those of
#: a run's subset picker and early stopper.
_TRAINING_SALT = 0xA11
_PICKER_SALT = 0xC10E
_STOPPER_SALT = 0xC10F

#: Points per parameter axis of the one-at-a-time sweep.
_AXIS_POINTS = 6
#: Iterations of one surrogate subset-tuning episode.
_SURROGATE_ITERATIONS = 20
#: The surrogate's normalised perf ceiling, the share of the remaining
#: headroom a full-impact subset gains per iteration, and the relative
#: spread of that gain.
_SURROGATE_CEILING = 1.0
_SURROGATE_RATE = 0.5
_SURROGATE_NOISE = 0.03


@dataclass(frozen=True)
class SweepResult:
    """Sweep observations for one workload."""

    workload_name: str
    #: (n_runs, n_params) normalised parameter values in [0, 1].
    configs: np.ndarray
    #: (n_runs,) observed perf in MB/s.
    perfs: np.ndarray


def parameter_sweep(
    simulator: IOStackSimulator,
    workload: WorkloadLike,
    random_samples: int = 8,
    rng: np.random.Generator | None = None,
    repeats: int = 3,
) -> SweepResult:
    """The paper's "simple parameter sweep": one-at-a-time axis sweeps
    from the default configuration plus uniform random samples.

    The configurations (the default, the axis points, then the random
    samples) are scored in one
    :meth:`~repro.tuners.resilience.ResilientEvaluator.evaluate` call,
    the same path a tuning run takes, on a clock of its own: sweeping
    is not tuning time.  The evaluator's private memo spans the sweep,
    so its traces share layer results.
    """
    rng = rng if rng is not None else np.random.default_rng()
    default = StackConfiguration.default()
    configs = [default]
    for param in TUNED_SPACE:
        step = max(1, param.cardinality // _AXIS_POINTS)
        for idx in range(0, param.cardinality, step):
            value = param.values[idx]
            if value == param.default:
                continue
            configs.append(default.with_values(**{param.name: value}))
    configs.extend(StackConfiguration.random(rng) for _ in range(random_samples))

    evaluator = ResilientEvaluator(simulator, SimulatedClock())
    perfs = evaluator.evaluate(workload, configs, repeats, charge=False)
    return SweepResult(
        workload_name=workload.name,
        configs=np.array([config.normalized() for config in configs]),
        perfs=np.array(perfs),
    )


def impact_from_sweeps(sweeps: Sequence[SweepResult]) -> np.ndarray:
    """PCA impact scores averaged over the swept kernels, sharpened by
    squaring (normalised to sum to 1).

    Squaring suppresses the noise floor of the sweep: parameters whose
    loadings co-vary with perf only spuriously end up with negligible
    scores, so the top-k ranking reliably starts with the true
    high-impact knobs.
    """
    if not sweeps:
        raise ValueError("need at least one sweep")
    stacked = [parameter_impact(s.configs, s.perfs) for s in sweeps]
    mean = np.mean(stacked, axis=0) ** 2
    return mean / mean.sum()


@dataclass
class _SurrogateTuning:
    """Analytic subset-tuning episode: per-iteration improvement is
    proportional to the impact mass the chosen subset covers times the
    remaining headroom.  Parameterised by the sweep-derived impact
    scores, so the picker pre-trains against the real impact structure."""

    impact_scores: np.ndarray
    rng: np.random.Generator
    perf: float = 0.1

    def reset(self) -> float:
        self.perf = float(self.rng.uniform(0.05, 0.25))
        return self.perf

    def step(self, subset_indices: np.ndarray) -> float:
        covered = float(self.impact_scores[subset_indices].sum())
        gap = max(0.0, _SURROGATE_CEILING - self.perf)
        gain = _SURROGATE_RATE * covered * gap
        gain += float(self.rng.normal(0.0, _SURROGATE_NOISE * max(gain, 0.01)))
        self.perf = min(_SURROGATE_CEILING, self.perf + max(0.0, gain))
        return self.perf


def pretrain_subset_picker(
    agent: SmartConfigAgent,
    impact_scores: np.ndarray,
    episodes: int = 60,
    rng: np.random.Generator | None = None,
) -> None:
    """Warm the Subset Picker's Q-network by running surrogate tuning
    episodes against the sweep-derived impact structure."""
    rng = rng if rng is not None else agent.rng
    agent.set_impact_scores(impact_scores)
    env = _SurrogateTuning(impact_scores=agent.impact_scores, rng=rng)
    scale = agent.normalizer.scale_mbps
    for _ in range(episodes):
        agent.reset_episode()
        perf = env.reset()
        subset: tuple[str, ...] = TUNED_SPACE.names
        for it in range(_SURROGATE_ITERATIONS):
            subset = agent.subset_picker(perf * scale, subset, iteration=it)
            idx = np.array([TUNED_SPACE.index_of_name(n) for n in subset])
            perf = env.step(idx)
    agent.reset_episode()


@dataclass
class TunIOAgents:
    """The offline-trained agent pair TunIO's pipeline consumes."""

    smart_config: SmartConfigAgent
    early_stopper: EarlyStoppingAgent
    impact_scores: np.ndarray


def train_tunio_agents(
    simulator: IOStackSimulator,
    training_workloads: Sequence[WorkloadLike],
    normalizer: PerfNormalizer,
    rng: np.random.Generator | None = None,
) -> TunIOAgents:
    """The full offline phase: sweep the representative kernels, run the
    PCA, pre-train the subset picker, and train the early stopper on
    generated log curves.
    """
    rng = rng if rng is not None else np.random.default_rng()
    sweeps = [parameter_sweep(simulator, w, rng=rng) for w in training_workloads]
    impact = impact_from_sweeps(sweeps)

    smart = SmartConfigAgent(normalizer, rng=rng)
    pretrain_subset_picker(smart, impact, rng=rng)

    stopper = EarlyStoppingAgent(rng=rng)
    stopper.train_offline(rng=rng)

    return TunIOAgents(smart_config=smart, early_stopper=stopper, impact_scores=impact)


def train_seeded_agents(seed: int) -> TunIOAgents:
    """The offline phase of ``seed``, the one training recipe: sweep
    VPIC, FLASH and HACC on a :data:`TRAINING_NODES`-node Cori with
    ``NoiseModel(seed)``, normalise perf for that platform, and draw
    every training decision from ``default_rng((seed, 0xA11))``."""
    platform = cori(TRAINING_NODES)
    return train_tunio_agents(
        IOStackSimulator(platform, NoiseModel(seed=seed)),
        [vpic(), flash(), hacc()],
        PerfNormalizer.for_platform(platform, TRAINING_NODES),
        rng=np.random.default_rng((seed, _TRAINING_SALT)),
    )


def agent_arrays(agents: TunIOAgents) -> dict[str, np.ndarray]:
    """Every learned array of ``agents``, keyed as :func:`save_agents`
    writes them (copies: the agents may go on learning)."""
    arrays: dict[str, np.ndarray] = {
        "checkpoint_version": np.array(CHECKPOINT_VERSION),
        "impact_scores": agents.impact_scores.copy(),
    }
    for k, v in agents.smart_config.get_state().items():
        arrays[f"smart_{k}"] = v
    for k, v in agents.early_stopper.get_weights().items():
        arrays[f"stop_{k}"] = v
    return arrays


def agents_from_arrays(
    arrays: Mapping[str, np.ndarray],
    normalizer: PerfNormalizer,
    seed: int,
) -> TunIOAgents:
    """A run's agents: new instances holding the learned ``arrays`` (in
    :func:`agent_arrays`' format), drawing from generators derived from
    the run's ``seed``.  The agents copy the arrays, so any number of
    runs can be built from one set.  Raises ``ValueError`` when an array
    does not fit the agents' architecture."""
    smart = SmartConfigAgent(
        normalizer, rng=np.random.default_rng((seed, _PICKER_SALT))
    )
    stopper = EarlyStoppingAgent(rng=np.random.default_rng((seed, _STOPPER_SALT)))
    smart.set_state(
        {k[len("smart_"):]: v for k, v in arrays.items() if k.startswith("smart_")}
    )
    stopper.set_weights(
        {k[len("stop_"):]: v for k, v in arrays.items() if k.startswith("stop_")}
    )
    return TunIOAgents(
        smart_config=smart,
        early_stopper=stopper,
        impact_scores=np.array(arrays["impact_scores"]),
    )


def save_agents(agents: TunIOAgents, path: str | Path) -> None:
    """Checkpoint the trained agents to a ``.npz`` file (stamped with
    the schema version so loaders can detect incompatible files)."""
    np.savez(Path(path), **agent_arrays(agents))


def load_agents(
    path: str | Path,
    normalizer: PerfNormalizer,
    seed: int = 0,
) -> TunIOAgents:
    """A run's agents from a :func:`save_agents` checkpoint, built by
    :func:`agents_from_arrays` for the run's ``seed``.

    The file is validated before any agent sees it (readable archive,
    supported schema version, required keys present, finite values, sane
    impact scores); shape mismatches against the freshly built agents
    are caught too.  All failure modes raise
    :class:`~repro.rl.guardrails.CheckpointError` with an actionable
    message -- a truncated or corrupted checkpoint can degrade the run,
    never poison the agents with garbage weights.
    """
    try:
        with np.load(Path(path)) as archive:
            data = {k: archive[k] for k in archive.files}
    except FileNotFoundError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, EOFError
        raise CheckpointError(
            f"agent checkpoint {path} is unreadable ({exc}); it is likely "
            f"truncated or corrupted -- delete it and retrain"
        ) from exc
    validate_agent_checkpoint(data, path=str(path))
    try:
        return agents_from_arrays(data, normalizer, seed)
    except ValueError as exc:
        raise CheckpointError(
            f"agent checkpoint {path} does not match the current agent "
            f"architecture ({exc}); it was written by an incompatible build -- "
            f"delete it and retrain"
        ) from exc
