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
  bundles both and :func:`save_agents` / :func:`load_agents` checkpoint
  the result so the expensive offline phase runs once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.iostack.config import StackConfiguration
from repro.iostack.evalcache import EvaluationCache
from repro.iostack.parameters import ParameterSpace, TUNED_SPACE
from repro.iostack.simulator import IOStackSimulator, WorkloadLike
from repro.rl.curves import LogCurveGenerator
from repro.rl.guardrails import (
    CHECKPOINT_VERSION,
    CheckpointError,
    validate_agent_checkpoint,
)
from repro.rl.pca import parameter_impact

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
    "save_agents",
    "load_agents",
]


@dataclass(frozen=True)
class SweepResult:
    """Sweep observations for one workload."""

    workload_name: str
    #: (n_runs, n_params) normalised parameter values in [0, 1].
    configs: np.ndarray
    #: (n_runs,) observed perf in MB/s.
    perfs: np.ndarray
    #: Trace-cache hits during the sweep (duplicate configurations --
    #: the default revisited per axis, random samples colliding with
    #: axis points -- that skipped the stack traversal).
    cache_hits: int = 0


def parameter_sweep(
    simulator: IOStackSimulator,
    workload: WorkloadLike,
    space: ParameterSpace = TUNED_SPACE,
    axis_points: int = 6,
    random_samples: int = 8,
    rng: np.random.Generator | None = None,
    repeats: int = 3,
    cache: EvaluationCache | None = None,
) -> SweepResult:
    """The paper's "simple parameter sweep": one-at-a-time axis sweeps
    from the default configuration plus uniform random samples.

    Every evaluation routes through an :class:`EvaluationCache` (the
    shared ``cache`` when given, a sweep-private one otherwise), so
    duplicate configurations skip the stack traversal; the hits are
    counted on :attr:`SweepResult.cache_hits`.  Results are bit-identical
    with or without a shared cache (the cache contract).
    """
    rng = rng if rng is not None else np.random.default_rng()
    cache = cache if cache is not None else EvaluationCache()
    hits_before = cache.hits
    configs: list[np.ndarray] = []
    perfs: list[float] = []

    def run(config: StackConfiguration) -> None:
        result = cache.evaluate(simulator, workload, config, repeats=repeats)
        configs.append(config.normalized())
        perfs.append(result.perf_mbps)

    default = StackConfiguration.default(space)
    run(default)
    for param in space:
        step = max(1, param.cardinality // axis_points)
        for idx in range(0, param.cardinality, step):
            value = param.values[idx]
            if value == param.default:
                continue
            run(default.with_values(**{param.name: value}))
    for _ in range(random_samples):
        run(StackConfiguration.random(rng, space))

    return SweepResult(
        workload_name=workload.name,
        configs=np.array(configs),
        perfs=np.array(perfs),
        cache_hits=cache.hits - hits_before,
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
    ceiling: float = 1.0
    rate: float = 0.5
    noise: float = 0.03
    perf: float = 0.1

    def reset(self) -> float:
        self.perf = float(self.rng.uniform(0.05, 0.25))
        return self.perf

    def step(self, subset_indices: np.ndarray) -> float:
        covered = float(self.impact_scores[subset_indices].sum())
        gap = max(0.0, self.ceiling - self.perf)
        gain = self.rate * covered * gap
        gain += float(self.rng.normal(0.0, self.noise * max(gain, 0.01)))
        self.perf = min(self.ceiling, self.perf + max(0.0, gain))
        return self.perf


def pretrain_subset_picker(
    agent: SmartConfigAgent,
    impact_scores: np.ndarray,
    episodes: int = 60,
    iterations_per_episode: int = 20,
    rng: np.random.Generator | None = None,
    batched: bool = False,
) -> None:
    """Warm the Subset Picker's Q-network by running surrogate tuning
    episodes against the sweep-derived impact structure.

    ``batched=True`` runs every episode in lockstep: per surrogate
    iteration the whole batch updates the State Observer through one
    :meth:`MLP.train_batch` call, acts through one batched forward pass,
    and trains the picker on one large minibatch -- checkpoint-level
    equivalent to the serial loop, several times faster.
    """
    rng = rng if rng is not None else agent.rng
    if batched:
        _pretrain_subset_picker_batched(
            agent, impact_scores, episodes, iterations_per_episode, rng
        )
        return
    agent.set_impact_scores(impact_scores)
    names = agent.space.names
    env = _SurrogateTuning(impact_scores=agent.impact_scores, rng=rng)
    scale = agent.normalizer.scale_mbps if agent.normalizer is not None else 1000.0
    for _ in range(episodes):
        agent.reset_episode()
        perf = env.reset()
        subset: tuple[str, ...] = names
        for it in range(iterations_per_episode):
            subset = agent.subset_picker(perf * scale, subset, iteration=it)
            idx = np.array([agent.space.index_of_name(n) for n in subset])
            perf = env.step(idx)
    agent.reset_episode()


def _pretrain_subset_picker_batched(
    agent: SmartConfigAgent,
    impact_scores: np.ndarray,
    episodes: int,
    iterations_per_episode: int,
    rng: np.random.Generator,
) -> None:
    """Lockstep surrogate pretraining: ``episodes`` analytic tuning runs
    advance together, batching every network touch.

    Mirrors the serial path's structure -- context -> observer update ->
    state observation -> delayed reward maturation -> picker update ->
    epsilon-greedy action -> subset materialisation -> env step -- with
    the per-episode python/NN calls fused into array operations.
    """
    agent.set_impact_scores(impact_scores)
    space = agent.space
    names = space.names
    n_params = len(space)
    m = episodes
    settings = agent.settings
    delay = settings.delay
    sizes = np.array(agent.subset_sizes)

    env = _SurrogateTuning(impact_scores=agent.impact_scores, rng=rng)
    perf = rng.uniform(0.05, 0.25, size=m)
    # Subset membership one-hot per episode; episodes start on the full
    # parameter set like the serial loop.
    member = np.ones((m, n_params))
    perf_trace = np.empty((iterations_per_episode, m))
    state_hist: list[np.ndarray] = []
    action_hist: list[np.ndarray] = []

    for it in range(iterations_per_episode):
        perf_trace[it] = perf
        subset_frac = member.sum(axis=1) / n_params
        contexts = np.concatenate(
            [
                member,
                perf[:, None],
                np.full((m, 1), min(2.0, it / settings.max_iterations)),
            ],
            axis=1,
        )
        reward_now = perf / subset_frac
        agent.observer.update_batch(contexts, reward_now)
        states = agent.observer.observe_state_batch(contexts)

        # Mature the decisions born ``delay`` iterations ago, rewarded
        # with the perf they led to (the serial delayed_reward closure).
        born = it - delay
        if born >= 0:
            agent.picker.observe_batch(
                state_hist[born],
                action_hist[born],
                perf / subset_frac,
                states,
                False,
            )
        agent.picker.train_step(batch_size=max(agent.picker.config.batch_size, 2 * m))

        actions = agent.picker.act_batch(states)
        state_hist.append(states)
        action_hist.append(actions)
        agent.picker.epsilon = max(
            agent.picker.config.epsilon_end,
            agent.picker.epsilon * agent.picker.config.epsilon_decay**m,
        )

        # Materialise each episode's next subset (per-episode sampling,
        # like the serial `_materialize_subset`), then step the analytic
        # environment for the whole batch at once.
        member = np.zeros((m, n_params))
        for i in range(m):
            subset = agent._materialize_subset(int(sizes[actions[i]]))
            for name in subset:
                member[i, space.index_of_name(name)] = 1.0
        covered = member @ agent.impact_scores
        gap = np.maximum(0.0, env.ceiling - perf)
        gain = env.rate * covered * gap
        gain += rng.normal(0.0, 1.0, size=m) * (env.noise * np.maximum(gain, 0.01))
        perf = np.minimum(env.ceiling, perf + np.maximum(0.0, gain))

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
    space: ParameterSpace = TUNED_SPACE,
    rng: np.random.Generator | None = None,
    curve_generator: LogCurveGenerator | None = None,
    cache: EvaluationCache | None = None,
    batched: bool = False,
) -> TunIOAgents:
    """The full offline phase: sweep the representative kernels, run the
    PCA, pre-train the subset picker, and train the early stopper on
    generated log curves.  All sweeps share ``cache`` when given.

    The default keeps the serial, bit-reproducible behaviour.
    ``batched=True`` switches both pretraining phases to their
    vectorized fastpaths, which train checkpoint-equivalent -- not
    bit-identical -- agents, validated by the batched-training
    equivalence tests.
    """
    rng = rng if rng is not None else np.random.default_rng()
    sweeps = [
        parameter_sweep(simulator, w, space, rng=rng, cache=cache)
        for w in training_workloads
    ]
    impact = impact_from_sweeps(sweeps)

    smart = SmartConfigAgent(space=space, normalizer=normalizer, rng=rng)
    pretrain_subset_picker(smart, impact, rng=rng, batched=batched)

    stopper = EarlyStoppingAgent(rng=rng)
    stopper.train_offline(generator=curve_generator, rng=rng, batched=batched)

    return TunIOAgents(smart_config=smart, early_stopper=stopper, impact_scores=impact)


def save_agents(agents: TunIOAgents, path: str | Path) -> None:
    """Checkpoint the trained agents to a ``.npz`` file (stamped with
    the schema version so loaders can detect incompatible files)."""
    payload: dict[str, np.ndarray] = {
        "checkpoint_version": np.array(CHECKPOINT_VERSION),
        "impact_scores": agents.impact_scores,
    }
    for k, v in agents.smart_config.get_state().items():
        payload[f"smart_{k}"] = v
    for k, v in agents.early_stopper.get_weights().items():
        payload[f"stop_{k}"] = v
    np.savez(Path(path), **payload)


def load_agents(
    path: str | Path,
    normalizer: PerfNormalizer,
    space: ParameterSpace = TUNED_SPACE,
    rng: np.random.Generator | None = None,
) -> TunIOAgents:
    """Restore a :func:`save_agents` checkpoint.

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
    smart = SmartConfigAgent(space=space, normalizer=normalizer, rng=rng)
    stopper = EarlyStoppingAgent(rng=rng)
    try:
        smart.set_state(
            {k[len("smart_"):]: v for k, v in data.items() if k.startswith("smart_")}
        )
        stopper.set_weights(
            {k[len("stop_"):]: v for k, v in data.items() if k.startswith("stop_")}
        )
    except ValueError as exc:
        raise CheckpointError(
            f"agent checkpoint {path} does not match the current agent "
            f"architecture ({exc}); it was written by an incompatible build -- "
            f"delete it and retrain"
        ) from exc
    return TunIOAgents(
        smart_config=smart,
        early_stopper=stopper,
        impact_scores=data["impact_scores"],
    )
