"""TunIO's Smart Configuration Generation component (Impact-First
Tuning).

Per Section III-C, the component is an RL agent with two neural pieces:

* a **State Observer** -- an NN contextual bandit fed the agent's raw
  inputs (the parameter subset used and the best perf achieved with it)
  whose learned hidden representation is the state observation;
* a **Subset Picker** -- an NN Q-learning function that maps the state
  observation to the subset to tune next iteration.

The reward is ``norm(perf) / norm(num_parameters_subset)`` with a
5-iteration delay: performance per tuned parameter, so small
high-impact subsets dominate.

The subset itself is materialised from a ranked **impact score** per
parameter: initialised offline (parameter sweep + PCA on representative
kernels, see :mod:`.offline_training`) and updated online by crediting
the parameters of a subset with the normalised improvement it produced.
The picker's discrete action chooses the subset *size*; the top-ranked
parameter plus impact-weighted draws fill it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.iostack.parameters import TUNED_SPACE
from repro.rl.bandit import NeuralContextualBandit
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import DelayedRewardBuffer

from .objective import PerfNormalizer

__all__ = ["SmartConfigAgent"]

#: Candidate subset sizes the picker chooses among.
SUBSET_SIZES = (2, 3, 4, 6, 8, 12)
#: Reward-maturation delay in iterations (the paper uses 5).
DELAY = 5
#: Width of the state observation (bandit hidden layer).
STATE_DIM = 16
#: EMA rate for online impact-score updates.
IMPACT_LEARNING_RATE = 0.25
DISCOUNT = 0.9
LEARNING_RATE = 2e-3
#: Nominal iteration budget for feature normalisation.
MAX_ITERATIONS = 50


class SmartConfigAgent:
    """Ranks parameters by impact and picks the next tuning subset.

    ``normalizer`` maps raw MB/s to the agent's normalised perf units.
    """

    def __init__(
        self,
        normalizer: PerfNormalizer,
        rng: np.random.Generator | None = None,
    ):
        self.normalizer = normalizer
        self.rng = rng if rng is not None else np.random.default_rng()
        n = len(TUNED_SPACE)
        #: Per-parameter impact scores, normalised to sum to 1.
        self.impact_scores = np.full(n, 1.0 / n)
        # Context: subset membership one-hot + [norm perf, iter fraction].
        self.observer = NeuralContextualBandit(
            context_dim=n + 2,
            state_dim=STATE_DIM,
            learning_rate=LEARNING_RATE,
            rng=self.rng,
        )
        self.picker = QLearningAgent(
            QLearningConfig(
                state_dim=STATE_DIM,
                n_actions=len(SUBSET_SIZES),
                hidden=(24,),
                learning_rate=LEARNING_RATE,
                discount=DISCOUNT,
                epsilon_start=0.4,
                epsilon_end=0.05,
                epsilon_decay=0.99,
            ),
            self.rng,
        )
        self._delayed = DelayedRewardBuffer(delay=DELAY)
        self._perf_trace: list[float] = []

    # -- context / state ---------------------------------------------------------

    def _context(self, subset: Sequence[str], perf_norm: float, iteration: int) -> np.ndarray:
        onehot = np.array([1.0 if p in subset else 0.0 for p in TUNED_SPACE.names])
        extra = np.array([perf_norm, min(2.0, iteration / MAX_ITERATIONS)])
        return np.concatenate([onehot, extra])

    def _normalize(self, perf_mbps: float) -> float:
        return self.normalizer.normalize(perf_mbps)

    # -- impact ranking ------------------------------------------------------------

    def set_impact_scores(self, scores: Sequence[float]) -> None:
        """Install offline-trained impact scores (sum-normalised)."""
        arr = np.asarray(scores, dtype=float)
        if arr.shape != (len(TUNED_SPACE),):
            raise ValueError("scores must have one entry per parameter")
        if np.any(arr < 0) or arr.sum() <= 0:
            raise ValueError("scores must be non-negative and not all zero")
        self.impact_scores = arr / arr.sum()

    def ranked_parameters(self) -> tuple[str, ...]:
        """All parameters, most impactful first."""
        order = np.argsort(self.impact_scores)[::-1]
        return tuple(TUNED_SPACE.names[i] for i in order)

    def _materialize_subset(self, k: int) -> tuple[str, ...]:
        """Fill a subset of size ``k``: the top-ranked parameter is
        always included; the rest are sampled without replacement with
        probability proportional to impact score.  Sampling (rather than
        a hard top-k cut) keeps mid-ranked parameters cycling through
        subsets, so online credit assignment can promote a parameter the
        offline sweep under-rated -- interaction-only effects like
        collective I/O depend on this."""
        names = list(TUNED_SPACE.names)
        order = np.argsort(self.impact_scores)[::-1]
        subset = [names[order[0]]]
        if k > 1:
            remaining = [i for i in order[1:]]
            weights = self.impact_scores[remaining] ** 1.5
            weights = weights / weights.sum()
            picks = self.rng.choice(
                len(remaining), size=k - 1, replace=False, p=weights
            )
            subset.extend(names[remaining[int(i)]] for i in picks)
        return tuple(subset)

    # -- the Table I API --------------------------------------------------------------

    def subset_picker(
        self,
        perf_mbps: float,
        current_parameter_set: Sequence[str] | None,
        iteration: int = 0,
    ) -> tuple[str, ...]:
        """Given the perf achieved with the current subset, return the
        subset for the next iteration (Table I: ``subset_picker(perf,
        current_parameter_set) -> next_parameter_set``)."""
        perf_norm = self._normalize(perf_mbps)
        current = tuple(current_parameter_set or TUNED_SPACE.names)

        # Mature delayed rewards from decisions >= delay iterations old.
        self._perf_trace.append(perf_norm)

        context = self._context(current, perf_norm, iteration)
        reward_now = perf_norm / (len(current) / len(TUNED_SPACE))
        self.observer.update(context, reward_now)
        state = self.observer.observe_state(context)

        def delayed_reward(born: int, now: int) -> float:
            horizon = min(now, len(self._perf_trace) - 1)
            return self._perf_trace[horizon] / (len(current) / len(TUNED_SPACE))

        for tr in self._delayed.mature(iteration, delayed_reward, state, done=False):
            self.picker.observe(tr)
        self.picker.train_step()

        action = self.picker.act(state)
        self._delayed.remember(state, action, iteration)
        self.picker.decay_epsilon()

        k = SUBSET_SIZES[action]
        return self._materialize_subset(k)

    # -- online impact updates ------------------------------------------------------------

    def credit_subset(self, subset: Sequence[str], perf_delta_norm: float) -> None:
        """Credit (or debit) the parameters of a subset with the perf
        change their tuning iteration produced."""
        if not subset:
            return
        beta = IMPACT_LEARNING_RATE
        scores = self.impact_scores.copy()
        if perf_delta_norm > 0:
            credit = perf_delta_norm / len(subset)
            for name in subset:
                i = TUNED_SPACE.index_of_name(name)
                scores[i] = (1.0 - beta) * scores[i] + beta * (scores[i] + credit)
        else:
            # A fruitless iteration mildly debits its subset so stale
            # rankings erode and other parameters get their turn.
            for name in subset:
                i = TUNED_SPACE.index_of_name(name)
                scores[i] *= 1.0 - 0.25 * beta
        self.impact_scores = scores / scores.sum()

    def reset_episode(self) -> None:
        """Clear per-run state (new tuning session); learned weights and
        impact scores persist, as the paper's agent 'continues to learn
        from the applications it is exposed to'."""
        self._delayed.clear()
        self._perf_trace.clear()

    # -- checkpointing -------------------------------------------------------------------

    def get_state(self) -> dict[str, np.ndarray]:
        out = {"impact_scores": self.impact_scores.copy()}
        for k, v in self.picker.get_weights().items():
            out[f"picker_{k}"] = v
        for k, v in self.observer.model.get_weights().items():
            out[f"observer_{k}"] = v
        return out

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        self.set_impact_scores(state["impact_scores"])
        picker = {k[len("picker_"):]: v for k, v in state.items() if k.startswith("picker_")}
        observer = {k[len("observer_"):]: v for k, v in state.items() if k.startswith("observer_")}
        if picker:
            self.picker.set_weights(picker)
        if observer:
            self.observer.model.set_weights(observer)
