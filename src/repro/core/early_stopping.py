"""TunIO's Early Stopping component.

An NN Q-learning agent (Section III-D) that watches the tuning run --
its inputs are "the perf gained in the respective iteration and the
number of iterations" -- and decides stop/continue.  It is trained
offline on generated noisy log curves until its average reward
stagnates (<5% improvement across five epochs), then keeps learning
online from the applications it tunes.

Design of the decision problem:

* **State** (5 features): iteration fraction ``t/T``, normalised
  best-so-far perf, gain over the last iteration, gain over the last
  :data:`DELAY` iterations, and the (normalised) number of iterations since
  the last meaningful improvement -- the plateau-length signal.
* **Actions**: 0 = continue, 1 = stop (terminal).  Offline, stopping is
  rewarded with the exact trade-off it chose -- tuning cost saved minus
  gain forfeited -- which the generator knows because it made the curve.
* **Reward for continue**, matured with the paper's 5-iteration delay:
  the normalised perf gained over the next :data:`DELAY` iterations minus a
  per-window tuning cost.  With discounting, Q(continue) is the expected
  remaining (cost-adjusted) gain, so the greedy policy stops exactly
  when further tuning no longer pays -- and rides out early plateaus,
  because from low-perf/early-iteration states the *expected* future
  gain across the training distribution is positive even when the
  current slope is zero.

:class:`RLStopper` adapts the trained agent to the
:class:`~repro.tuners.stoppers.Stopper` protocol and implements the
paper's future-work extension: an ``expected_runs`` input that lowers
the effective iteration cost when the tuned configuration will be
reused many times, letting the pipeline tune longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.iostack.faults import FaultPlan
from repro.rl.curves import LogCurve, LogCurveGenerator
from repro.rl.guardrails import AgentGuard, GuardrailMonitor
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import DelayedRewardBuffer, Transition
from repro.tuners.base import IterationRecord
from repro.tuners.stoppers import HeuristicStopper

from .objective import PerfNormalizer

__all__ = [
    "OfflineTrainingReport",
    "EarlyStoppingAgent",
    "RLStopper",
    "GuardedStopper",
]

_STATE_DIM = 5
_CONTINUE, _STOP = 0, 1


#: Reward-maturation delay in iterations (the paper uses 5).
DELAY = 5
#: Normalised-perf cost of one ``DELAY``-iteration window of tuning.
ITERATION_COST = 0.025
#: Nominal iteration budget used to normalise the iteration feature.
MAX_ITERATIONS = 50
DISCOUNT = 0.97
HIDDEN = (32, 32)
LEARNING_RATE = 1e-3
#: Iterations the agent will never stop before (warm-up; a tuner
#: cannot meaningfully stop before it has seen any trend).
MIN_ITERATIONS = 4
#: Offline training stops once the mean reward of the last
#: ``STAGNATION_WINDOW`` epochs improves on the window before it by less
#: than ``STAGNATION_THRESHOLD`` (the paper's <5%-over-5-epochs rule).
STAGNATION_THRESHOLD = 0.05
STAGNATION_WINDOW = 5
#: Curves and fitting epochs of the Monte-Carlo warm start.
_PRETRAIN_CURVES = 600
_PRETRAIN_EPOCHS = 60


def _continue_reward(v: Sequence[float], cost: float) -> Callable[[int, int], float]:
    """The delayed reward of continuing at iteration ``born`` of the
    normalised series ``v``: the perf gained over the next ``DELAY``
    iterations (clipped to the end of the series) minus ``cost``."""

    def reward(born: int, now: int) -> float:
        return float(v[min(born + DELAY, len(v) - 1)] - v[born]) - cost

    return reward


@dataclass(frozen=True)
class OfflineTrainingReport:
    """Outcome of offline training."""

    epochs: int
    mean_rewards: tuple[float, ...]
    #: Mean |stop - ideal_stop| on held-out validation curves.
    validation_stop_error: float
    #: Mean fraction of the total gain captured at the stop point.
    validation_gain_captured: float
    stagnated: bool


class EarlyStoppingAgent:
    """The Q-learning stop/continue agent."""

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng()
        self.agent = QLearningAgent(
            QLearningConfig(
                state_dim=_STATE_DIM,
                n_actions=2,
                hidden=HIDDEN,
                learning_rate=LEARNING_RATE,
                discount=DISCOUNT,
                epsilon_start=1.0,
                epsilon_end=0.02,
                epsilon_decay=0.997,
                batch_size=64,
                target_sync_every=100,
            ),
            self.rng,
        )

    # -- state construction --------------------------------------------------

    def state_from_series(self, values: Sequence[float], t: int) -> np.ndarray:
        """Build the 5-feature state from a best-so-far perf series
        (normalised units) at iteration ``t``."""
        v = np.asarray(values, dtype=float)
        if not 0 <= t < v.size:
            raise IndexError(f"iteration {t} outside series of length {v.size}")
        gain_1 = v[t] - v[t - 1] if t >= 1 else 0.0
        back = max(0, t - DELAY)
        gain_d = v[t] - v[back] if t >= 1 else 0.0
        # Iterations since the last improvement of >=1.5% of current
        # perf (smaller gains are indistinguishable from measurement
        # luck on a noisy platform and must not reset the plateau clock).
        stall = 0
        threshold = 0.015 * max(v[t], 1e-9)
        for k in range(t, 0, -1):
            if v[k] - v[k - 1] >= threshold:
                break
            stall += 1
        return np.array(
            [
                min(2.0, t / MAX_ITERATIONS),
                v[t],
                gain_1,
                gain_d,
                min(4.0, stall / DELAY),
            ],
            dtype=float,
        )

    # -- decisions ------------------------------------------------------------

    def should_stop(self, values: Sequence[float], t: int) -> bool:
        """Greedy stop/continue decision at iteration ``t`` of a series."""
        if t < MIN_ITERATIONS:
            return False
        state = self.state_from_series(values, t)
        return self.agent.act(state, greedy=True) == _STOP

    # -- offline training ------------------------------------------------------

    def _monte_carlo_pretrain(
        self, generator: LogCurveGenerator, rng: np.random.Generator
    ) -> None:
        """Supervised warm start: regress Q(s, continue) onto the true
        discounted continue-forever return of each state (computable
        offline because the generator knows the whole curve) and
        Q(s, stop) onto zero.  This pins the stop/continue boundary to
        the cost-vs-remaining-gain economics before the episodic phase
        refines it."""
        states: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for _ in range(_PRETRAIN_CURVES):
            v = generator.sample(rng).values
            n = v.size
            # Per-step matured reward, pro-rated from the delay window.
            r = np.empty(n - 1)
            for t in range(n - 1):
                horizon = min(t + DELAY, n - 1)
                r[t] = ((v[horizon] - v[t]) - ITERATION_COST) / DELAY
            returns = np.zeros(n)
            for t in range(n - 2, -1, -1):
                returns[t] = r[t] + DISCOUNT * returns[t + 1]
            # Sample a handful of states per curve to keep the set varied.
            for t in rng.choice(n - 1, size=min(20, n - 1), replace=False):
                t = int(t)
                states.append(self.state_from_series(v, t))
                targets.append(np.array([returns[t], 0.0]))
        x = np.stack(states)
        y = np.stack(targets)
        self.agent.q_network.fit(
            x, y, epochs=_PRETRAIN_EPOCHS, batch_size=64, rng=rng
        )
        self.agent.target_network.copy_from(self.agent.q_network)

    def train_offline(
        self,
        rng: np.random.Generator | None = None,
        max_epochs: int = 40,
        episodes_per_epoch: int = 32,
        validation_curves: int = 40,
    ) -> OfflineTrainingReport:
        """Train on synthetic log curves: a Monte-Carlo supervised warm
        start, then episodic Q-learning until the average reward
        stagnates (the paper's <5%-over-5 criterion); finally validate
        against the curves' known ideal stop points.
        """
        generator = LogCurveGenerator()
        rng = rng if rng is not None else self.rng
        self._monte_carlo_pretrain(generator, rng)
        # The warm start means little exploration is needed afterwards.
        self.agent.epsilon = 0.2

        mean_rewards: list[float] = []
        stagnated = False
        min_epochs = 4 * STAGNATION_WINDOW  # let exploration decay first
        for _ in range(max_epochs):
            rewards = []
            for _ in range(episodes_per_epoch):
                rewards.append(self._run_episode(generator.sample(rng)))
                self.agent.decay_epsilon()
            mean_rewards.append(float(np.mean(rewards)))
            if len(mean_rewards) >= min_epochs:
                # Window means rather than point values: single-epoch
                # reward estimates are too noisy to test a 5% criterion.
                now = float(np.mean(mean_rewards[-STAGNATION_WINDOW:]))
                past = float(
                    np.mean(mean_rewards[-2 * STAGNATION_WINDOW : -STAGNATION_WINDOW])
                )
                denom = abs(past) if abs(past) > 1e-9 else 1.0
                if (now - past) / denom < STAGNATION_THRESHOLD:
                    stagnated = True
                    break

        errors: list[float] = []
        captured: list[float] = []
        for _ in range(validation_curves):
            curve = generator.sample(rng)
            stop = self.evaluate_stop_point(curve)
            errors.append(abs(stop - self.economic_stop(curve)))
            total_gain = curve.final - curve.initial
            got = curve.values[stop] - curve.initial
            captured.append(float(got / total_gain) if total_gain > 0 else 1.0)
        return OfflineTrainingReport(
            epochs=len(mean_rewards),
            mean_rewards=tuple(mean_rewards),
            validation_stop_error=float(np.mean(errors)),
            validation_gain_captured=float(np.mean(captured)),
            stagnated=stagnated,
        )

    def economic_stop(self, curve: LogCurve) -> int:
        """The cost-optimal stop point under this agent's iteration
        cost: argmax of perf minus the pro-rated tuning cost."""
        c = ITERATION_COST / DELAY
        t = np.arange(curve.values.size)
        return int(np.argmax(curve.values - c * t))

    def evaluate_stop_point(self, curve: LogCurve) -> int:
        """Where the greedy policy stops on a curve (its last index if it
        never stops)."""
        for t in range(curve.values.size):
            if self.should_stop(curve.values, t):
                return t
        return curve.values.size - 1

    # -- learning machinery -----------------------------------------------------

    def _run_episode(self, curve: LogCurve) -> float:
        """One training episode over a synthetic curve; returns the
        (undiscounted) episode reward."""
        v = curve.values
        buffer = DelayedRewardBuffer(delay=DELAY)
        continue_reward = _continue_reward(v, ITERATION_COST)
        total_reward = 0.0

        def flush(t: int, state: np.ndarray) -> None:
            # The episode is over: every pending decision matures now.
            for tr in buffer.mature(t, continue_reward, state, done=True):
                self.agent.observe(tr)

        # Each iteration's state is built once: it is the next state of
        # the decisions maturing at ``t`` and the input of the decision
        # made at ``t``.
        t = 0
        state = self.state_from_series(v, t)
        while t < v.size - 1:
            action = self.agent.act(state) if t >= MIN_ITERATIONS else _CONTINUE
            if action == _STOP:
                # Offline we know the whole curve, so the stop action
                # gets the exact trade-off it chose: the gain it
                # forfeited versus the tuning cost it saved.
                remaining_gain = float(v[-1] - v[t])
                saved_cost = ITERATION_COST * (v.size - 1 - t) / DELAY
                self.agent.observe(
                    Transition(state, _STOP, saved_cost - remaining_gain, state, done=True)
                )
                flush(t, state)
                self.agent.train_step()
                break
            buffer.remember(state, _CONTINUE, t)
            t += 1
            state = self.state_from_series(v, t)
            for tr in buffer.mature(t, continue_reward, state, done=False):
                total_reward += tr.reward
                self.agent.observe(tr)
            self.agent.train_step()
        else:
            flush(t, state)
            self.agent.train_step()
        return total_reward

    # -- checkpointing -------------------------------------------------------------

    def get_weights(self) -> dict[str, np.ndarray]:
        return self.agent.get_weights()

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        self.agent.set_weights(weights)


class RLStopper:
    """Adapter: the trained agent as a tuning-pipeline
    :class:`~repro.tuners.stoppers.Stopper`.

    Keeps learning online: every iteration's observation is pushed into
    the agent's replay with the same delayed-reward scheme used offline.

    Parameters
    ----------
    agent:
        A (typically offline-trained) :class:`EarlyStoppingAgent`.
    normalizer:
        Maps the pipeline's raw MB/s to the agent's normalised units.
    expected_runs:
        Anticipated production executions of the tuned application.  The
        default (None) keeps the agent's trained cost; larger values
        scale the effective iteration cost down (more patience), the
        paper's proposed future-work input.
    online_learning:
        Whether to keep training during live tuning.
    """

    #: expected_runs at which the agent's trained cost applies unchanged.
    REFERENCE_RUNS = 1000.0

    def __init__(
        self,
        agent: EarlyStoppingAgent,
        normalizer: PerfNormalizer,
        expected_runs: float | None = None,
        online_learning: bool = True,
    ):
        if expected_runs is not None and expected_runs <= 0:
            raise ValueError("expected_runs must be positive")
        self.agent = agent
        self.normalizer = normalizer
        self.expected_runs = expected_runs
        self.online_learning = online_learning
        self.name = "tunio-rl-stopper"
        self._series: list[float] = []
        self._buffer = DelayedRewardBuffer(delay=DELAY)

    def reset(self) -> None:
        self._series.clear()
        self._buffer.clear()

    def _patience_scale(self) -> float:
        if self.expected_runs is None:
            return 1.0
        # More production runs -> cheaper tuning iterations, log-scaled.
        return 1.0 / max(0.25, np.log10(self.expected_runs) / np.log10(self.REFERENCE_RUNS))

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        if not history:
            return False
        self._series.append(self.normalizer.normalize(history[-1].best_perf))
        t = len(self._series) - 1

        if self.online_learning and t >= 1:
            v = self._series
            reward = _continue_reward(v, ITERATION_COST * self._patience_scale())
            state_prev = self.agent.state_from_series(v, t - 1)
            self._buffer.remember(state_prev, _CONTINUE, t - 1)
            for tr in self._buffer.mature(
                t, reward, self.agent.state_from_series(v, t), done=False
            ):
                self.agent.agent.observe(tr)
            self.agent.agent.train_step()

        decision = self.agent.should_stop(self._series, t)
        if decision and self.expected_runs is not None:
            # Patience: with more production runs ahead than the
            # reference, a stop must beat continuing by a Q-margin that
            # grows with the patience factor; fewer runs add no margin.
            q = self.agent.agent.q_values(self.agent.state_from_series(self._series, t))
            margin = q[_STOP] - q[_CONTINUE]
            patience = 1.0 / self._patience_scale()
            decision = margin >= max(0.0, patience - 1.0) * ITERATION_COST
        return bool(decision)


class GuardedStopper:
    """Guardrail wrapper around :class:`RLStopper`, with the paper's
    5%/5 patience heuristic as its fallback.

    Holds one :class:`~repro.rl.guardrails.AgentGuard` over the RL
    stopper's q-network and target network.  The guard applies an
    engaged weight fault, scans both networks before the RL stopper
    runs (before it would consume any agent RNG) and, after a healthy
    decision, checks the q-network's loss and gradient norm.

    The stopper adds only the check on its own output, a
    degenerate-policy watchdog: a stop decision below the
    :data:`MIN_ITERATIONS` warm-up is impossible for a healthy policy
    (``EarlyStoppingAgent.should_stop`` hard-returns False there), so
    two consecutive such decisions trip the guard.  A single one is
    withheld (``False``) rather than obeyed.  A stop after the warm-up
    looks like a healthy decision and is obeyed, so a ``stop-now`` fault
    that engages after the warm-up stops the run with no trip.

    Once the guard trips, every decision for the rest of the run comes
    from the heuristic.  Because every check runs before the RL agent
    draws randomness, a run degraded at iteration ``k`` consumes exactly
    the same downstream random streams as a run that never had an RL
    stopper -- the degraded-mode bit-reproducibility contract.
    """

    def __init__(
        self,
        primary: RLStopper,
        monitor: GuardrailMonitor,
        fault_source: Callable[[], FaultPlan | None],
    ):
        self.primary = primary
        self.fallback = HeuristicStopper()
        agent = primary.agent.agent
        self.guard = AgentGuard(
            "early-stopper",
            (("q-network", agent.q_network), ("target-network", agent.target_network)),
            monitor,
            fault_source,
        )
        self._early_stop_streak = 0
        self.name = f"guarded({primary.name}->{self.fallback.name})"

    def should_stop(self, history: Sequence[IterationRecord]) -> bool:
        guard = self.guard
        if guard.degraded:
            return self.fallback.should_stop(history)
        if not history:
            return False
        t = len(history) - 1
        fault = guard.before_call(t)
        if guard.degraded:
            return self.fallback.should_stop(history)

        if fault == "stop-now":
            decision = True
        else:
            decision = self.primary.should_stop(history)
            q_network = self.primary.agent.agent.q_network
            guard.check_training([(q_network.last_loss, q_network.last_grad_norm)], t)
            if guard.degraded:
                return self.fallback.should_stop(history)

        if decision and t < MIN_ITERATIONS:
            self._early_stop_streak += 1
            if self._early_stop_streak >= 2:
                guard.trip(
                    "degenerate-policy",
                    f"stop requested at iteration {t}, inside the "
                    f"{MIN_ITERATIONS}-iteration warm-up, "
                    f"{self._early_stop_streak} times in a row",
                    t,
                )
                return self.fallback.should_stop(history)
            return False
        self._early_stop_streak = 0
        return decision

    def reset(self) -> None:
        self.guard.reset()
        self.primary.reset()
        self._early_stop_streak = 0
