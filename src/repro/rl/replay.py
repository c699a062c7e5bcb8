"""Experience replay and the paper's delayed-reward mechanism.

Both TunIO agents "utilize a 5-iteration delay on the reward function to
avoid bias introduced by short-term gains": the reward credited to the
decision made at iteration *t* is computed from what is known at
iteration *t + 5*.  :class:`DelayedRewardBuffer` holds pending
transitions until their reward matures, then releases them into a
standard :class:`ReplayBuffer` for minibatch training.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = ["Transition", "ReplayBuffer", "DelayedRewardBuffer"]


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) tuple."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class ReplayBuffer:
    """Bounded FIFO store with uniform minibatch sampling.

    Transitions live in numpy ring arrays, one per field, so a minibatch
    is one fancy index per field.  The arrays start small and double on
    demand up to ``capacity``; once full, each push overwrites the
    oldest transition.  Sample index ``i`` always means the ``i``-th
    oldest transition, as in a ``deque(maxlen=capacity)``.
    """

    #: Rows allocated by the first push (fewer if ``capacity`` is smaller).
    _INITIAL_ROWS = 64

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.clear()

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Transition]:
        """The stored transitions, oldest first."""
        for i in range(self._size):
            yield self._transition((self._head + i) % self.capacity)

    def push(self, transition: Transition) -> None:
        state = np.asarray(transition.state, dtype=float)
        next_state = np.asarray(transition.next_state, dtype=float)
        if self._states is None:
            self._allocate(min(self.capacity, self._INITIAL_ROWS), state.shape)
        shape = self._states.shape[1:]
        if state.shape != shape or next_state.shape != shape:
            raise ValueError(
                f"transition shapes {state.shape}/{next_state.shape} != buffer's {shape}"
            )
        if self._size < self.capacity:
            if self._size == self._states.shape[0]:
                self._allocate(min(self.capacity, 2 * self._size), shape)
            row = self._size
            self._size += 1
        else:
            row = self._head
            self._head = row + 1 if row + 1 < self.capacity else 0
        self._states[row] = state
        self._actions[row] = transition.action
        self._rewards[row] = transition.reward
        self._next_states[row] = next_state
        self._dones[row] = transition.done

    def _allocate(self, rows: int, shape: tuple[int, ...]) -> None:
        """(Re)allocate the ring arrays with ``rows`` rows, keeping the
        stored transitions (only called before the buffer is full, so
        they occupy rows ``0 .. len - 1`` in order)."""

        def grown(old: np.ndarray | None, dtype: type, row: tuple[int, ...] = ()) -> np.ndarray:
            new = np.empty((rows, *row), dtype=dtype)
            if old is not None:
                new[: self._size] = old[: self._size]
            return new

        self._states = grown(self._states, float, shape)
        self._actions = grown(self._actions, np.int64)
        self._rewards = grown(self._rewards, float)
        self._next_states = grown(self._next_states, float, shape)
        self._dones = grown(self._dones, bool)

    def extend(self, transitions: Iterable[Transition]) -> None:
        for t in transitions:
            self.push(t)

    def _sample_rows(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(self._size, size=min(batch_size, self._size))
        if self._head:
            idx += self._head
            idx[idx >= self._size] -= self._size
        return idx

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        return [self._transition(r) for r in self._sample_rows(batch_size, rng)]

    def _transition(self, row: int) -> Transition:
        return Transition(
            state=self._states[row].copy(),
            action=int(self._actions[row]),
            reward=float(self._rewards[row]),
            next_state=self._next_states[row].copy(),
            done=bool(self._dones[row]),
        )

    def sample_arrays(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniform minibatch as stacked arrays: ``(states, actions,
        rewards, next_states, dones)``.

        Consumes the RNG exactly like :meth:`sample` (one ``integers``
        draw of the same size) and picks the same transitions, so
        swapping one for the other leaves every downstream random stream
        untouched.
        """
        rows = self._sample_rows(batch_size, rng)
        return (
            self._states[rows],
            self._actions[rows],
            self._rewards[rows],
            self._next_states[rows],
            self._dones[rows],
        )

    def clear(self) -> None:
        """Drop every transition (and the arrays holding them)."""
        self._size = 0
        #: Row of the oldest transition (non-zero only once full).
        self._head = 0
        self._states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards: np.ndarray | None = None
        self._next_states: np.ndarray | None = None
        self._dones: np.ndarray | None = None


@dataclass
class _Pending:
    state: np.ndarray
    action: int
    #: Iteration at which the decision was made.
    born_at: int


class DelayedRewardBuffer:
    """Matures rewards ``delay`` iterations after the decision.

    Usage: call :meth:`remember` when the agent acts, then call
    :meth:`mature` every iteration with the current iteration index and a
    reward function; transitions whose delay has elapsed are emitted with
    a reward computed *now* (from the performance trajectory since the
    decision), which is exactly the paper's bias-avoidance scheme.
    """

    def __init__(self, delay: int = 5):
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay
        self._pending: deque[_Pending] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def remember(self, state: np.ndarray, action: int, iteration: int) -> None:
        self._pending.append(_Pending(np.asarray(state, dtype=float), action, iteration))

    def mature(
        self,
        iteration: int,
        reward_fn: Callable[[int, int], float],
        next_state: np.ndarray,
        done: bool = False,
    ) -> list[Transition]:
        """Release transitions whose reward has matured.

        ``reward_fn(born_at, iteration)`` computes the delayed reward for
        a decision made at ``born_at`` as seen from ``iteration``.  On
        ``done``, everything pending matures immediately (episode over).
        """
        out: list[Transition] = []
        next_state = np.asarray(next_state, dtype=float)
        while self._pending and (
            done or iteration - self._pending[0].born_at >= self.delay
        ):
            p = self._pending.popleft()
            out.append(
                Transition(
                    state=p.state,
                    action=p.action,
                    reward=float(reward_fn(p.born_at, iteration)),
                    next_state=next_state,
                    done=done,
                )
            )
        return out

    def clear(self) -> None:
        self._pending.clear()
