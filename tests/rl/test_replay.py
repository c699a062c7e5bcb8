"""Replay buffers and the 5-iteration delayed-reward mechanism."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import DelayedRewardBuffer, ReplayBuffer, Transition


def tr(reward=0.0):
    s = np.zeros(2)
    return Transition(s, 0, reward, s, False)


def test_replay_fifo_capacity():
    buf = ReplayBuffer(capacity=3)
    for i in range(5):
        buf.push(tr(reward=float(i)))
    assert len(buf) == 3
    rewards = {t.reward for t in buf}
    assert rewards == {2.0, 3.0, 4.0}


def test_replay_sampling(rng):
    buf = ReplayBuffer()
    buf.extend(tr(float(i)) for i in range(10))
    batch = buf.sample(4, rng)
    assert len(batch) == 4
    big = buf.sample(100, rng)
    assert len(big) == 10


def test_replay_validation(rng):
    buf = ReplayBuffer()
    with pytest.raises(ValueError):
        buf.sample(1, rng)
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0)
    buf.push(tr())
    with pytest.raises(ValueError):
        buf.sample(0, rng)
    buf.clear()
    assert len(buf) == 0


def test_replay_rejects_mismatched_state_shapes():
    buf = ReplayBuffer(capacity=4)
    buf.push(Transition(np.zeros(2), 0, 0.0, np.zeros(2), False))
    for state, next_state in [(np.zeros(3), np.zeros(3)), (np.zeros(2), np.float64(1.0))]:
        with pytest.raises(ValueError):
            buf.push(Transition(state, 0, 0.0, next_state, False))
    assert len(buf) == 1


# -- the ring arrays against the plain deque they replace --------------------


class DequeReplay:
    """Reference semantics: a ``deque(maxlen=capacity)`` sampled by one
    ``rng.integers`` draw of indices into it."""

    def __init__(self, capacity):
        self.buf = deque(maxlen=capacity)

    def sample(self, batch_size, rng):
        idx = rng.integers(len(self.buf), size=min(batch_size, len(self.buf)))
        return [self.buf[int(i)] for i in idx]


def same_transition(a, b):
    return (
        np.array_equal(a.state, b.state)
        and a.action == b.action
        and a.reward == b.reward
        and np.array_equal(a.next_state, b.next_state)
        and a.done == b.done
    )


def make_transition(rng, dim):
    return Transition(
        rng.normal(size=dim),
        int(rng.integers(5)),
        float(rng.normal()),
        rng.normal(size=dim),
        bool(rng.random() < 0.2),
    )


def run_against_reference(capacity, dim, ops, seed):
    data = np.random.default_rng(seed)
    buf, ref = ReplayBuffer(capacity), DequeReplay(capacity)
    rng_buf, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for kind, n in ops:
        if kind == "push":
            for _ in range(n):
                t = make_transition(data, dim)
                buf.push(t)
                ref.buf.append(t)
        elif kind == "clear":
            buf.clear()
            ref.buf.clear()
        elif not ref.buf:
            with pytest.raises(ValueError):
                buf.sample(n, rng_buf)
            with pytest.raises(ValueError):
                buf.sample_arrays(n, rng_buf)
        elif kind == "sample":
            got, want = buf.sample(n, rng_buf), ref.sample(n, rng_ref)
            assert len(got) == len(want)
            assert all(same_transition(g, w) for g, w in zip(got, want))
        else:
            states, actions, rewards, next_states, dones = buf.sample_arrays(n, rng_buf)
            want = ref.sample(n, rng_ref)
            assert np.array_equal(states, np.stack([t.state for t in want]))
            assert np.array_equal(actions, np.array([t.action for t in want]))
            assert np.array_equal(rewards, np.array([t.reward for t in want]))
            assert np.array_equal(next_states, np.stack([t.next_state for t in want]))
            assert np.array_equal(dones, np.array([t.done for t in want]))
            assert actions.dtype == np.int64 and dones.dtype == bool
            assert states.dtype == rewards.dtype == np.float64
        assert rng_buf.bit_generator.state == rng_ref.bit_generator.state
        assert len(buf) == len(ref.buf)
        assert all(same_transition(g, w) for g, w in zip(buf, ref.buf))


@pytest.mark.parametrize("capacity", [1, 3, 64, 130])
def test_ring_buffer_matches_deque_well_past_wraparound(capacity):
    pushes = [("push", capacity // 2 + 1)] * 10  # five times round the ring
    samples = [("sample", 7), ("arrays", 64), ("arrays", 3 * capacity)]
    ops = [op for push in pushes for op in (push, *samples)]
    ops = ops + [("clear", 0), ("arrays", 4)] + ops
    run_against_reference(capacity, dim=5, ops=ops, seed=capacity)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from([1, 3, 64, 100, 130]),
    dim=st.integers(1, 4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["push", "push", "push", "sample", "arrays", "clear"]),
            st.integers(1, 90),
        ),
        max_size=30,
    ),
    seed=st.integers(0, 2**31),
)
def test_ring_buffer_matches_deque_property(capacity, dim, ops, seed):
    run_against_reference(capacity, dim, ops, seed)


def test_delayed_rewards_mature_after_delay():
    buf = DelayedRewardBuffer(delay=5)
    s = np.zeros(1)
    buf.remember(s, 0, iteration=0)
    buf.remember(s, 1, iteration=1)

    matured_early = buf.mature(4, lambda b, n: 99.0, s)
    assert matured_early == []

    matured = buf.mature(5, lambda born, now: float(now - born), s)
    assert len(matured) == 1
    assert matured[0].action == 0
    assert matured[0].reward == 5.0

    matured = buf.mature(6, lambda born, now: float(now - born), s)
    assert len(matured) == 1 and matured[0].action == 1


def test_done_flushes_everything():
    buf = DelayedRewardBuffer(delay=5)
    s = np.zeros(1)
    for t in range(3):
        buf.remember(s, t, iteration=t)
    matured = buf.mature(3, lambda b, n: 1.0, s, done=True)
    assert len(matured) == 3
    assert all(t.done for t in matured)
    assert len(buf) == 0


def test_delay_zero_matures_immediately():
    buf = DelayedRewardBuffer(delay=0)
    s = np.zeros(1)
    buf.remember(s, 0, iteration=7)
    assert len(buf.mature(7, lambda b, n: 1.0, s)) == 1


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        DelayedRewardBuffer(delay=-1)
