"""Counter-keyed PCG64 streams, seeded in bulk.

The noise and straggler streams key one generator per draw:
``np.random.default_rng((key, k))`` for counter ``k``.  Building that
generator costs about 7.5 µs, nearly all of it in the Python-level
wrappers of :class:`numpy.random.SeedSequence`.  :class:`SeededStreams`
computes the same PCG64 ``(state, inc)`` pairs for a run of counters:
one vectorised pass of SeedSequence's hash (pool size 4, the fixed
constants of ``numpy/random/bit_generator.pyx``), then Python-int
128-bit arithmetic for PCG64's seeding steps.  :func:`first_uniform`
gives a state's first ``random()`` in closed form.  Keys that do not
fit the vectorised layout -- ``key`` over three uint32 words, or a
counter of two words (``k >= 2**32``) -- are seeded through
SeedSequence itself, so every state equals the per-key generator's bit
for bit.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> tuple[int, ...]:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# Call i of SeedSequence's hashmix xors with _A[i] and multiplies by
# _A[i + 1]: calls 0-3 fill the pool, and mixing step ``src`` makes
# calls 4 + 3 * src .. 6 + 3 * src, one per destination row.  Output
# word i of generate_state does the same with _B.
_A = np.array(_hash_constants(_INIT_A, _MULT_A, 16), dtype=np.uint32)[:, None]
_B = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
_A.setflags(write=False)
_B.setflags(write=False)
_MIX_STEPS = tuple(
    (
        src,
        [i for i in range(4) if i != src],
        _A[4 + 3 * src:7 + 3 * src],
        _A[5 + 3 * src:8 + 3 * src],
    )
    for src in range(4)
)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def check_seed(seed: object) -> None:
    """Reject a stream seed that is not a non-negative int (numpy would
    only fail at the first draw, without naming the seed)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")


def _words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, low word first."""
    n = int(n)
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_words(key: int, counters: np.ndarray) -> np.ndarray:
    """``SeedSequence((key, k)).generate_state(4, uint64)`` for each
    ``k`` in ``counters`` (one uint32 word each; ``key`` of at most
    three words), as a ``(len(counters), 4)`` uint64 array."""
    prefix = _words(key)
    pool = np.zeros((4, len(counters)), dtype=np.uint32)
    pool[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    pool[len(prefix)] = counters
    pool ^= _A[:4]
    pool *= _A[1:5]
    pool ^= pool >> 16
    for src, dst, xor, mul in _MIX_STEPS:
        mixed = (pool[src] ^ xor) * mul
        mixed ^= mixed >> 16
        mixed *= _MIX_R
        mixed = pool[dst] * _MIX_L - mixed
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = np.concatenate([pool, pool])
    state ^= _B[:-1]
    state *= _B[1:]
    state ^= state >> 16
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


def _seed_rows(key: int, start: int, n: int) -> np.ndarray:
    """``SeedSequence((key, k)).generate_state(4, uint64)`` for the
    counters ``k`` in ``start .. start + n - 1``, one row each."""
    stop = start + n
    split = min(max(start, 1 << 32), stop) if len(_words(key)) <= 3 else start
    head = np.empty((0, 4), dtype=np.uint64)
    if split > start:
        head = _seed_words(key, np.arange(start, split, dtype=np.uint32))
    return np.vstack([head] + [
        np.random.SeedSequence((key, k)).generate_state(4, np.uint64)
        for k in range(split, stop)
    ])


def first_uniform(state: int, inc: int) -> float:
    """The first ``random()`` of a PCG64 in ``(state, inc)``: one step,
    its XSL-RR output, then numpy's 53-bit double."""
    state = state * _PCG64_MULT + inc & _MASK128
    rot = state >> 122
    word = ((state >> 64) ^ state) & _MASK64
    word = (word >> rot | word << (64 - rot)) & _MASK64
    return (word >> 11) * (1.0 / 9007199254740992.0)


_FIRST_BLOCK = 16
_MAX_BLOCK = 1024


class SeededStreams:
    """PCG64 states of the generators ``default_rng((key, k))``.

    :meth:`states` returns the ``(state, inc)`` pairs of counters
    ``counter .. counter + n - 1``.  Their seeds are computed a block
    ahead; a block that continues the previous one doubles its size (up
    to 1,024 counters), so a stream read forward to ``k`` counters
    seeds at most about ``2k + 16``.  Only the pairs asked for are
    turned into 128-bit states.
    """

    def __init__(self) -> None:
        self._key: int | None = None
        self._start = 0
        self._rows = np.empty((0, 4), dtype=np.uint64)

    def states(self, key: int, counter: int, n: int) -> list[tuple[int, int]]:
        offset = counter - self._start
        size = len(self._rows)
        if key != self._key or offset < 0 or offset + n > size:
            grows = key == self._key and 0 <= offset <= size
            size = max(n, min(2 * size, _MAX_BLOCK) if grows else _FIRST_BLOCK)
            self._key, self._start = key, counter
            self._rows = _seed_rows(key, counter, size)
            offset = 0
        out = []
        for high, low, inc_high, inc_low in self._rows[offset:offset + n].tolist():
            inc = (((inc_high << 64) | inc_low) << 1 | 1) & _MASK128
            out.append(((inc + ((high << 64) | low)) * _PCG64_MULT + inc & _MASK128, inc))
        return out
