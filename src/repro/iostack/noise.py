"""Platform volatility model.

Shared production systems like Cori show run-to-run I/O variability from
other jobs' traffic; the paper mitigates it by running each configuration
three times and averaging bandwidths.  :class:`NoiseModel` reproduces
that variability as a multiplicative lognormal factor on I/O time plus
occasional contention spikes, deterministically derived from a seed and a
run counter so experiments are reproducible.

Sequence contract
-----------------
A model is a *stateful stream*: factor ``k`` of the stream depends only
on ``(seed, k)``, and the internal run counter records how many factors
have been consumed so far.  Every sampling API advances the counter by
exactly the number of factors it returns -- :meth:`sample_factors(n)
<sample_factors>` consumes the counter identically to ``n`` calls of
:meth:`sample_factor`, so a vectorized consumer and a loop observe the
same sequence.  Because the counter is mutable shared state, handing one
model instance to two experiments interleaves their streams; give each
experiment its own model (a different ``seed`` for an independent
stream), and use :meth:`seek` to replay from a recorded position.

Factor ``k`` is what ``np.random.default_rng((seed, k))`` draws: a
lognormal, then the spike's uniform.  Rather than build that generator
per factor, the model computes the generators' seeded states in bulk,
a block ahead of the counter (:mod:`repro.iostack._streams`), and sets
each on one scratch generator it owns before drawing; the values are
the per-counter generator's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._streams import SeededStreams, check_seed

__all__ = ["NoiseModel"]


@dataclass
class NoiseModel:
    """Deterministic, seeded run-to-run I/O time perturbation.

    Parameters
    ----------
    sigma:
        Standard deviation of the lognormal jitter on I/O time (0.08
        means roughly +-8% typical variation).
    spike_probability:
        Chance that a run lands during heavy external traffic.
    spike_slowdown:
        Multiplier applied to I/O time during a spike.
    seed:
        Base seed; every sampled factor also folds in the run counter, so
        repeated calls form a reproducible sequence.
    """

    sigma: float = 0.12
    spike_probability: float = 0.06
    spike_slowdown: float = 2.0
    seed: int = 0
    _counter: int = field(default=0, repr=False)
    _streams: SeededStreams = field(
        default_factory=SeededStreams, init=False, repr=False, compare=False
    )
    _rng: np.random.Generator = field(
        default_factory=lambda: np.random.Generator(np.random.PCG64(0)),
        init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not 0.0 <= self.spike_probability < 1.0:
            raise ValueError("spike_probability must be in [0, 1)")
        if self.spike_slowdown < 1.0:
            raise ValueError("spike_slowdown must be >= 1")

    @property
    def deterministic(self) -> bool:
        """True when every factor is exactly 1.0 (quiet model)."""
        return self.sigma == 0 and self.spike_probability == 0

    def sample_factor(self) -> float:
        """Next multiplicative factor on I/O time (>= ~0.7, unbounded
        above during spikes): the one-element case of
        :meth:`sample_factors`."""
        return float(self.sample_factors(1)[0])

    def sample_factors(self, n: int) -> np.ndarray:
        """The next ``n`` factors as one array.

        Consumes the run counter identically to ``n`` calls of
        :meth:`sample_factor`: factor ``i`` of the result is derived from
        ``(seed, counter + i)``.  Quiet models short-circuit to
        ``ones(n)``; noisy models set each counter's seeded state,
        computed in bulk, on the model's one scratch generator and draw
        from it.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        counter = self._counter
        self._counter += n
        if self.deterministic:
            return np.ones(n)
        rng = self._rng
        bitgen = rng.bit_generator
        sigma, spike_probability = self.sigma, self.spike_probability
        out = np.empty(n)
        for i, (state, inc) in enumerate(self._streams.states(self.seed, counter, n)):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            factor = rng.lognormal(0.0, sigma) if sigma > 0 else 1.0
            if spike_probability > 0 and rng.random() < spike_probability:
                factor *= self.spike_slowdown
            out[i] = factor
        return out

    # -- stream position --------------------------------------------------------

    @property
    def position(self) -> int:
        """Number of factors consumed so far (the run counter)."""
        return self._counter

    def seek(self, position: int) -> None:
        """Set the stream position.  Factor ``k`` depends only on
        ``(seed, k)``, so seeking fully determines the remaining
        sequence -- this is how a resumed tuning run fast-forwards past
        journaled generations without re-drawing their factors."""
        if position < 0:
            raise ValueError("position must be >= 0")
        self._counter = position

    @classmethod
    def quiet(cls) -> "NoiseModel":
        """A noiseless model for deterministic unit tests."""
        return cls(sigma=0.0, spike_probability=0.0)
