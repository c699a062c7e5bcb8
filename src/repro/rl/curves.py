"""Synthetic tuning-performance curves for offline early-stopper training.

The paper trains the Early Stopping agent by emulating tuning runs with
"generated log curves, as tuning performance follows a log curve ...
The log curves generated for training include noise in the form of
randomized shifts down the curve to account for tuning cases where the
wrong parameter is chosen briefly before adjusting.  Each simulated
application has a log curve with different characteristics such as
initial value, growth rate, etc."

:class:`LogCurveGenerator` produces exactly these: monotone-in-trend
logarithmic best-so-far curves with randomised initial value, gain,
growth rate, plateau onset and transient downward excursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LogCurve", "LogCurveGenerator"]


@dataclass(frozen=True)
class LogCurve:
    """One emulated tuning run.

    ``values[i]`` is the best ``perf`` observed up to iteration ``i``
    (normalised units); ``ideal_stop`` is the iteration after which less
    than ``tail_tolerance`` of the total gain remains.
    """

    values: np.ndarray
    initial: float
    final: float
    ideal_stop: int

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("a curve needs at least two points")
        if not 0 <= self.ideal_stop < self.values.size:
            raise ValueError("ideal_stop out of range")


@dataclass(frozen=True)
class LogCurveGenerator:
    """Samples randomised log-shaped tuning curves.

    Attributes control the sampling ranges; all are in normalised
    performance units (1.0 ~ a typical tuned single-node bandwidth).
    """

    n_iterations: int = 50
    initial_range: tuple[float, float] = (0.05, 0.3)
    gain_range: tuple[float, float] = (0.3, 1.2)
    #: Growth-rate factor: higher means the knee arrives earlier.
    rate_range: tuple[float, float] = (0.5, 10.0)
    #: Fraction of curves drawn as exponential saturation (hard plateau
    #: after the knee) rather than a pure log shape; real GA runs show
    #: both.
    saturating_fraction: float = 0.35
    #: Fraction of curves with a *staged* shape: an early plateau broken
    #: by a later surge (a GA escaping a local optimum).  These teach the
    #: early stopper not to mistake a low-performance plateau for
    #: convergence -- the trap the heuristic stopper falls into.
    staged_fraction: float = 0.2
    #: Iteration range where the second stage of a staged curve begins.
    surge_onset_range: tuple[int, int] = (6, 28)
    #: Time constant range (iterations) for saturating curves.
    tau_range: tuple[float, float] = (2.0, 12.0)
    #: Measurement noise on each iteration's best-so-far value.
    noise_sigma: float = 0.01
    #: Probability per iteration of a transient downward shift (wrong
    #: parameter subset chosen briefly).
    dip_probability: float = 0.08
    dip_depth_range: tuple[float, float] = (0.05, 0.3)
    dip_length_range: tuple[int, int] = (1, 3)
    #: Fraction of total gain considered negligible for the ideal stop.
    tail_tolerance: float = 0.02

    def __post_init__(self) -> None:
        if self.n_iterations < 5:
            raise ValueError("n_iterations must be >= 5")
        if not 0.0 <= self.dip_probability <= 1.0:
            raise ValueError("dip_probability must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    def sample(self, rng: np.random.Generator) -> LogCurve:
        """Draw one curve."""
        n = self.n_iterations
        initial = rng.uniform(*self.initial_range)
        gain = rng.uniform(*self.gain_range)
        rate = rng.uniform(*self.rate_range)

        t = np.arange(n, dtype=float)
        kind = rng.random()
        if kind < self.staged_fraction:
            tau1 = rng.uniform(2.0, 6.0)
            tau2 = rng.uniform(*self.tau_range)
            split = rng.uniform(0.25, 0.65)
            onset = int(rng.integers(self.surge_onset_range[0], self.surge_onset_range[1] + 1))
            stage1 = split * gain * (1.0 - np.exp(-t / tau1))
            stage2 = np.where(
                t >= onset,
                (1.0 - split) * gain * (1.0 - np.exp(-(t - onset) / tau2)),
                0.0,
            )
            trend = initial + stage1 + stage2
        elif kind < self.staged_fraction + self.saturating_fraction:
            tau = rng.uniform(*self.tau_range)
            trend = initial + gain * (1.0 - np.exp(-t / tau))
        else:
            trend = initial + gain * np.log1p(rate * t) / np.log1p(rate * (n - 1))

        # Transient dips: the tuner briefly follows a bad subset.
        values = trend.copy()
        i = 1
        while i < n:
            if rng.random() < self.dip_probability:
                depth = rng.uniform(*self.dip_depth_range) * gain
                length = int(rng.integers(self.dip_length_range[0], self.dip_length_range[1] + 1))
                values[i : i + length] -= depth
                i += length
            i += 1

        if self.noise_sigma > 0:
            values += rng.normal(0.0, self.noise_sigma * gain, size=n)

        # Best-so-far is monotone except for the reporting convention
        # choice; the paper plots best perf per iteration, so enforce
        # monotonicity after dips (elitism keeps the best configuration).
        values = np.maximum.accumulate(np.maximum(values, 1e-6))

        final = float(values[-1])
        threshold = final - self.tail_tolerance * (final - float(values[0]))
        reached = np.flatnonzero(values >= threshold)
        ideal_stop = int(reached[0]) if reached.size else n - 1
        return LogCurve(values=values, initial=float(values[0]), final=final, ideal_stop=ideal_stop)
