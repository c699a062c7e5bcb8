"""Simulated wall-clock used to account tuning overhead.

The paper reports tuning cost in *minutes of tuning overhead*: the time
spent running the application (or its I/O kernel) at each configuration
evaluation, plus fixed per-evaluation setup cost (job launch, configuration
injection).  Nothing in the reproduction uses real time; every evaluation
advances a :class:`SimulatedClock` by the simulated runtime of the run.

The clock also supports *charging policies* that mirror the paper's
methodology: each application run is performed ``runs_per_eval`` times and
bandwidths averaged, but "the time cost of running the application is not
accumulated across runs" -- i.e. only one run's duration is charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .units import seconds_to_minutes


@dataclass
class SimulatedClock:
    """Accumulates simulated seconds.

    Parameters
    ----------
    setup_overhead:
        Fixed cost in seconds charged per evaluation (job launch, config
        injection, monitor attach).  Defaults to 30 s, a typical batch
        job-step launch latency.
    """

    setup_overhead: float = 30.0
    _elapsed: float = field(default=0.0, repr=False)
    _n_evaluations: int = field(default=0, repr=False)

    @property
    def elapsed_seconds(self) -> float:
        """Total simulated seconds accumulated so far."""
        return self._elapsed

    @property
    def elapsed_minutes(self) -> float:
        """Total simulated minutes accumulated so far."""
        return seconds_to_minutes(self._elapsed)

    @property
    def n_evaluations(self) -> int:
        """Number of charged evaluations."""
        return self._n_evaluations

    def advance(self, seconds: float) -> None:
        """Advance the clock by a raw duration (no setup overhead)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} s")
        self._elapsed += seconds

    def charge_evaluation(self, run_seconds: float) -> None:
        """Charge one configuration evaluation: setup overhead plus one
        run's duration (repeat runs are averaged for bandwidth but not
        charged, per the paper's methodology)."""
        if run_seconds < 0:
            raise ValueError(f"negative run duration {run_seconds!r}")
        self._elapsed += self.setup_overhead + run_seconds
        self._n_evaluations += 1

    def reset(self) -> None:
        """Zero the clock (new tuning session)."""
        self._elapsed = 0.0
        self._n_evaluations = 0

    def restore(self, elapsed_seconds: float, n_evaluations: int) -> None:
        """Set the clock to a journaled state (resume).  ``elapsed_seconds``
        is restored bit-exactly (JSON round-trips Python floats), so a
        resumed run's time accounting matches the uninterrupted one."""
        if elapsed_seconds < 0 or n_evaluations < 0:
            raise ValueError("clock state must be non-negative")
        self._elapsed = elapsed_seconds
        self._n_evaluations = n_evaluations
