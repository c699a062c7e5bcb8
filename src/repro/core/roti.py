"""Return on Tuning Investment (RoTI).

The paper's cost/benefit metric::

    RoTI(t) = (perf_achieved(t) - perf_achieved(0)) / t

where ``perf_achieved(t)`` is the best ``perf`` (MB/s) reached by time
``t`` (minutes of tuning overhead) and ``perf_achieved(0)`` is the
default configuration's perf.  An RoTI of 40 means every minute spent
tuning bought 40 MB/s of application bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tuners.base import TuningResult

__all__ = ["roti", "RoTICurve", "roti_curve"]


def roti(perf_at_t: float, perf_at_0: float, minutes: float) -> float:
    """Point RoTI in (MB/s) per minute of tuning overhead."""
    if minutes <= 0:
        raise ValueError("minutes must be positive")
    return (perf_at_t - perf_at_0) / minutes


@dataclass(frozen=True)
class RoTICurve:
    """RoTI as a function of tuning time, derived from a tuning run."""

    minutes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.minutes.shape != self.values.shape or self.minutes.ndim != 1:
            raise ValueError("minutes and values must be matching 1-D arrays")
        if self.minutes.size == 0:
            raise ValueError("empty curve")
        if np.any(np.diff(self.minutes) < 0):
            raise ValueError("minutes must be non-decreasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(
                "RoTI values must be finite; a NaN/inf curve means the "
                "baseline perf or an iteration perf was corrupt"
            )

    @property
    def peak(self) -> float:
        """Maximum RoTI over the run."""
        return float(self.values.max())

    @property
    def peak_minutes(self) -> float:
        """Tuning time at which RoTI peaked."""
        return float(self.minutes[int(self.values.argmax())])

    @property
    def final(self) -> float:
        """RoTI at the end of the run (what the user actually got)."""
        return float(self.values[-1])



def roti_curve(result: TuningResult) -> RoTICurve:
    """RoTI per iteration of a tuning run (skipping zero-time points).

    Fails fast when ``baseline_perf`` is NaN or otherwise non-finite:
    silently propagating it would produce an all-NaN curve whose
    ``peak``/``peak_minutes`` are garbage (``argmax`` of NaNs).
    """
    if not np.isfinite(result.baseline_perf):
        raise ValueError(
            f"baseline_perf is {result.baseline_perf!r}; the RoTI curve "
            f"needs a finite baseline measurement (was the run "
            f"reconstructed from an incomplete trace?)"
        )
    minutes = result.minutes_series()
    perfs = result.perf_series()
    mask = minutes > 0
    if not mask.any():
        raise ValueError("tuning result has no time-charged iterations")
    minutes, perfs = minutes[mask], perfs[mask]
    values = (perfs - result.baseline_perf) / minutes
    return RoTICurve(minutes=minutes, values=values)
