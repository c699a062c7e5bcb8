"""Metric values, names and the summary statistics the benchmark reports."""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "Metric", "Median", "check_name", "fastest_total", "median_of", "median_total", "quartile_spread",
]

_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_name(name: str) -> str:
    """``name`` if it is a valid metric name (``[A-Za-z0-9_.-]+``, at
    most 64 characters, starting with a letter or digit); else raise."""
    if not (
        isinstance(name, str)
        and len(name) <= 64
        and _NAME.fullmatch(name)
        and name[0].isalnum()
    ):
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass(frozen=True)
class Median:
    """A median together with the number of samples it was taken over."""

    value: float
    samples: int

    def __str__(self) -> str:
        return f"{self.value:.6g} (n={self.samples})"


def median_of(values: Sequence[float]) -> Median:
    """The median of ``values`` and their count; raises on no samples
    so an empty measurement never reads as zero."""
    if not values:
        raise ValueError("median of no samples")
    return Median(float(statistics.median(values)), len(values))


def fastest_total(steps: Mapping[str, Sequence[float]]) -> float:
    """The sum over steps of each step's fastest sample.

    The host's speed switches between a fast and a slow state every
    second or so; a step of a second or less usually runs once in the
    fast state over a run's rounds, while a whole round rarely does.
    Raises on a step without samples."""
    if not steps or not all(steps.values()):
        raise ValueError("fastest total of no samples")
    return float(sum(min(samples) for samples in steps.values()))


def median_total(steps: Mapping[str, Sequence[float]]) -> float:
    """The sum over steps of each step's median sample.  Raises on a
    step without samples."""
    if not steps or not all(steps.values()):
        raise ValueError("median total of no samples")
    return float(sum(statistics.median(samples) for samples in steps.values()))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit."""

    name: str
    value: float
    unit: str
    note: str = ""

    def __post_init__(self) -> None:
        check_name(self.name)
        if not math.isfinite(self.value):
            raise ValueError(f"metric {self.name} is not finite: {self.value!r}")

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit}
