"""Profiling hooks: where does a tuning run's wall-clock go?

Hot sites in the pipeline wrap themselves in
``with maybe_span("simulator.trace"): ...``.  When no profiler is
active, :func:`maybe_span` returns one shared ``nullcontext`` -- no
allocation, no clock read, nothing measurable -- so the hooks can stay
in the hot paths permanently.  ``tunio-tune --profile`` activates a
:class:`Profiler` around the run and prints its :meth:`~Profiler.report`.

Span timings are *wall-clock only*: they never touch the simulated
clock or the RNG streams, so profiled runs produce bit-identical tuning
histories.

Instrumented span names:

==================  ========================================================
span                around
==================  ========================================================
``simulator.trace`` one noise-free traversal of the Lustre/MPI-IO/HDF5 stack
``nn.forward``      one MLP forward pass (agent inference and training)
``nn.backward``     one MLP backward pass + optimizer step
``journal.fsync``   one journal record write+flush+fsync
==================  ========================================================
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Iterator

__all__ = [
    "SpanStats",
    "Profiler",
    "activate",
    "deactivate",
    "active_profiler",
    "maybe_span",
]


@dataclass
class SpanStats:
    """Accumulated timings of one span name."""

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = field(default=float("inf"))
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
        }


class Profiler:
    """Accumulates :class:`SpanStats` per span name."""

    def __init__(self) -> None:
        self._spans: dict[str, SpanStats] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = SpanStats()
            stats.add(time.perf_counter() - start)

    def record(self, name: str, seconds: float) -> None:
        """Record an externally measured duration under ``name``."""
        stats = self._spans.get(name)
        if stats is None:
            stats = self._spans[name] = SpanStats()
        stats.add(seconds)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-span timing dicts, sorted by total time descending."""
        ordered = sorted(
            self._spans.items(), key=lambda item: item[1].total_seconds, reverse=True
        )
        return {name: stats.as_dict() for name, stats in ordered}

    def report(self) -> str:
        """A fixed-width table of span timings for the CLI."""
        if not self._spans:
            return "profile: no spans recorded"
        header = (
            f"{'span':<18} {'count':>8} {'total_ms':>10} "
            f"{'mean_us':>10} {'max_us':>10}"
        )
        lines = ["profile:", header]
        for name, stats in self.snapshot().items():
            lines.append(
                f"{name:<18} {stats['count']:>8.0f} "
                f"{1e3 * stats['total_seconds']:>10.2f} "
                f"{1e6 * stats['mean_seconds']:>10.2f} "
                f"{1e6 * stats['max_seconds']:>10.2f}"
            )
        return "\n".join(lines)


#: The active profiler, or None (module-level: one profile per process).
_ACTIVE: Profiler | None = None

#: One shared inert context manager handed out for every span while no
#: profiler is active.
_NULL_SPAN: ContextManager[Any] = nullcontext()


def activate(profiler: Profiler | None = None) -> Profiler:
    """Install ``profiler`` (or a fresh one) as the active profiler."""
    global _ACTIVE
    _ACTIVE = profiler if profiler is not None else Profiler()
    return _ACTIVE


def deactivate() -> Profiler | None:
    """Remove and return the active profiler."""
    global _ACTIVE
    profiler, _ACTIVE = _ACTIVE, None
    return profiler


def active_profiler() -> Profiler | None:
    return _ACTIVE


def maybe_span(name: str) -> ContextManager[Any]:
    """A timing span when a profiler is active, else a shared no-op."""
    profiler = _ACTIVE
    if profiler is None:
        return _NULL_SPAN
    return profiler.span(name)
