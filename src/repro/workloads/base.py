"""Workload abstraction: a concrete application run the simulator can
execute.

A :class:`Workload` is a frozen bundle of job shape (procs/nodes) and a
flat tuple of :class:`~repro.iostack.phase.IOPhase` objects.  It
satisfies the simulator's :class:`~repro.iostack.simulator.WorkloadLike`
protocol.  A loop of ``n`` iterations is stored as a ``first`` block and
a ``steady`` block aggregating the remaining ``n - 1`` iterations (file
creation, coordinate datasets and headers are written on the first
pass).

Kernel transforms (loop reduction, I/O path switching) are source
rewrites in :mod:`repro.discovery.reducers`; the rewritten source is
interpreted back into a :class:`Workload` by
:func:`repro.discovery.modelgen.workload_from_source`.
``extrapolation_factor`` records the multiplier that must be applied to
such a reduced run's scalable I/O metrics to estimate the original
application's metrics (the paper multiplies by the loop reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iostack.phase import IOPhase

__all__ = ["Workload"]


@dataclass(frozen=True)
class Workload:
    """A runnable application workload.

    Build one either from a factory in this package (``vpic()``,
    ``flash()``...) or from source analysis
    (:func:`repro.discovery.modelgen.workload_from_source`).
    """

    name: str
    n_procs: int
    n_nodes: int
    #: Every phase, in the order the simulator replays them.  The order
    #: is part of the output: replay accumulates per-phase times in it.
    phases: tuple[IOPhase, ...]
    #: Multiplier mapping this run's scalable I/O metrics back to the
    #: original application (1.0 unless loop-reduced).
    extrapolation_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.n_procs < 1 or self.n_nodes < 1:
            raise ValueError("job shape must be positive")
        if self.n_procs < self.n_nodes:
            raise ValueError("need at least one process per node")
        if self.extrapolation_factor < 1.0:
            raise ValueError("extrapolation_factor must be >= 1")
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ValueError("workload has no phases")

    # -- totals --------------------------------------------------------------------

    @property
    def bytes_written(self) -> int:
        return sum(p.bytes_written for p in self.phases)

    @property
    def bytes_read(self) -> int:
        return sum(p.bytes_read for p in self.phases)

    @property
    def write_ops(self) -> int:
        return sum(p.write_ops for p in self.phases)

    @property
    def read_ops(self) -> int:
        return sum(p.read_ops for p in self.phases)

    @property
    def compute_seconds(self) -> float:
        return sum(p.compute_seconds for p in self.phases)

    @property
    def alpha(self) -> float:
        """Write fraction of transferred bytes (the objective weight)."""
        total = self.bytes_written + self.bytes_read
        return self.bytes_written / total if total else 0.0
