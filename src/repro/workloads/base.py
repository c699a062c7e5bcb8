"""Workload abstraction: a concrete application run the simulator can
execute.

A :class:`Workload` is a frozen bundle of job shape (procs/nodes) and
:class:`~repro.iostack.phase.IOPhase` objects.  It satisfies the
simulator's :class:`~repro.iostack.simulator.WorkloadLike` protocol and
supports the two kernel-reduction transforms at the behavioural level:

* :meth:`Workload.loop_reduced` -- keep the leading fraction of the
  iterations of I/O loops (phases tagged with a ``loop`` group), exactly
  what the source-level loop-reduction transform produces when the
  reduced kernel is recompiled and run;
* :meth:`Workload.switched_to_memory` -- retarget all phases at the
  node-local memory tier (I/O path switching).

``extrapolation_factor`` records the multiplier that must be applied to
the reduced run's scalable I/O metrics to estimate the original
application's metrics (the paper multiplies by the loop reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from repro.iostack.phase import IOPhase

__all__ = ["LoopGroup", "Workload"]


@dataclass(frozen=True)
class LoopGroup:
    """A run of phases produced by one source-level loop.

    ``phases`` holds one :class:`IOPhase` per *iteration block*: the
    first block may differ from the steady-state block (file creation,
    coordinate datasets and headers are written on the first pass), so a
    loop of ``n`` iterations is stored as ``[first, steady]`` with
    ``steady`` aggregating the remaining ``n - 1`` iterations.

    Attributes
    ----------
    name:
        Loop label, e.g. ``"dump_loop"``.
    n_iterations:
        True source-level iteration count.
    phases:
        The phases the loop contributes, already aggregated.
    reducible:
        Whether loop reduction may shrink this loop (the paper notes
        loops that are "too small to reduce" are left alone).
    """

    name: str
    n_iterations: int
    phases: tuple[IOPhase, ...]
    reducible: bool = True

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not self.phases:
            raise ValueError("a loop group needs at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))


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
    #: Phases outside any reducible loop (setup, finalise, logging...).
    fixed_phases: tuple[IOPhase, ...] = ()
    #: I/O loops, in program order relative to each other.
    loops: tuple[LoopGroup, ...] = ()
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
        object.__setattr__(self, "fixed_phases", tuple(self.fixed_phases))
        object.__setattr__(self, "loops", tuple(self.loops))
        if not self.fixed_phases and not self.loops:
            raise ValueError("workload has no phases")

    # -- WorkloadLike protocol ---------------------------------------------------

    def phases(self) -> Sequence[IOPhase]:
        """All phases in program order: loop phases first-block order,
        then fixed phases (setup phases are modelled as fixed phases with
        their position implicit -- ordering does not affect totals)."""
        out: list[IOPhase] = list(self.fixed_phases)
        for loop in self.loops:
            out.extend(loop.phases)
        return out

    # -- totals --------------------------------------------------------------------

    @property
    def bytes_written(self) -> int:
        return sum(p.bytes_written for p in self.phases())

    @property
    def bytes_read(self) -> int:
        return sum(p.bytes_read for p in self.phases())

    @property
    def write_ops(self) -> int:
        return sum(p.write_ops for p in self.phases())

    @property
    def read_ops(self) -> int:
        return sum(p.read_ops for p in self.phases())

    @property
    def compute_seconds(self) -> float:
        return sum(p.compute_seconds for p in self.phases())

    @property
    def alpha(self) -> float:
        """Write fraction of transferred bytes (the objective weight)."""
        total = self.bytes_written + self.bytes_read
        return self.bytes_written / total if total else 0.0

    # -- kernel transforms ------------------------------------------------------------

    def loop_reduced(self, fraction: float) -> "Workload":
        """Keep the leading ``ceil(fraction * n)`` iterations of each
        reducible loop.

        Keeping *leading* iterations preserves first-iteration setup cost
        and data locality, per the paper.  The extrapolation factor is
        the nominal ``1 / fraction`` -- the paper multiplies scalable
        metrics "by the loop reductions", which over-estimates when
        ``ceil`` rounds the kept-iteration count up (the effect Figure
        8(c) attributes the reduced kernel's +ops error to).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        new_loops: list[LoopGroup] = []
        any_reduced = False
        for loop in self.loops:
            kept = math.ceil(fraction * loop.n_iterations)
            if not loop.reducible or kept >= loop.n_iterations:
                new_loops.append(loop)  # too small to reduce
                continue
            any_reduced = True
            new_loops.append(_truncate_loop(loop, kept))
        if not any_reduced:
            return self
        return replace(
            self,
            name=f"{self.name}+loopred",
            loops=tuple(new_loops),
            extrapolation_factor=self.extrapolation_factor / fraction,
        )

    def switched_to_memory(self) -> "Workload":
        """Retarget every phase at the node-local memory tier."""
        return replace(
            self,
            name=f"{self.name}+memio",
            fixed_phases=tuple(p.switched_to_memory() for p in self.fixed_phases),
            loops=tuple(
                replace(l, phases=tuple(p.switched_to_memory() for p in l.phases))
                for l in self.loops
            ),
        )

    def without_fixed_phases(self, *names: str) -> "Workload":
        """Drop named fixed phases (the I/O-kernel transform removes
        logging phases whose writes are not HDF5 calls)."""
        kept = tuple(p for p in self.fixed_phases if p.name not in names)
        if not kept and not self.loops:
            raise ValueError("cannot drop every phase")
        return replace(self, fixed_phases=kept)


def _truncate_loop(loop: LoopGroup, kept: int) -> LoopGroup:
    """Keep the leading ``kept`` iterations of a loop group.

    The first phase block covers the first iteration; the steady block
    covers the rest.  Scaling is proportional to the iterations each
    block loses.
    """
    first, *rest = loop.phases
    new_phases: list[IOPhase] = [first]
    remaining = kept - 1
    if rest and remaining > 0:
        steady_iters = loop.n_iterations - 1
        factor = remaining / steady_iters
        new_phases.extend(p.scaled(factor) for p in rest)
    return LoopGroup(
        name=loop.name,
        n_iterations=kept,
        phases=tuple(new_phases),
        reducible=loop.reducible,
    )
