"""The memo of one tuning run: stack traces and the layer results under them.

Tuning runs re-evaluate the same configuration constantly: the GA
re-draws duplicate genomes, elites are re-examined, and every run starts
from the untuned baseline.  A GA child also differs from its parents in
a few genes, so most of the stack a new trace walks was already walked
by an earlier trace of the run.  :class:`EvaluationCache` memoizes both:

* **Traces.**  The noise-free :class:`~repro.iostack.simulator.StackTrace`
  of each configuration, keyed ``(id(workload), config)``.  This table is
  storage only: :class:`~repro.tuners.resilience.ResilientEvaluator` is
  the one caller that looks traces up, builds the misses, stores them,
  replays them with fresh noise and counts and reports all of it.
* **Layer results.**  The tables
  :meth:`~repro.iostack.simulator.IOStackSimulator.trace` reads and fills
  when it is handed the memo: the two HDF5 halves, MPI-IO with its
  interned collective samples, and Lustre with its RPC passes (see the
  simulator's module docstring for their keys).

Caching the trace rather than the finished
:class:`~repro.iostack.simulator.EvaluationResult` is what keeps cached
runs bit-identical to uncached ones: a hit still draws its own noise
factors (consuming the noise stream exactly like a cold evaluation) and
still reports its own noisy bandwidths.  Only the layer-model traversal
is skipped.  The simulated clock is likewise still charged on hits -- a
cache hit saves *our* wall-clock, not the simulated testbed's, so RoTI
and time accounting are unchanged.

Every key holds its workload, phase, stream or sample by identity, and
every entry holds the object its key names, which keeps that id from
being reused.  A content-equal workload built separately is a different
key: a miss, never a false hit.  The simulator's platform is not in any
key; instead a memo is tied to the first platform it serves and refuses
another (:meth:`EvaluationCache.bind`).  A run's memo lives as long as
the run: :class:`~repro.tuners.hstuner.HSTuner` empties it
(:meth:`EvaluationCache.clear`) when a ``tune`` or ``resume`` ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .cluster import Platform
from .config import StackConfiguration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mpiio import MPIIOResult
    from .phase import IOPhase
    from .requests import RequestStream
    from .simulator import StackTrace, WorkloadLike

__all__ = ["EvaluationCache"]


class EvaluationCache:
    """The memo of one tuning run (see the module docstring).

    The cache keeps no counters and emits no events: :meth:`lookup`
    reports whether it hit, and the evaluator counts and traces it.
    """

    def __init__(self) -> None:
        #: The platform this memo serves (None until first bound).
        self.platform: Platform | None = None
        #: Traces: the workload and its trace under the configuration.
        self.traces: dict[
            tuple[int, StackConfiguration], tuple[WorkloadLike, StackTrace]
        ] = {}
        #: HDF5 data half: the phase and its streams after the ``nodes``
        #: fill.
        self.hdf5_data: dict[tuple, tuple[IOPhase, tuple[RequestStream, ...]]] = {}
        #: HDF5 metadata half: the phase, the metadata overhead and the
        #: served metadata seconds.
        self.hdf5_metadata: dict[tuple, tuple[IOPhase, float, float]] = {}
        self.mpiio: dict[tuple, tuple[RequestStream, MPIIOResult]] = {}
        #: Collective rebuild samples by ``(length, size)`` (the key
        #: holds no id; the value is the shared array).
        self.samples: dict[tuple[int, float], np.ndarray] = {}
        self.lustre: dict[tuple, tuple[RequestStream, float]] = {}
        #: Lustre RPC passes: the sample, RPCs per request and mean RPC
        #: bytes.
        self.rpc_passes: dict[tuple, tuple[np.ndarray, float, float]] = {}

    def __len__(self) -> int:
        """The number of stored traces."""
        return len(self.traces)

    def bind(self, platform: Platform) -> None:
        """Tie the memo to ``platform``: an empty memo takes it, and a
        memo tied to a different platform refuses it, since none of its
        keys name the platform."""
        bound = self.platform
        if bound is None:
            self.platform = platform
        elif platform is not bound and platform != bound:
            raise ValueError(
                f"this memo serves platform {bound.name!r} with {bound.n_nodes} "
                f"nodes; it cannot also serve {platform.name!r} with "
                f"{platform.n_nodes} nodes"
            )

    def clear(self) -> None:
        """Forget every entry and the platform."""
        self.platform = None
        for table in (
            self.traces,
            self.hdf5_data,
            self.hdf5_metadata,
            self.mpiio,
            self.samples,
            self.lustre,
            self.rpc_passes,
        ):
            table.clear()

    def lookup(
        self, workload: WorkloadLike, config: StackConfiguration
    ) -> StackTrace | None:
        """The stored trace of ``config`` on ``workload`` (a hit), or
        None (a miss)."""
        entry = self.traces.get((id(workload), config))
        return entry[1] if entry is not None else None

    def store(
        self, workload: WorkloadLike, config: StackConfiguration, trace: StackTrace
    ) -> None:
        """Remember ``config``'s trace on ``workload``."""
        self.traces[(id(workload), config)] = (workload, trace)
