"""Config-keyed memoization of stack evaluations.

Tuning runs re-evaluate the same configuration constantly: the GA
re-draws duplicate genomes, elites are re-examined, sweeps revisit the
default, and every experiment starts from the untuned baseline.  The
stack traversal is deterministic given ``(platform, workload, config)``,
so :class:`EvaluationCache` memoizes the *noise-free trace* (see
:class:`~repro.iostack.simulator.StackTrace`) under an LRU policy.  The
cache is storage only: :class:`~repro.tuners.resilience.ResilientEvaluator`
is the one caller that looks traces up, builds the misses, stores them,
replays them with fresh noise and counts and reports all of it.

Caching the trace rather than the finished
:class:`~repro.iostack.simulator.EvaluationResult` is what keeps cached
runs bit-identical to uncached ones: a hit still draws its own noise
factors (consuming the noise stream exactly like a cold evaluation) and
still reports its own noisy bandwidths.  Only the expensive layer-model
traversal is skipped.  The simulated clock is likewise still charged on
hits -- a cache hit saves *our* wall-clock, not the simulated
testbed's, so RoTI and time accounting are unchanged.

The key is ``(platform, workload fingerprint, configuration)``; the
configuration hashes its values, so distinct genomes are distinct keys.  Workload fingerprints digest the full phase
structure (streams, sizes samples, metadata, tier); each cache memoizes
the fingerprint of the last workload it saw, which is the only one
during a tune or a sweep.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

from .cluster import Platform
from .config import StackConfiguration
from .simulator import StackTrace, WorkloadLike

__all__ = ["workload_fingerprint", "EvaluationCache"]


# -- workload fingerprinting -------------------------------------------------------


def _freeze(obj: Any) -> Hashable:
    """Recursively convert phases/streams (dataclasses with ndarray
    fields) into a hashable tuple tree."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(_freeze(getattr(obj, f.name)) for f in dataclasses.fields(obj)),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(o) for o in obj)
    return obj


def workload_fingerprint(workload: WorkloadLike) -> Hashable:
    """A hashable digest of everything the simulator reads from a
    workload: name, job shape and the full phase structure."""
    return (
        workload.name,
        workload.n_procs,
        workload.n_nodes,
        _freeze(tuple(workload.phases)),
    )


# -- the cache ---------------------------------------------------------------------


class EvaluationCache:
    """LRU memo of noise-free stack traces.

    Parameters
    ----------
    maxsize:
        Maximum number of cached traces; least-recently-used entries are
        evicted beyond it.  A 12-parameter tuning run touches a few
        hundred distinct configurations, so the default is generous.

    The cache keeps no counters and emits no events: it outlives a
    tuning run (the CLI shares one with offline training), so
    :meth:`lookup` and :meth:`store` report what happened and the
    evaluator counts and traces it.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, StackTrace] = OrderedDict()
        #: The last workload keyed and its fingerprint.  Holding the
        #: workload keeps its identity valid; one entry is enough
        #: because a tune or a sweep keys a single workload.
        self._fingerprint: tuple[WorkloadLike, Hashable] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookups ---------------------------------------------------------------

    def key_for(
        self, platform: Platform, workload: WorkloadLike, config: StackConfiguration
    ) -> Hashable:
        """The memo key: platform, workload fingerprint, configuration
        (which hashes its values)."""
        memo = self._fingerprint
        if memo is None or memo[0] is not workload:
            memo = self._fingerprint = (workload, workload_fingerprint(workload))
        return (platform, memo[1], config)

    def lookup(
        self, platform: Platform, workload: WorkloadLike, config: StackConfiguration
    ) -> StackTrace | None:
        """The cached trace (a hit, which refreshes its LRU recency), or
        None (a miss)."""
        key = self.key_for(platform, workload, config)
        trace = self._entries.get(key)
        if trace is not None:
            self._entries.move_to_end(key)
        return trace

    def store(
        self,
        platform: Platform,
        workload: WorkloadLike,
        config: StackConfiguration,
        trace: StackTrace,
    ) -> bool:
        """Remember a trace, evicting the least recently used entry
        beyond ``maxsize``; returns whether an entry was evicted."""
        key = self.key_for(platform, workload, config)
        self._entries[key] = trace
        self._entries.move_to_end(key)
        if len(self._entries) <= self.maxsize:
            return False
        self._entries.popitem(last=False)
        return True
