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
configuration hashes its parameter space and values, so spaces and
genomes are distinguished.  Workload fingerprints digest the full phase
structure (streams, sizes samples, metadata, tier); each cache memoizes
the fingerprint of the last workload it saw, which is the only one
during a tune or a sweep.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from .cluster import Platform
from .config import StackConfiguration
from .simulator import StackTrace, WorkloadLike

__all__ = [
    "workload_fingerprint",
    "EvaluationStats",
    "EvaluationCache",
]


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


# -- statistics --------------------------------------------------------------------


@dataclass
class EvaluationStats:
    """The counter record of one tuning run, surfaced on
    :class:`~repro.tuners.base.TuningResult` and in the CLI report.

    The run's :class:`~repro.tuners.resilience.ResilientEvaluator` owns
    it and counts where it branches: evaluations, cache lookups that hit
    or miss, stores that evicted, traces built and replayed, retries,
    timeouts and quarantines.  The tuner fills in the fault, guardrail
    and ``prewarm_*`` fields as the run ends.
    """

    #: Configuration evaluations performed (baseline included).
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Full stack traversals performed by the simulator.
    traces_built: int = 0
    #: Reports derived from a stored trace (``repeats`` per evaluation).
    trace_replays: int = 0
    #: Evaluation attempts repeated after a retryable failure.
    retries: int = 0
    #: Evaluations that exceeded the simulated per-evaluation timeout.
    timeouts: int = 0
    #: Configurations that exhausted their retries and were assigned the
    #: worst-case fitness instead of crashing the generation.
    quarantined: int = 0
    #: Faults the plan injected (transient errors + stragglers).
    faults_injected: int = 0
    #: Agent guardrail trips recorded during the run (weight corruption,
    #: training divergence, degenerate policies); details live on
    #: :attr:`~repro.tuners.base.TuningResult.guardrail_trips`.
    guardrail_trips: int = 0
    #: Journal-resume cache warming, counted apart from the run's own
    #: lookups so :attr:`cache_hit_rate` matches the uninterrupted run
    #: (warming the cache is bookkeeping, not tuning behaviour).
    prewarm_lookups: int = 0
    prewarm_hits: int = 0
    prewarm_builds: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hit rate of the run's own lookups; cache pre-warming on
        journal resume is excluded (see the ``prewarm_*`` fields)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def trace_reuse(self) -> int:
        """Replays that reused an existing trace instead of traversing
        the stack -- the simulations the fastpath avoided."""
        return max(0, self.trace_replays - self.traces_built)

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (trace ``run_end`` events and the
        ``--metrics-out`` snapshot)."""
        return dataclasses.asdict(self)


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
        (which hashes its space and values)."""
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
