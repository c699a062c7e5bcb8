"""Config-keyed memoization of stack evaluations.

Tuning runs re-evaluate the same configuration constantly: the GA
re-draws duplicate genomes, elites are re-examined, sweeps revisit the
default, and every experiment starts from the untuned baseline.  The
stack traversal is deterministic given ``(platform, workload, config)``,
so :class:`EvaluationCache` memoizes the *noise-free trace* (see
:class:`~repro.iostack.simulator.StackTrace`) under an LRU policy and
replays cached traces with fresh noise.

Caching the trace rather than the finished
:class:`~repro.iostack.simulator.EvaluationResult` is what keeps cached
runs bit-identical to uncached ones: a hit still draws its own noise
factors (consuming the noise stream exactly like a cold evaluation) and
still reports its own noisy bandwidths, so tuning histories do not
depend on whether the cache is enabled.  Only the expensive layer-model
traversal is skipped.  The simulated clock is likewise still charged by
the caller on hits -- a cache hit saves *our* wall-clock, not the
simulated testbed's, so RoTI and time accounting are unchanged.

The key is ``(platform, workload fingerprint, configuration)``; the
configuration hashes its parameter space and values, so spaces and
genomes are distinguished.  Workload fingerprints digest the full phase
structure (streams, sizes samples, metadata, tier) and are memoized per
workload object.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from .cluster import Platform
from .config import StackConfiguration
from .simulator import EvaluationResult, IOStackSimulator, StackTrace, WorkloadLike

__all__ = [
    "workload_fingerprint",
    "CacheStats",
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


#: id(workload) -> (weakref to the workload, fingerprint).  The weakref
#: guards against id reuse after garbage collection.
_FINGERPRINTS: dict[int, tuple[weakref.ref, Hashable]] = {}


def workload_fingerprint(workload: WorkloadLike) -> Hashable:
    """A hashable digest of everything the simulator reads from a
    workload: name, job shape and the full phase structure.

    Memoized per live workload object (phases are immutable), so
    repeated evaluations of the same workload pay the structural walk
    once.
    """
    key = id(workload)
    cached = _FINGERPRINTS.get(key)
    if cached is not None and cached[0]() is workload:
        return cached[1]
    fingerprint = (
        workload.name,
        workload.n_procs,
        workload.n_nodes,
        _freeze(tuple(workload.phases())),
    )
    try:
        _FINGERPRINTS[key] = (weakref.ref(workload), fingerprint)
    except TypeError:  # object does not support weakrefs; skip memoization
        pass
    return fingerprint


# -- statistics --------------------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class EvaluationStats:
    """Fastpath accounting for one tuning run, surfaced on
    :class:`~repro.tuners.base.TuningResult` and in the CLI report."""

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
    #: Journal-resume cache warming, accounted separately from the run's
    #: own lookups so :attr:`cache_hit_rate` matches the uninterrupted
    #: run (warming the cache is bookkeeping, not tuning behaviour).
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
    def degraded(self) -> bool:
        """True when any resilience machinery engaged during the run."""
        return bool(
            self.retries
            or self.timeouts
            or self.quarantined
            or self.faults_injected
        )

    @property
    def trace_reuse(self) -> int:
        """Replays that reused an existing trace instead of traversing
        the stack -- the simulations the fastpath avoided."""
        return max(0, self.trace_replays - self.traces_built)

    def describe(self) -> str:
        """One-line human summary for reports."""
        return (
            f"{self.evaluations} evaluations, "
            f"cache hit rate {100.0 * self.cache_hit_rate:.1f}% "
            f"({self.cache_hits}/{self.cache_hits + self.cache_misses}), "
            f"trace reuse {self.trace_reuse}"
        )

    def describe_resilience(self) -> str:
        """One-line summary of the run's failure handling."""
        return (
            f"{self.faults_injected} faults injected, "
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.quarantined} quarantined"
        )

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
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, StackTrace] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional trace recorder (duck-typed; see
        #: :mod:`repro.observability.recorder`).  None by default so the
        #: cache has no observability import and untraced runs pay one
        #: attribute read per lookup.
        self.recorder = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    @property
    def hit_rate(self) -> float:
        return self.stats().hit_rate

    # -- lookups ---------------------------------------------------------------

    @staticmethod
    def key_for(
        platform: Platform, workload: WorkloadLike, config: StackConfiguration
    ) -> Hashable:
        """The memo key: platform, workload fingerprint, configuration
        (which hashes its space and values)."""
        return (platform, workload_fingerprint(workload), config)

    def lookup(
        self, platform: Platform, workload: WorkloadLike, config: StackConfiguration
    ) -> StackTrace | None:
        """The cached trace, or None.  Counts a hit or a miss and
        refreshes LRU recency on hits."""
        key = self.key_for(platform, workload, config)
        trace = self._entries.get(key)
        recorder = self.recorder
        if trace is None:
            self.misses += 1
            if recorder is not None and recorder.enabled:
                recorder.emit("cache", op="miss")
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        if recorder is not None and recorder.enabled:
            recorder.emit("cache", op="hit")
        return trace

    def store(
        self,
        platform: Platform,
        workload: WorkloadLike,
        config: StackConfiguration,
        trace: StackTrace,
    ) -> None:
        """Remember a trace, evicting the least recently used entry
        beyond ``maxsize``."""
        key = self.key_for(platform, workload, config)
        self._entries[key] = trace
        self._entries.move_to_end(key)
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.emit("cache", op="store")
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            if recorder is not None and recorder.enabled:
                recorder.emit("cache", op="evict")

    def get_trace(
        self,
        simulator: IOStackSimulator,
        workload: WorkloadLike,
        config: StackConfiguration,
    ) -> StackTrace:
        """The trace for ``(simulator.platform, workload, config)``,
        built on a miss and remembered under LRU."""
        trace = self.lookup(simulator.platform, workload, config)
        if trace is None:
            trace = simulator.trace(workload, config)
            self.store(simulator.platform, workload, config, trace)
        return trace

    def evaluate(
        self,
        simulator: IOStackSimulator,
        workload: WorkloadLike,
        config: StackConfiguration,
        repeats: int = 3,
    ) -> EvaluationResult:
        """Drop-in replacement for :meth:`IOStackSimulator.evaluate`.

        Bit-identical to the uncached call for any noise model: hits and
        misses alike draw ``repeats`` fresh factors from the simulator's
        noise stream and replay them over the (cached or fresh) trace.
        """
        trace = self.get_trace(simulator, workload, config)
        return simulator.evaluate_trace(trace, repeats=repeats)
