"""The layered I/O stack simulator.

:class:`IOStackSimulator` composes the layer models: application phases
pass through HDF5 (:mod:`.hdf5`), data streams then through MPI-IO
(:mod:`.mpiio`), and the surviving traffic is served by Lustre
(:mod:`.lustre`) or the node-local memory tier (:mod:`.posix`).  Each run
yields a :class:`~repro.iostack.darshan.DarshanReport`; the simulated
runtime feeds the tuning clock, and the bandwidths feed the ``perf``
objective.

This is the reproduction's stand-in for the paper's Cori testbed: all of
TunIO consumes only ``(configuration -> bandwidth, runtime)``
observations, so a simulator that reproduces the qualitative parameter
response surface exercises the identical tuning code paths.

Evaluation fastpath
-------------------
The stack models are fully deterministic given ``(workload, config)``;
only the :class:`~repro.iostack.noise.NoiseModel` factor varies between
repeat runs, and it enters as a single multiplier on every service time.
:meth:`IOStackSimulator.trace` therefore runs the layer models *once* and
records the noise-free per-stream service-time breakdown as a
:class:`StackTrace`; :meth:`IOStackSimulator.replay` turns a trace plus
one noise factor into a :class:`~repro.iostack.darshan.DarshanReport` by
repeating exactly the arithmetic of the original single-pass loop
(multiply each stored base time by the factor, accumulate in the same
order), so the replayed report is bit-identical to a fresh simulation.
:meth:`evaluate` builds one trace and replays it ``repeats`` times --
about ``repeats``x cheaper than the legacy per-repeat loop while
consuming the noise stream identically.

Layer memo
----------
Every layer model is a pure function of its inputs, and a GA child
differs from its parents in a few genes, so most of the stack a trace
walks was already walked by an earlier trace of the same tune.
:meth:`IOStackSimulator.trace` looks each layer up in a
:class:`_LayerMemo` before calling it:

* HDF5 by the phase object and the hdf5 value slice; the entry also
  holds the phase's streams after the ``nodes`` fill.
* MPI-IO by the stream's :meth:`~repro.iostack.requests.RequestStream.
  memo_key`, the mpiio slice and ``striping_unit``; a hit returns the
  same output objects.
* Lustre by the output stream's key and the lustre slice.

Every key also pins the node count.  Metadata and the memory tier are
not memoized.  A stream key holds its size array by identity, so each
entry keeps the phase or stream it was keyed by alive.
:meth:`IOStackSimulator.memo_scope` shares one memo between the traces
built inside it (HSTuner opens one per ``tune``/``resume``); outside a
scope each trace gets a memo of its own.  Results are bit-identical
either way.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .cluster import Platform, cori
from .config import StackConfiguration
from .darshan import DarshanReport, PhaseRecord
from .faults import FaultPlan
from .hdf5 import HDF5Result, apply_hdf5
from .lustre import serve_lustre, serve_metadata
from .mpiio import MPIIOResult, apply_mpiio
from .noise import NoiseModel
from .phase import IOPhase
from .posix import serve_memory, serve_memory_metadata
from .requests import RequestStream

__all__ = [
    "WorkloadLike",
    "EvaluationResult",
    "StreamTrace",
    "PhaseTrace",
    "StackTrace",
    "IOStackSimulator",
]


@runtime_checkable
class WorkloadLike(Protocol):
    """What the simulator needs from a workload: identity, job shape and
    a phase list.  The concrete implementations live in
    :mod:`repro.workloads`; I/O kernels generated by Application I/O
    Discovery satisfy the same protocol."""

    @property
    def name(self) -> str: ...

    @property
    def n_procs(self) -> int: ...

    @property
    def n_nodes(self) -> int: ...

    def phases(self) -> Sequence[IOPhase]: ...


@dataclass(frozen=True)
class EvaluationResult:
    """Averaged outcome of evaluating one configuration.

    Bandwidths are averaged over ``repeats`` noisy runs (the paper runs
    each configuration three times); ``charged_seconds`` is a single
    run's duration, matching the paper's time-accounting rule.
    """

    perf_mbps: float
    write_bandwidth_mbps: float
    read_bandwidth_mbps: float
    alpha: float
    charged_seconds: float
    report: DarshanReport

    def __post_init__(self) -> None:
        if self.charged_seconds < 0:
            raise ValueError("charged_seconds must be >= 0")


# -- noise-free traces -------------------------------------------------------------


@dataclass(frozen=True)
class StreamTrace:
    """One request stream's noise-free service record.

    ``base_seconds`` is the service time *before* the run's noise factor
    is applied (for Lustre streams it already includes the MPI-IO shuffle
    overhead, exactly as the single-pass loop sums them pre-noise);
    ``total_bytes``/``total_ops`` describe the transformed POSIX-level
    stream that reached the storage tier.
    """

    op: str
    base_seconds: float
    total_bytes: int
    total_ops: int


@dataclass(frozen=True)
class PhaseTrace:
    """Noise-free per-phase breakdown captured by one stack traversal."""

    name: str
    bytes_written: int
    bytes_read: int
    write_ops: int
    read_ops: int
    meta_ops: int
    overhead_seconds: float
    base_meta_seconds: float
    compute_seconds: float
    streams: tuple[StreamTrace, ...]


@dataclass(frozen=True)
class StackTrace:
    """The deterministic part of one run: everything except noise.

    Replaying a trace with factor ``f`` reproduces bit-identically the
    report a full simulation would produce for a run whose noise factor
    is ``f``; see :meth:`IOStackSimulator.replay`.
    """

    workload_name: str
    phases: tuple[PhaseTrace, ...]


class _LayerMemo:
    """Layer results shared by the traces of one scope (see the module
    docstring).  Each entry starts with the object its key holds by
    identity, which keeps that id from being reused."""

    __slots__ = ("hdf5", "mpiio", "lustre")

    def __init__(self) -> None:
        self.hdf5: dict[
            tuple, tuple[IOPhase, HDF5Result, tuple[RequestStream, ...]]
        ] = {}
        self.mpiio: dict[tuple, tuple[RequestStream, MPIIOResult]] = {}
        self.lustre: dict[tuple, tuple[RequestStream, float]] = {}


class IOStackSimulator:
    """Simulates application runs against a configured I/O stack.

    Parameters
    ----------
    platform:
        Hardware description; its node count is overridden per workload
        (a 4-node job on Cori sees 4 nodes' worth of clients).
    noise:
        Run-to-run volatility model; defaults to Cori-like noise.  Use
        :meth:`NoiseModel.quiet` for deterministic tests.
    faults:
        Optional :class:`~repro.iostack.faults.FaultPlan` injecting
        transient trace failures, latency stragglers and degraded
        bandwidth windows.  ``None`` (and an inactive plan) leaves every
        result bit-identical to a fault-free simulator.

    The simulator keeps no counters: it outlives any one tuning run, so
    a run's traces built and replayed are counted by the run's
    :class:`~repro.tuners.resilience.ResilientEvaluator`.  The only
    state it holds for a run is the layer memo of an open
    :meth:`memo_scope`.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        noise: NoiseModel | None = None,
        faults: FaultPlan | None = None,
    ):
        self.platform = platform if platform is not None else cori()
        self.noise = noise if noise is not None else NoiseModel()
        self.faults = faults
        self._memo: _LayerMemo | None = None

    @contextmanager
    def memo_scope(self) -> Iterator[None]:
        """Share layer results between the traces built inside the block.

        The memo is fresh on entry and released on exit, also when the
        block raises; an enclosing scope's memo is restored.  Results are
        bit-identical with or without a scope.
        """
        outer = self._memo
        self._memo = _LayerMemo()
        try:
            yield
        finally:
            self._memo = outer

    # -- deterministic trace ----------------------------------------------------

    def trace(self, workload: WorkloadLike, config: StackConfiguration) -> StackTrace:
        """Run the layer models once and record the noise-free service
        breakdown.  Consumes no noise.

        With a fault plan attached, the attempt may raise
        :class:`~repro.iostack.faults.TransientFaultError` or
        :class:`~repro.iostack.faults.PoisonedConfigError` *before* any
        work is done -- a faulted attempt never yields a partial trace.
        """
        if self.faults is not None:
            self.faults.check_trace(config)
        # Simulators are normally built for the job's node count; scaling
        # only on a mismatch spares a dataclass copy on every trace.
        platform = self.platform
        if platform.n_nodes != workload.n_nodes:
            platform = platform.scaled_to(workload.n_nodes)
        n_nodes = platform.n_nodes
        hdf5_values = config.layer("hdf5")
        mpiio_values = config.layer("mpiio")
        lustre_values = config.layer("lustre")
        striping_unit = int(lustre_values["striping_unit"])
        memo = self._memo if self._memo is not None else _LayerMemo()
        # A scope may span workloads of different sizes, so every key pins
        # the node count (the rest of the platform is the simulator's).
        hdf5_key = (n_nodes, tuple(hdf5_values.items()))
        mpiio_key = (n_nodes, striping_unit, tuple(mpiio_values.items()))
        lustre_key = (n_nodes, tuple(lustre_values.items()))

        phase_traces: list[PhaseTrace] = []
        for phase in workload.phases():
            phase_key = (id(phase), hdf5_key)
            hdf5_entry = memo.hdf5.get(phase_key)
            if hdf5_entry is None:
                hdf5_run = apply_hdf5(phase, hdf5_values, platform)
                # The job's processes span all its nodes; without an
                # explicit hint, dense packing would under-count the
                # client-side parallelism of sparse layouts.
                data = tuple(
                    stream
                    if stream.nodes
                    else stream.with_sizes(stream.sizes, stream.total_ops, nodes=n_nodes)
                    for stream in hdf5_run.data
                )
                hdf5_entry = memo.hdf5[phase_key] = (phase, hdf5_run, data)
            _, hdf5_out, data = hdf5_entry

            streams: list[StreamTrace] = []
            for stream in data:
                if phase.tier == "memory":
                    base_seconds = serve_memory(stream, platform).seconds
                    final = stream
                else:
                    stream_key = (stream.memo_key(), mpiio_key)
                    mpiio_entry = memo.mpiio.get(stream_key)
                    if mpiio_entry is None:
                        mpiio_entry = memo.mpiio[stream_key] = (
                            stream,
                            apply_mpiio(stream, mpiio_values, platform, striping_unit),
                        )
                    mpiio_out = mpiio_entry[1]
                    final = mpiio_out.stream
                    final_key = (final.memo_key(), lustre_key)
                    lustre_entry = memo.lustre.get(final_key)
                    if lustre_entry is None:
                        lustre_entry = memo.lustre[final_key] = (
                            final,
                            serve_lustre(final, lustre_values, platform).seconds,
                        )
                    # The shuffle happens inside the write/read call, so it
                    # is part of the measured transfer time.
                    base_seconds = lustre_entry[1] + mpiio_out.overhead_seconds
                streams.append(
                    StreamTrace(
                        op=stream.op,
                        base_seconds=base_seconds,
                        total_bytes=final.total_bytes,
                        total_ops=final.total_ops,
                    )
                )

            if phase.tier == "memory":
                base_meta = serve_memory_metadata(hdf5_out.metadata, platform)
            else:
                base_meta = serve_metadata(hdf5_out.metadata, platform)

            phase_traces.append(
                PhaseTrace(
                    name=phase.name,
                    bytes_written=phase.bytes_written,
                    bytes_read=phase.bytes_read,
                    write_ops=phase.write_ops,
                    read_ops=phase.read_ops,
                    meta_ops=phase.metadata.total_ops if phase.metadata is not None else 0,
                    overhead_seconds=hdf5_out.overhead_seconds,
                    base_meta_seconds=base_meta,
                    compute_seconds=phase.compute_seconds,
                    streams=tuple(streams),
                )
            )

        return StackTrace(workload_name=workload.name, phases=tuple(phase_traces))

    def replay(self, trace: StackTrace, noise_factor: float) -> DarshanReport:
        """Apply one run's noise factor to a stored trace.

        Performs the multiply-then-accumulate steps in exactly the order
        of the original single-pass loop, so the result is bit-identical
        to simulating the run from scratch with the same factor.

        A fault plan folds its per-run slowdown (stragglers, degraded
        windows) into the factor; when nothing fires the factor is
        untouched and the replay stays bit-identical.
        """
        if self.faults is not None:
            slowdown = self.faults.replay_slowdown()
            if slowdown != 1.0:
                noise_factor = noise_factor * slowdown
        report = DarshanReport()
        for phase in trace.phases:
            phase_io = 0.0
            phase_meta = 0.0

            report.app_bytes_written += phase.bytes_written
            report.app_bytes_read += phase.bytes_read
            report.app_write_ops += phase.write_ops
            report.app_read_ops += phase.read_ops
            report.meta_ops += phase.meta_ops
            report.overhead_seconds += phase.overhead_seconds

            for stream in phase.streams:
                service_seconds = stream.base_seconds * noise_factor
                phase_io += service_seconds
                if stream.op == "write":
                    report.write_seconds += service_seconds
                    report.posix_bytes_written += stream.total_bytes
                    report.posix_write_ops += stream.total_ops
                else:
                    report.read_seconds += service_seconds
                    report.posix_bytes_read += stream.total_bytes
                    report.posix_read_ops += stream.total_ops

            meta_seconds = phase.base_meta_seconds * noise_factor
            phase_meta += meta_seconds
            report.meta_seconds += meta_seconds
            report.compute_seconds += phase.compute_seconds

            report.record_phase(
                PhaseRecord(
                    name=phase.name,
                    bytes_written=phase.bytes_written,
                    bytes_read=phase.bytes_read,
                    write_ops=phase.write_ops,
                    read_ops=phase.read_ops,
                    io_seconds=phase_io,
                    meta_seconds=phase_meta,
                    compute_seconds=phase.compute_seconds,
                )
            )

        return report

    # -- single run ---------------------------------------------------------------

    def run(self, workload: WorkloadLike, config: StackConfiguration) -> DarshanReport:
        """Simulate one run of ``workload`` under ``config``."""
        return self.replay(self.trace(workload, config), self.noise.sample_factor())

    # -- averaged evaluation ----------------------------------------------------------

    def evaluate(
        self,
        workload: WorkloadLike,
        config: StackConfiguration,
        repeats: int = 3,
    ) -> EvaluationResult:
        """Evaluate a configuration the way the paper does: ``repeats``
        runs, bandwidths averaged, a single run's time charged.

        The stack is traversed once and the per-run noise factors are
        replayed over the stored trace (see the module docstring); the
        result is bit-identical to ``repeats`` independent :meth:`run`
        calls, including noise-counter consumption.

        Returns the paper's objective ``perf = (1-a)*BW_r + a*BW_w`` in
        MB/s alongside the component bandwidths and the last run's
        report.
        """
        trace = self.trace(workload, config)
        return self.evaluate_trace(trace, repeats=repeats)

    def evaluate_trace(self, trace: StackTrace, repeats: int = 3) -> EvaluationResult:
        """Evaluate a pre-built trace; noise factors are drawn from this
        simulator's noise stream exactly as :meth:`evaluate` would."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        factors = self.noise.sample_factors(repeats)
        return self.evaluate_trace_with_factors(trace, factors)

    def evaluate_trace_with_factors(
        self, trace: StackTrace, factors: np.ndarray | Sequence[float]
    ) -> EvaluationResult:
        """Evaluate a trace under externally supplied noise factors.

        This is the batch-evaluation entry point: callers pre-draw one
        factor slice per configuration (in evaluation order) so traces
        can be built out of order or in parallel without perturbing the
        noise stream.  Every factor must be finite and positive.
        """
        repeats = len(factors)
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        for i, factor in enumerate(factors):
            if not 0.0 < factor < math.inf:
                raise ValueError(
                    f"noise factor {i} must be finite and positive, got {float(factor)!r}"
                )
        write_bws: list[float] = []
        read_bws: list[float] = []
        report = DarshanReport()  # reassigned below; keeps type checkers happy
        for factor in factors:
            report = self.replay(trace, float(factor))
            write_bws.append(report.write_bandwidth_mbps)
            read_bws.append(report.read_bandwidth_mbps)
        write_bw = sum(write_bws) / repeats
        read_bw = sum(read_bws) / repeats
        alpha = report.alpha
        perf = (1.0 - alpha) * read_bw + alpha * write_bw
        return EvaluationResult(
            perf_mbps=perf,
            write_bandwidth_mbps=write_bw,
            read_bandwidth_mbps=read_bw,
            alpha=alpha,
            charged_seconds=report.runtime_seconds,
            report=report,
        )
