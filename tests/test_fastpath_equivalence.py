"""The evaluation fastpath is bit-identical to the legacy slow path.

The trace/replay split, the evaluation cache, the batched GA evaluation
and the lean per-run timing replay are pure performance work: none of
them may change a single bit of any result.  This module pins that down
against *reference implementations* -- verbatim copies of the original
single-pass ``run()``/``evaluate()`` loop that traversed the full stack
once per repeat, and of the report-building replay the lean one
replaced -- for the paper's three representative kernels and two
workloads that read, under both seeded noise and the quiet model, and
under injected faults.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from repro.iostack import (
    DegradedWindow,
    FaultPlan,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.iostack.clock import SimulatedClock
from repro.iostack.hdf5 import apply_hdf5, apply_hdf5_metadata
from repro.iostack.lustre import serve_lustre, serve_metadata
from repro.iostack.posix import serve_memory, serve_memory_metadata
from repro.iostack.simulator import EvaluationResult
from repro.iostack.mpiio import apply_mpiio
from repro.iostack.units import bytes_per_sec_to_mb_per_sec
from repro.tuners import HSTuner, NoStop
from repro.tuners.journal import JournalWriter, load_journal
from repro.workloads import bdcats, flash, hacc, ior, vpic
from tests.iostack.test_faults import legacy_replay_slowdown
from tests.iostack.test_noise import legacy_sample_factor

# The paper's three checkpoint kernels write only; IOR (read back) and
# BD-CATS (read-heavy) pin the read side of every result too.
WORKLOADS = {"vpic": vpic, "flash": flash, "hacc": hacc, "ior": ior, "bdcats": bdcats}
NOISES = {
    "seeded": lambda: NoiseModel(seed=17),
    "quiet": NoiseModel.quiet,
}


@dataclass(frozen=True)
class PhaseRecord:
    """Per-phase slice of a :class:`DarshanReport`."""

    name: str
    bytes_written: int
    bytes_read: int
    write_ops: int
    read_ops: int
    io_seconds: float
    meta_seconds: float
    compute_seconds: float


@dataclass
class DarshanReport:
    """The per-run report the legacy loops build: application- and
    POSIX-level byte and op counters plus timing."""

    app_bytes_written: int = 0
    app_bytes_read: int = 0
    app_write_ops: int = 0
    app_read_ops: int = 0
    posix_bytes_written: int = 0
    posix_bytes_read: int = 0
    posix_write_ops: int = 0
    posix_read_ops: int = 0
    meta_ops: int = 0
    write_seconds: float = 0.0
    read_seconds: float = 0.0
    meta_seconds: float = 0.0
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0
    phases: list[PhaseRecord] = field(default_factory=list)

    @property
    def io_seconds(self) -> float:
        return self.write_seconds + self.read_seconds

    @property
    def runtime_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.io_seconds
            + self.meta_seconds
            + self.overhead_seconds
        )

    @property
    def write_bandwidth_mbps(self) -> float:
        if self.app_bytes_written == 0 or self.write_seconds <= 0:
            return 0.0
        return bytes_per_sec_to_mb_per_sec(self.app_bytes_written / self.write_seconds)

    @property
    def read_bandwidth_mbps(self) -> float:
        if self.app_bytes_read == 0 or self.read_seconds <= 0:
            return 0.0
        return bytes_per_sec_to_mb_per_sec(self.app_bytes_read / self.read_seconds)

    @property
    def alpha(self) -> float:
        total = self.app_bytes_written + self.app_bytes_read
        if total == 0:
            return 0.0
        return self.app_bytes_written / total

    def record_phase(self, record: PhaseRecord) -> None:
        self.phases.append(record)


def timing(report):
    """What the lean :meth:`IOStackSimulator.replay` returns for a run."""
    return report.write_seconds, report.read_seconds, report.runtime_seconds


class LegacySimulator(IOStackSimulator):
    """The pre-fastpath simulator: one full stack traversal per run.

    ``run`` below is the original implementation copied verbatim, so the
    equivalence tests compare the fastpath against the exact arithmetic
    it replaced rather than against another formulation of it.
    ``replay`` and ``evaluate_trace_with_factors`` are verbatim copies of
    the report-building replay that the lean per-run timing replaced.
    Its noise factors and straggler draws come from verbatim copies of
    the per-counter generators that bulk seeding replaced.  The HDF5
    layer is called as its two halves; only the metadata half has an
    overhead (the data half's was a constant 0.0, and ``0.0 + x == x``
    bit for bit).
    """

    def run(self, workload, config):
        platform = self.platform.scaled_to(workload.n_nodes)
        hdf5_values = config.layer("hdf5")
        mpiio_values = config.layer("mpiio")
        lustre_values = config.layer("lustre")
        striping_unit = int(lustre_values["striping_unit"])

        report = DarshanReport()
        noise_factor = legacy_sample_factor(self.noise)

        for phase in workload.phases:
            phase_io = 0.0
            phase_meta = 0.0

            report.app_bytes_written += phase.bytes_written
            report.app_bytes_read += phase.bytes_read
            report.app_write_ops += phase.write_ops
            report.app_read_ops += phase.read_ops
            if phase.metadata is not None:
                report.meta_ops += phase.metadata.total_ops

            hdf5_out = apply_hdf5(phase, hdf5_values)
            metadata, meta_overhead = apply_hdf5_metadata(
                phase.metadata, hdf5_values, platform
            )
            report.overhead_seconds += meta_overhead

            for stream in hdf5_out.data:
                if stream.nodes == 0:
                    stream = replace(stream, nodes=platform.n_nodes)
                if phase.tier == "memory":
                    service_seconds = serve_memory(stream, platform).seconds
                    final = stream
                else:
                    mpiio_out = apply_mpiio(
                        stream, mpiio_values, platform, striping_unit
                    )
                    final = mpiio_out.stream
                    service_seconds = (
                        serve_lustre(final, lustre_values, platform).seconds
                        + mpiio_out.overhead_seconds
                    )

                service_seconds *= noise_factor
                phase_io += service_seconds
                if stream.op == "write":
                    report.write_seconds += service_seconds
                    report.posix_bytes_written += final.total_bytes
                    report.posix_write_ops += final.total_ops
                else:
                    report.read_seconds += service_seconds
                    report.posix_bytes_read += final.total_bytes
                    report.posix_read_ops += final.total_ops

            if phase.tier == "memory":
                meta_seconds = serve_memory_metadata(metadata, platform)
            else:
                meta_seconds = serve_metadata(metadata, platform)
            meta_seconds *= noise_factor
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

    def evaluate(self, workload, config, repeats=3):
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        write_bws = []
        read_bws = []
        report = DarshanReport()
        for _ in range(repeats):
            report = self.run(workload, config)
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
        )

    def replay(self, trace, noise_factor):
        if self.faults is not None:
            slowdown = legacy_replay_slowdown(self.faults)
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

    def evaluate_trace_with_factors(self, trace, factors):
        repeats = len(factors)
        write_bws = []
        read_bws = []
        report = DarshanReport()
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
        )


def sample_configs(workload_name, n=4):
    rng = np.random.default_rng(abs(hash_name(workload_name)) % 1000)
    return [StackConfiguration.default()] + [
        StackConfiguration.random(rng) for _ in range(n - 1)
    ]


def hash_name(name):
    # stable across processes (unlike str hash)
    return sum(ord(c) * 31**i for i, c in enumerate(name))


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_run_matches_reference(workload_name, noise_name):
    workload = WORKLOADS[workload_name]()
    fast = IOStackSimulator(cori(workload.n_nodes), NOISES[noise_name]())
    legacy = LegacySimulator(cori(workload.n_nodes), NOISES[noise_name]())
    for config in sample_configs(workload_name):
        for _ in range(2):  # both draws of the shared noise stream
            run = fast.replay(fast.trace(workload, config), fast.noise.sample_factor())
            assert run == timing(legacy.run(workload, config))
    assert fast.noise._counter == legacy.noise._counter


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_evaluate_matches_reference(workload_name, noise_name):
    workload = WORKLOADS[workload_name]()
    fast = IOStackSimulator(cori(workload.n_nodes), NOISES[noise_name]())
    legacy = LegacySimulator(cori(workload.n_nodes), NOISES[noise_name]())
    for config in sample_configs(workload_name):
        a = fast.evaluate(workload, config, repeats=3)
        b = legacy.evaluate(workload, config, repeats=3)
        assert a.perf_mbps == b.perf_mbps
        assert a.write_bandwidth_mbps == b.write_bandwidth_mbps
        assert a.read_bandwidth_mbps == b.read_bandwidth_mbps
        assert a.alpha == b.alpha
        assert a.charged_seconds == b.charged_seconds
    assert fast.noise._counter == legacy.noise._counter


@pytest.mark.parametrize("straggler_rate", [0.3, 1.0 - 1e-12])
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_faulted_replay_matches_reference(workload_name, straggler_rate):
    """Under stragglers and a degraded window the lean replay gives the
    report-building replay's perf, bandwidths, alpha and charge bit for
    bit, and draws one slowdown per replayed run."""
    workload = WORKLOADS[workload_name]()

    def faulted(cls):
        plan = FaultPlan(
            seed=11,
            straggler_rate=straggler_rate,
            degraded_windows=(DegradedWindow(0.5, 2.0, 3.0),),
        )
        clock = SimulatedClock()
        plan.attach_clock(clock)
        return cls(cori(workload.n_nodes), NoiseModel(seed=17), plan), clock

    fast, fast_clock = faulted(IOStackSimulator)
    legacy, legacy_clock = faulted(LegacySimulator)
    factors = NoiseModel(seed=5).sample_factors(3)
    degraded = 0
    for config in sample_configs(workload_name):
        trace = fast.trace(workload, config)
        assert trace == legacy.trace(workload, config)
        replays = fast.faults._replay_counter
        stragglers = fast.faults.stragglers_injected
        a = fast.evaluate_trace_with_factors(trace, factors)
        b = legacy.evaluate_trace_with_factors(trace, factors)
        assert a.perf_mbps == b.perf_mbps
        assert a.write_bandwidth_mbps == b.write_bandwidth_mbps
        assert a.read_bandwidth_mbps == b.read_bandwidth_mbps
        assert a.alpha == b.alpha
        assert a.charged_seconds == b.charged_seconds
        assert fast.faults._replay_counter == replays + len(factors)
        assert fast.faults.get_state() == legacy.faults.get_state()
        if straggler_rate > 0.5:
            assert fast.faults.stragglers_injected == stragglers + len(factors)
        degraded += fast.faults.degraded_windows[0].covers(fast_clock.elapsed_minutes)
        for clock in (fast_clock, legacy_clock):
            clock.charge_evaluation(40.0)
    # The clock walked into and out of the degraded window.
    assert 0 < degraded < len(sample_configs(workload_name))
    assert 0 < fast.faults.stragglers_injected


def journaled_tune(workload, noise, path):
    """A 5-iteration HSTuner run on the fastpath, journaled to ``path``."""
    sim = IOStackSimulator(cori(workload.n_nodes), noise())
    tuner = HSTuner(sim, stopper=NoStop(), rng=np.random.default_rng(7))
    with JournalWriter(str(path), header={}) as writer:
        tuner.attach_journal(writer)
        result = tuner.tune(workload, max_iterations=5)
    return result, load_journal(str(path))


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_tuning_history_matches_legacy_pipeline(workload_name, noise_name, tmp_path):
    """The tuner's evaluations reproduce, bit for bit, the legacy
    per-configuration, per-repeat pipeline: re-evaluating the baseline
    and every generation's dispatched genomes, in order, with
    ``LegacySimulator.evaluate`` on a fresh simulator with the same
    seed gives the journaled perfs, clock charges and noise positions."""
    workload = WORKLOADS[workload_name]()
    noise = NOISES[noise_name]
    result, journal = journaled_tune(workload, noise, tmp_path / "run.journal")

    legacy = LegacySimulator(cori(workload.n_nodes), noise())
    runs = []
    legacy_run = legacy.run

    def counted_run(workload, config):
        runs.append(config)
        return legacy_run(workload, config)

    legacy.run = counted_run
    baseline = legacy.evaluate(workload, StackConfiguration.default(), repeats=3)
    assert baseline.perf_mbps == journal.baseline.perf == result.baseline_perf
    assert legacy.noise.position == journal.baseline.noise_position

    clock = SimulatedClock()
    assert len(journal.generations) == len(result.history) == 5
    for record, iteration in zip(journal.generations, result.history):
        perfs = []
        for genome in record.dispatched:
            config = StackConfiguration.from_genome(genome)
            evaluation = legacy.evaluate(workload, config, repeats=3)
            perfs.append(evaluation.perf_mbps)
            clock.charge_evaluation(evaluation.charged_seconds)
        assert tuple(perfs) == record.perfs
        assert clock.elapsed_seconds == record.clock_seconds
        assert clock.n_evaluations == record.clock_evaluations
        assert clock.elapsed_minutes == iteration.elapsed_minutes
        assert legacy.noise.position == record.noise_position
    assert result.best_perf == max(
        max(record.perfs) for record in journal.generations
    )
    assert result.eval_stats.evaluations == result.total_evaluations + 1
    assert len(runs) == 3 * (result.total_evaluations + 1)
