"""The evaluation fastpath is bit-identical to the legacy slow path.

The trace/replay split, the evaluation cache and the batched GA
evaluation are pure performance work: none of them may change a single
bit of any result.  This module pins that down against a *reference
implementation* -- a verbatim copy of the original single-pass
``run()``/``evaluate()`` loop that traversed the full stack once per
repeat -- and against the fastpath's own off switches, for the paper's
three representative kernels under both seeded noise and the quiet
model.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.iostack import (
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.iostack.darshan import DarshanReport, PhaseRecord
from repro.iostack.hdf5 import apply_hdf5
from repro.iostack.lustre import serve_lustre, serve_metadata
from repro.iostack.posix import serve_memory, serve_memory_metadata
from repro.iostack.simulator import EvaluationResult
from repro.iostack.mpiio import apply_mpiio
from repro.tuners import HSTuner, NoStop
from repro.workloads import flash, hacc, vpic

WORKLOADS = {"vpic": vpic, "flash": flash, "hacc": hacc}
NOISES = {
    "seeded": lambda: NoiseModel(seed=17),
    "quiet": NoiseModel.quiet,
}


class LegacySimulator(IOStackSimulator):
    """The pre-fastpath simulator: one full stack traversal per run.

    ``run`` below is the original implementation copied verbatim, so the
    equivalence tests compare the fastpath against the exact arithmetic
    it replaced rather than against another formulation of it.
    """

    def run(self, workload, config):
        platform = self.platform.scaled_to(workload.n_nodes)
        hdf5_values = config.layer("hdf5")
        mpiio_values = config.layer("mpiio")
        lustre_values = config.layer("lustre")
        striping_unit = int(lustre_values["striping_unit"])

        report = DarshanReport()
        noise_factor = self.noise.sample_factor()

        for phase in workload.phases():
            phase_io = 0.0
            phase_meta = 0.0

            report.app_bytes_written += phase.bytes_written
            report.app_bytes_read += phase.bytes_read
            report.app_write_ops += phase.write_ops
            report.app_read_ops += phase.read_ops
            if phase.metadata is not None:
                report.meta_ops += phase.metadata.total_ops

            hdf5_out = apply_hdf5(phase, hdf5_values, platform)
            report.overhead_seconds += hdf5_out.overhead_seconds

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
                meta_seconds = serve_memory_metadata(hdf5_out.metadata, platform)
            else:
                meta_seconds = serve_metadata(hdf5_out.metadata, platform)
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
            report=report,
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
            assert fast.run(workload, config) == legacy.run(workload, config)
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
        assert a.report == b.report
    assert fast.noise._counter == legacy.noise._counter


def assert_histories_identical(a, b):
    assert a.baseline_perf == b.baseline_perf
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra.iteration_perf == rb.iteration_perf
        assert ra.best_perf == rb.best_perf
        assert ra.elapsed_minutes == rb.elapsed_minutes
        assert ra.evaluations == rb.evaluations
    assert a.best_perf == b.best_perf
    assert a.best_config == b.best_config
    assert a.total_minutes == b.total_minutes


def tuned(workload, *, noise, legacy=False, **kwargs):
    sim_cls = LegacySimulator if legacy else IOStackSimulator
    sim = sim_cls(cori(workload.n_nodes), noise())
    tuner = HSTuner(
        sim, stopper=NoStop(), rng=np.random.default_rng(7), **kwargs
    )
    return tuner.tune(workload, max_iterations=5)


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_tuning_history_matches_legacy_pipeline(workload_name, noise_name):
    """Cache on + batch on reproduces, bit for bit, the
    tuning history of the legacy per-individual, per-repeat pipeline."""
    workload = WORKLOADS[workload_name]()
    noise = NOISES[noise_name]
    reference = tuned(
        workload, noise=noise, legacy=True, batch_evaluation=False, cache=None
    )
    fastpath = tuned(
        workload,
        noise=noise,
        cache=EvaluationCache(),
        batch_evaluation=True,
    )
    assert_histories_identical(reference, fastpath)
    assert fastpath.eval_stats is not None
    assert fastpath.eval_stats.evaluations == reference.total_evaluations + 1


def test_fastpath_switches_are_result_transparent():
    """Every combination of (cache, batch) yields the same run."""
    workload = vpic()
    noise = NOISES["seeded"]
    baseline = tuned(workload, noise=noise, cache=None, batch_evaluation=False)
    variants = [
        tuned(workload, noise=noise, cache=None, batch_evaluation=True),
        tuned(workload, noise=noise, cache=EvaluationCache(), batch_evaluation=False),
        tuned(workload, noise=noise, cache=EvaluationCache(), batch_evaluation=True),
    ]
    for variant in variants:
        assert_histories_identical(baseline, variant)
