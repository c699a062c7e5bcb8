"""The composed stack simulator: traces, replayed runs and evaluation."""

import dataclasses
from collections import Counter

import pytest

from repro.iostack import (
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.workloads import Workload, bdcats, ior
from tests.conftest import make_testbed, make_workload, run_once

MiB = 1024 * 1024


@pytest.fixture
def sim():
    return IOStackSimulator(make_testbed(n_nodes=2), NoiseModel.quiet())


def test_run_produces_consistent_report(sim, default_config):
    w = make_workload()
    trace = sim.trace(w, default_config)
    assert sum(phase.bytes_written for phase in trace.phases) == w.bytes_written
    assert sum(phase.write_ops for phase in trace.phases) == w.write_ops
    assert len(trace.phases) == len(w.phases)
    write_seconds, _, runtime_seconds = sim.replay(trace, sim.noise.sample_factor())
    assert write_seconds > 0
    assert runtime_seconds >= sum(phase.compute_seconds for phase in trace.phases)
    assert sim.evaluate(w, default_config).alpha == pytest.approx(1.0)  # write-only workload


def test_quiet_runs_are_deterministic(sim, default_config):
    w = make_workload()
    assert run_once(sim, w, default_config) == run_once(sim, w, default_config)
    a = sim.evaluate(w, default_config, repeats=1)
    b = sim.evaluate(w, default_config, repeats=1)
    assert a.write_bandwidth_mbps == b.write_bandwidth_mbps


def test_noise_perturbs_io_not_compute(default_config):
    noisy = IOStackSimulator(make_testbed(2), NoiseModel(sigma=0.3, seed=1))
    w = make_workload()
    trace = noisy.trace(w, default_config)
    factors = [noisy.noise.sample_factor() for _ in range(2)]
    a, b = (noisy.replay(trace, f) for f in factors)
    assert a[0] + a[1] != b[0] + b[1]
    # Compute and HDF5 overhead are noise-free: only the service times
    # (transfers and metadata) scale with the factor.
    fixed = sum(phase.compute_seconds + phase.overhead_seconds for phase in trace.phases)
    serviced = noisy.replay(trace, 1.0)[2] - fixed
    for factor, (_, _, runtime_seconds) in zip(factors, (a, b)):
        assert runtime_seconds - fixed == pytest.approx(factor * serviced)


def test_evaluate_charges_one_run(sim, default_config):
    w = make_workload()
    res = sim.evaluate(w, default_config, repeats=3)
    _, _, runtime_seconds = run_once(sim, w, default_config)
    assert res.charged_seconds == pytest.approx(runtime_seconds)
    assert res.perf_mbps > 0
    assert res.alpha == pytest.approx(1.0)


@pytest.mark.parametrize("workload", [ior, bdcats])
def test_evaluate_of_a_reading_workload_returns_python_floats(workload, default_config):
    sim = IOStackSimulator(cori(), NoiseModel.quiet())
    res = sim.evaluate(workload(), default_config)
    for field in dataclasses.fields(res):
        assert type(getattr(res, field.name)) is float, field.name


def test_evaluate_perf_is_weighted_objective(sim, default_config):
    w = make_workload()
    res = sim.evaluate(w, default_config, repeats=1)
    # write-only: perf == write bandwidth
    assert res.perf_mbps == pytest.approx(res.write_bandwidth_mbps)


def test_evaluate_rejects_zero_repeats(sim, default_config, small_workload):
    with pytest.raises(ValueError):
        sim.evaluate(small_workload, default_config, repeats=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_evaluate_trace_rejects_nonsense_noise_factors(sim, default_config, small_workload, bad):
    trace = sim.trace(small_workload, default_config)
    with pytest.raises(ValueError, match="noise factor 1 must be finite and positive"):
        sim.evaluate_trace_with_factors(trace, [1.0, bad, 1.0])


def test_tuned_beats_default(quiet_sim, default_config, tuned_config):
    from repro.workloads import flash

    w = flash()
    base = quiet_sim.evaluate(w, default_config).perf_mbps
    tuned = quiet_sim.evaluate(w, tuned_config).perf_mbps
    assert tuned > 3 * base


def test_memory_tier_ignores_lustre_parameters(sim, default_config, tuned_config):
    lustre = make_workload()
    w = dataclasses.replace(
        lustre, phases=tuple(dataclasses.replace(p, tier="memory") for p in lustre.phases)
    )
    a = sim.evaluate(w, default_config).perf_mbps
    b = sim.evaluate(w, tuned_config.with_values(sieve_buf_size=64 * 1024)).perf_mbps
    # Lustre/MPI-IO knobs have no effect on the memory tier.
    assert a == pytest.approx(b, rel=0.02)


def test_platform_scales_to_workload_nodes(default_config):
    sim = IOStackSimulator(cori(4), NoiseModel.quiet())
    small = make_workload(n_procs=64, n_nodes=2)
    big = make_workload(n_procs=256, n_nodes=8)
    t_small = run_once(sim, small, default_config)[2]
    t_big = run_once(sim, big, default_config)[2]
    # 4x the traffic over 4x the clients: runtime grows roughly linearly
    # with volume plus bounded contention -- never quadratically.
    assert 1.0 * t_small < t_big < 8 * t_small


# -- layer memo --------------------------------------------------------------------


def traced_calls(sim, calls, workload, config, memo=None):
    """The trace of ``workload`` under ``config`` built on ``memo``, and
    its layer calls."""
    before = Counter(calls)
    trace = sim.trace(workload, config, memo)
    return trace, calls - before


def test_traces_in_one_scope_share_layer_results(sim, default_config, layer_calls):
    w = make_workload()
    first, first_calls = traced_calls(sim, layer_calls, w, default_config)
    # Without a memo every trace pays in full.
    again, again_calls = traced_calls(sim, layer_calls, w, default_config)
    assert again == first and again_calls == first_calls
    memo = EvaluationCache()
    traced_calls(sim, layer_calls, w, default_config, memo)
    hit, hit_calls = traced_calls(sim, layer_calls, w, default_config, memo)
    # Only the lustre slice changed: HDF5 and MPI-IO are served from the
    # memo.
    wider = default_config.with_values(striping_factor=16)
    wider_trace, wider_calls = traced_calls(sim, layer_calls, w, wider, memo)
    # Building a trace stores none: the trace table is the evaluator's.
    assert not memo.traces
    assert hit == first and not hit_calls
    assert set(wider_calls) == {"serve_lustre"}
    assert wider_trace == sim.trace(w, wider)


def test_collective_rebuilds_share_samples_and_rpc_passes(sim, default_config, layer_calls):
    w = make_workload()
    collective = default_config.with_values(romio_collective=True)
    # More aggregators change the rebuilt streams but not their samples.
    more_aggregators = collective.with_values(cb_nodes=8)
    wider = collective.with_values(striping_factor=16)
    memo = EvaluationCache()
    traced_calls(sim, layer_calls, w, collective, memo)
    rebuilt, rebuilt_calls = traced_calls(sim, layer_calls, w, more_aggregators, memo)
    striped, striped_calls = traced_calls(sim, layer_calls, w, wider, memo)
    # Both configurations' rebuilds (one per phase each) share the
    # phases' two samples, so Lustre reruns on them without an RPC pass.
    outputs = [result for _, result in memo.mpiio.values()]
    assert len(outputs) == 4 and all(result.collectivised for result in outputs)
    assert len(memo.samples) == 2
    assert {id(result.stream.sizes) for result in outputs} == {
        id(sizes) for sizes in memo.samples.values()
    }
    assert rebuilt_calls == Counter(apply_mpiio=2, serve_lustre=2)
    # A striping_factor change alone reruns Lustre but not its RPC pass.
    assert striped_calls == Counter(serve_lustre=2)
    assert rebuilt == sim.trace(w, more_aggregators)
    assert striped == sim.trace(w, wider)


#: The layer calls the HDF5 metadata half makes (the half and the
#: metadata service it feeds).
METADATA_HALF = {"apply_hdf5_metadata", "serve_metadata", "serve_memory_metadata"}


@pytest.mark.parametrize("tier", ["lustre", "memory"])
def test_each_hdf5_half_is_keyed_by_its_own_parameters(
    sim, default_config, layer_calls, tier
):
    w = make_workload()
    w = dataclasses.replace(
        w, phases=tuple(dataclasses.replace(p, tier=tier) for p in w.phases)
    )
    metadata_only = default_config.with_values(mdc_config="large")
    data_only = default_config.with_values(sieve_buf_size=MiB)
    memo = EvaluationCache()
    traced_calls(sim, layer_calls, w, default_config, memo)
    metadata_trace, metadata_calls = traced_calls(sim, layer_calls, w, metadata_only, memo)
    data_trace, data_calls = traced_calls(sim, layer_calls, w, data_only, memo)
    # Only the metadata half ran for the mdc_config change: no data
    # half, MPI-IO or Lustre call.
    assert metadata_calls["apply_hdf5_metadata"] == len(w.phases)
    assert set(metadata_calls) <= METADATA_HALF
    # Only the data half ran for the sieve_buf_size change.
    assert data_calls["apply_hdf5"] == len(w.phases)
    assert not set(data_calls) & METADATA_HALF
    # Both traces are the ones built without a memo.
    assert metadata_trace == sim.trace(w, metadata_only)
    assert data_trace == sim.trace(w, data_only)
    assert metadata_trace != data_trace


def test_equal_content_sizes_miss_the_memo(sim, default_config, layer_calls):
    a, b = make_workload(), make_workload()
    memo = EvaluationCache()
    trace_a, calls_a = traced_calls(sim, layer_calls, a, default_config, memo)
    trace_b, calls_b = traced_calls(sim, layer_calls, b, default_config, memo)
    assert trace_a == trace_b
    assert calls_b == calls_a


def test_the_simulator_keeps_no_memo_state(sim, default_config):
    """Every memo is one a caller hands in, or a throwaway one: tracing
    leaves nothing on the simulator."""
    before = vars(sim).copy()
    sim.trace(make_workload(), default_config)
    sim.trace(make_workload(), default_config, EvaluationCache())
    assert vars(sim) == before
    assert set(before) == {"platform", "noise", "faults"}


def test_memo_keys_pin_the_node_count(default_config):
    sim = IOStackSimulator(cori(4), NoiseModel.quiet())
    small = make_workload(n_procs=64, n_nodes=1)
    # The same phase objects on twice the nodes.
    big = Workload(name=small.name, n_procs=64, n_nodes=2, phases=small.phases)
    expected = IOStackSimulator(cori(4), NoiseModel.quiet()).trace(big, default_config)
    memo = EvaluationCache()
    assert sim.trace(small, default_config, memo) != expected
    assert sim.trace(big, default_config, memo) == expected
