"""Cross-module property-based tests (hypothesis).

These pin down the invariants the tuning pipeline silently relies on:
the simulator's conservation and bounding laws, kernel-reduction
extrapolation identities, GA monotonicity under elitism, and the
formatter/parser contract on generated programs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.iostack import (
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    TUNED_SPACE,
    cori,
)
from tests.conftest import make_workload, run_once

SIM = IOStackSimulator(cori(2), NoiseModel.quiet())


def random_config(seed: int) -> StackConfiguration:
    return StackConfiguration.random(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# simulator invariants
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_simulator_conservation_laws(seed):
    """For any configuration: positive runtime, write bytes never lost,
    and achieved bandwidth below the hardware's aggregate ceiling."""
    w = make_workload()
    config = random_config(seed)
    trace = SIM.trace(w, config)
    write_seconds, _, runtime_seconds = SIM.replay(trace, SIM.noise.sample_factor())
    assert runtime_seconds > 0
    assert write_seconds > 0
    # Writes may be inflated (read-modify-write) but never dropped.
    posix_bytes_written = sum(
        stream.total_bytes
        for phase in trace.phases
        for stream in phase.streams
        if stream.op == "write"
    )
    assert posix_bytes_written >= sum(phase.bytes_written for phase in trace.phases)
    # Bandwidth cannot exceed the platform's aggregate OST peak.
    p = SIM.platform
    ceiling = p.n_osts * p.ost_bandwidth * p.ost_utilization / 1e6  # MB/s
    result = SIM.evaluate_trace_with_factors(trace, [SIM.noise.sample_factor()])
    assert result.write_bandwidth_mbps <= ceiling * 1.01


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_more_data_takes_longer(seed):
    """Doubling the I/O volume never makes the run faster."""
    config = random_config(seed)
    small = make_workload(writes_per_proc=32)
    big = make_workload(writes_per_proc=64)
    t_small = sum(run_once(SIM, small, config)[:2])
    t_big = sum(run_once(SIM, big, config)[:2])
    assert t_big >= t_small * 0.99


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_memory_tier_never_slower_than_lustre(seed):
    config = random_config(seed)
    w = make_workload()
    lustre = sum(run_once(SIM, w, config)[:2])
    in_memory = dataclasses.replace(
        w, phases=tuple(dataclasses.replace(p, tier="memory") for p in w.phases)
    )
    memory = sum(run_once(SIM, in_memory, config)[:2])
    assert memory <= lustre


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_evaluation_deterministic_under_quiet_noise(seed):
    config = random_config(seed)
    w = make_workload()
    a = SIM.evaluate(w, config, repeats=2)
    b = SIM.evaluate(w, config, repeats=2)
    assert a.perf_mbps == b.perf_mbps
    assert a.charged_seconds == b.charged_seconds


# ---------------------------------------------------------------------------
# kernel-reduction identities
# ---------------------------------------------------------------------------


def dump_loop_program(n_steps: int) -> str:
    """A C program whose HDF5 dump loop runs ``n_steps`` times, with a
    compute loop and a first-iteration-only extra write in its body."""
    return f"""
#include <hdf5.h>
#define N_STEPS {n_steps}
#define ELEMS 4096
int main(void)
{{
    double *buf = (double *) malloc(ELEMS * sizeof(double));
    hsize_t dims[1] = {{ELEMS}};
    hid_t fid = H5Fcreate("out.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hid_t sid = H5Screate_simple(1, dims, NULL);
    for (int step = 0; step < N_STEPS; step++)
    {{
        for (int k = 0; k < ELEMS; k++)
        {{
            buf[k] = buf[k] * 1.5 + step;
        }}
        if (step == 0)
        {{
            H5Dwrite(fid, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);
        }}
        hid_t did = H5Dcreate2(fid, "d", H5T_NATIVE_DOUBLE, sid, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
        H5Dwrite(did, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);
        H5Dclose(did);
    }}
    H5Fclose(fid);
    return 0;
}}
"""


def kernel_workloads(n_steps: int, fraction: float):
    """The discovered kernel of :func:`dump_loop_program` without and
    with :class:`~repro.discovery.reducers.LoopReduction` at ``fraction``."""
    from repro.discovery import DiscoveryOptions, LoopReduction, discover_io
    from repro.discovery.modelgen import ModelHints

    source = dump_loop_program(n_steps)
    hints = ModelHints(n_procs=8, n_nodes=2)
    full = discover_io(source, "dump", DiscoveryOptions(hints=hints))
    reduced = discover_io(
        source,
        "dump",
        DiscoveryOptions(hints=hints, reducers=(LoopReduction(fraction),)),
    )
    return full.to_workload(), reduced.to_workload()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 200),
    st.floats(0.005, 0.5),
)
def test_loop_reduction_extrapolation_identity(n_iterations, fraction):
    """reduced metrics x extrapolation ~= original metrics, up to the
    overcount of the kept first iteration the paper describes (bounded
    by one iteration's worth per loop)."""
    w, reduced = kernel_workloads(n_iterations, fraction)
    factor = reduced.extrapolation_factor
    extrapolated = reduced.bytes_written * factor
    # The kept leading block over-weights the first iteration: the error
    # is at most ~one iteration's share.
    per_iter = w.bytes_written / n_iterations
    assert extrapolated >= w.bytes_written * 0.99
    assert extrapolated <= w.bytes_written + factor * per_iter


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 200), st.floats(0.001, 1.0))
def test_loop_reduction_never_increases_volume(n_iterations, fraction):
    w, reduced = kernel_workloads(n_iterations, fraction)
    assert reduced.bytes_written <= w.bytes_written
    assert reduced.write_ops <= w.write_ops
    assert reduced.compute_seconds <= w.compute_seconds + 1e-9


# ---------------------------------------------------------------------------
# GA monotonicity
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_elitism_makes_best_monotone(seed):
    from tests.ga.test_engine import make_engine, run_generations

    engine = make_engine(seed=seed, elites=1)
    best = [s.best_fitness for s in run_generations(engine, 12)]
    assert all(b >= a for a, b in zip(best, best[1:]))


# ---------------------------------------------------------------------------
# discovery contract on generated programs
# ---------------------------------------------------------------------------


@st.composite
def mini_program(draw):
    """A random small C program mixing I/O, compute and logging."""
    n_vars = draw(st.integers(1, 4))
    decls = [f"    double v{i} = {i}.0;" for i in range(n_vars)]
    body = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["io", "compute", "log", "loop"]))
        if kind == "io":
            body.append(
                f"    H5Dwrite(did, H5T_NATIVE_DOUBLE, H5S_ALL, H5S_ALL, H5P_DEFAULT, buf{i % n_vars});"
            )
        elif kind == "compute":
            a, b = draw(st.integers(0, n_vars - 1)), draw(st.integers(0, n_vars - 1))
            body.append(f"    v{a} = v{a} * 1.5 + v{b};")
        elif kind == "log":
            body.append(f'    fprintf(logf, "step {i}");')
        else:
            bound = draw(st.integers(2, 50))
            body.append(
                f"    for (int k{i} = 0; k{i} < {bound}; k{i}++)\n"
                f"    {{\n"
                f"        H5Dwrite(did, H5T_NATIVE_DOUBLE, H5S_ALL, H5S_ALL, H5P_DEFAULT, buf{i % n_vars});\n"
                f"    }}"
            )
    buffers = [
        f"    double *buf{i} = (double *) malloc(64 * sizeof(double));"
        for i in range(n_vars)
    ]
    return (
        "#include <hdf5.h>\n#include <stdio.h>\nint main(void)\n{\n"
        + "\n".join(decls + buffers)
        + '\n    FILE *logf = fopen("x.log", "w");\n'
        + '    hid_t did = H5Fcreate("o.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);\n'
        + "\n".join(body)
        + "\n    return 0;\n}\n"
    )


@settings(max_examples=30, deadline=None)
@given(mini_program())
def test_discovery_contract_on_generated_programs(source):
    """On any generated program: formatting is idempotent, the kernel is
    brace-balanced, keeps every H5 call, and drops every fprintf."""
    from repro.discovery import discover_io, format_source

    formatted = format_source(source)
    assert format_source(formatted) == formatted

    kernel = discover_io(source, "generated")
    assert kernel.source.count("{") == kernel.source.count("}")
    assert kernel.source.count("H5Dwrite") == formatted.count("H5Dwrite")
    assert "fprintf" not in kernel.source


@settings(max_examples=15, deadline=None)
@given(mini_program(), st.floats(0.01, 0.5))
def test_loop_reduction_on_generated_programs(source, fraction):
    """Loop reduction never grows any loop bound and keeps the source
    reparsable."""
    from repro.discovery import LoopReduction, parse_source

    outcome = LoopReduction(fraction).apply(source)
    parse_source(outcome.source)  # must stay parsable
    for record in outcome.reductions:
        assert 1 <= record.reduced_iterations < record.original_iterations
        assert record.scale > 1.0
