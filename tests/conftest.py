"""Shared fixtures for the test suite.

All fixtures are deterministic: seeded generators, noiseless simulators,
and a small, fast ``testbed`` platform for unit tests.  Heavier
integration fixtures (trained agents) are session-scoped.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import PerfNormalizer, train_tunio_agents
from repro.core.offline_training import save_agents
from repro.iostack import (
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    TUNED_SPACE,
    cori,
)
from repro.iostack import lustre as lustre_module
from repro.iostack import simulator as simulator_module
from repro.iostack.cluster import Platform
from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack.units import GB, MB, MS, US
from repro.workloads import Workload, flash, hacc, vpic


def make_testbed(n_nodes: int = 2) -> Platform:
    """A small, fast-to-simulate platform for unit tests: few OSTs, low
    proc counts, exaggerated latencies so parameter effects are easy to
    assert on."""
    return Platform(
        name=f"testbed-{n_nodes}n",
        n_nodes=n_nodes,
        procs_per_node=4,
        nic_bandwidth=2 * GB,
        network_latency=10 * US,
        client_lustre_bandwidth=800 * MB,
        n_osts=16,
        ost_bandwidth=1 * GB,
        ost_utilization=0.8,
        rpc_latency=1 * MS,
        max_rpcs_in_flight=4,
        mds_latency=1 * MS,
        mds_throughput=5_000.0,
        memory_bandwidth=20 * GB,
        syscall_overhead=5 * US,
        lock_contention_coeff=0.5,
        read_contention_coeff=0.3,
    )


def run_once(sim: IOStackSimulator, workload, config) -> tuple[float, float, float]:
    """One simulated run of ``workload`` under ``config`` with the next
    noise factor: ``(write_seconds, read_seconds, runtime_seconds)``."""
    return sim.replay(sim.trace(workload, config), sim.noise.sample_factor())


#: The tables of an :class:`~repro.iostack.evalcache.EvaluationCache`.
MEMO_TABLES = (
    "traces", "hdf5_data", "hdf5_metadata", "mpiio", "samples", "lustre", "rpc_passes",
)


def memo_is_empty(memo) -> bool:
    """Whether ``memo`` holds no entry in any table and no platform."""
    return memo.platform is None and not any(getattr(memo, t) for t in MEMO_TABLES)


@pytest.fixture(scope="session")
def trained_bundle():
    """Simulator, normalizer and offline-trained agents, trained once
    per session (training takes a few seconds)."""
    platform = cori(4)
    sim = IOStackSimulator(platform, NoiseModel(seed=77))
    normalizer = PerfNormalizer.for_platform(platform, 4)
    agents = train_tunio_agents(
        sim, [vpic(), flash(), hacc()], normalizer,
        rng=np.random.default_rng(77),
    )
    return sim, normalizer, agents


@pytest.fixture(scope="session")
def agents_checkpoint(trained_bundle, tmp_path_factory):
    """An ``--agents-cache`` checkpoint of :func:`trained_bundle`'s
    agents.  Copy it before handing it to a run that may change it."""
    path = tmp_path_factory.mktemp("agents") / "agents.npz"
    save_agents(trained_bundle[2], path)
    return path


@pytest.fixture
def layer_calls(monkeypatch) -> Counter:
    """Counts, by name, of the memoized layer models' calls from
    :meth:`IOStackSimulator.trace`: the HDF5 data half (``apply_hdf5``),
    the HDF5 metadata half (``apply_hdf5_metadata``) with the metadata
    service it feeds, MPI-IO and Lustre, and of the Lustre RPC passes
    (``stripe_rpcs``) inside ``serve_lustre``."""
    calls: Counter = Counter()
    for module, name in (
        (simulator_module, "apply_hdf5"),
        (simulator_module, "apply_hdf5_metadata"),
        (simulator_module, "serve_metadata"),
        (simulator_module, "serve_memory_metadata"),
        (simulator_module, "apply_mpiio"),
        (simulator_module, "serve_lustre"),
        (lustre_module, "stripe_rpcs"),
    ):
        layer = getattr(module, name)

        def counted(*args, _name=name, _layer=layer):
            calls[_name] += 1
            return _layer(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def platform():
    return make_testbed(n_nodes=2)


@pytest.fixture
def cori_platform():
    return cori(n_nodes=4)


@pytest.fixture
def quiet_sim(cori_platform) -> IOStackSimulator:
    """Cori-shaped simulator with no run-to-run noise."""
    return IOStackSimulator(cori_platform, NoiseModel.quiet())


@pytest.fixture
def default_config() -> StackConfiguration:
    return StackConfiguration.default()


@pytest.fixture
def tuned_config() -> StackConfiguration:
    """A hand-tuned configuration that is good for most workloads."""
    mib = 1024 * 1024
    return StackConfiguration.default().with_values(
        striping_factor=64,
        striping_unit=4 * mib,
        alignment=4 * mib,
        romio_collective=True,
        cb_nodes=32,
        cb_buffer_size=64 * mib,
        coll_metadata_write=True,
        coll_metadata_ops=True,
        mdc_config="large",
        meta_block_size=mib,
        chunk_cache_size=256 * mib,
    )


def make_write_stream(
    request_size: int = 1024 * 1024,
    total_ops: int = 1024,
    n_procs: int = 64,
    **kwargs,
) -> RequestStream:
    return RequestStream.uniform(
        "write", request_size, total_ops, n_procs, **kwargs
    )


@pytest.fixture
def write_stream() -> RequestStream:
    return make_write_stream(contiguity=0.8, interleave=0.4)


def make_workload(
    n_procs: int = 64,
    n_nodes: int = 2,
    request_size: int = 1024 * 1024,
    writes_per_proc: int = 64,
    n_iterations: int = 10,
    compute_seconds: float = 2.0,
    **stream_kwargs,
) -> Workload:
    """A small synthetic workload for unit tests: a one-iteration first
    block and, for ``n_iterations > 1``, a steady block carrying the
    remaining iterations."""

    def block(iterations: int) -> IOPhase:
        stream = RequestStream.uniform(
            "write",
            request_size,
            writes_per_proc * n_procs * iterations,
            n_procs,
            contiguity=0.8,
            interleave=0.4,
            **stream_kwargs,
        )
        return IOPhase(
            name="dump",
            compute_seconds=compute_seconds * iterations,
            data=(stream,),
            metadata=MetadataStream(total_ops=8 * n_procs * iterations, n_procs=n_procs),
            chunked=True,
            chunk_size=1024 * 1024,
            working_set_per_proc=8 * 1024 * 1024,
        )

    blocks = [block(1)]
    if n_iterations > 1:
        blocks.append(block(n_iterations - 1))
    return Workload(
        name="test-workload", n_procs=n_procs, n_nodes=n_nodes, phases=tuple(blocks)
    )


@pytest.fixture
def small_workload() -> Workload:
    return make_workload()
