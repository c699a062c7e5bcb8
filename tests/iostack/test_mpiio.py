"""MPI-IO collective-buffering model."""

import pytest

from repro.iostack import StackConfiguration
from repro.iostack.mpiio import apply_mpiio
from repro.iostack.requests import RequestStream
from tests.conftest import make_testbed

MiB = 1024 * 1024
PLATFORM = make_testbed(n_nodes=2)


def mpiio_values(**overrides):
    values = StackConfiguration.default().layer("mpiio")
    values.update(overrides)
    return values


def small_strided_stream():
    return RequestStream.uniform(
        "write", 256 * 1024, 8000, 8, shared_file=True,
        contiguity=0.5, interleave=0.8,
    )


def test_independent_path_is_identity():
    s = small_strided_stream()
    out = apply_mpiio(s, mpiio_values(romio_collective=False), PLATFORM, MiB)
    assert out.stream is s
    assert not out.collectivised
    assert out.overhead_seconds == 0.0


def test_collective_aggregates_requests():
    s = small_strided_stream()
    out = apply_mpiio(s, mpiio_values(romio_collective=True, cb_nodes=4), PLATFORM, MiB)
    assert out.collectivised
    assert out.stream.total_ops < s.total_ops
    assert out.stream.total_bytes == s.total_bytes  # bytes conserved
    assert out.stream.contiguity == 1.0
    assert out.stream.interleave == 0.0
    assert out.stream.n_procs == 4
    assert out.overhead_seconds > 0.0  # the shuffle


def test_collective_aligns_when_buffer_is_stripe_multiple():
    s = small_strided_stream()
    aligned = apply_mpiio(
        s, mpiio_values(romio_collective=True, cb_buffer_size=16 * MiB), PLATFORM, MiB
    )
    assert aligned.stream.alignment >= MiB
    odd = apply_mpiio(
        s, mpiio_values(romio_collective=True, cb_buffer_size=MiB), PLATFORM, 16 * MiB
    )
    assert odd.stream.alignment == 1


def test_aggregators_capped_by_procs():
    s = small_strided_stream()  # 8 procs
    out = apply_mpiio(
        s, mpiio_values(romio_collective=True, cb_nodes=1024), PLATFORM, MiB
    )
    assert out.stream.n_procs == 8


def test_aggregator_node_spread_recorded():
    s = small_strided_stream()
    out = apply_mpiio(s, mpiio_values(romio_collective=True, cb_nodes=8), PLATFORM, MiB)
    assert out.stream.nodes == min(8, PLATFORM.n_nodes)


def test_non_collective_capable_streams_pass_through():
    s = RequestStream.uniform(
        "write", 100, 100, 8, shared_file=True, collective_capable=False
    )
    out = apply_mpiio(s, mpiio_values(romio_collective=True), PLATFORM, MiB)
    assert not out.collectivised


def test_file_per_process_passes_through():
    s = RequestStream.uniform("write", 100, 100, 8, shared_file=False)
    out = apply_mpiio(s, mpiio_values(romio_collective=True), PLATFORM, MiB)
    assert not out.collectivised


def test_more_aggregator_nodes_shuffle_faster():
    s = small_strided_stream()
    few = apply_mpiio(s, mpiio_values(romio_collective=True, cb_nodes=1), PLATFORM, MiB)
    many = apply_mpiio(s, mpiio_values(romio_collective=True, cb_nodes=2), PLATFORM, MiB)
    assert many.overhead_seconds < few.overhead_seconds
