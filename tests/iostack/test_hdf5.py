"""HDF5 layer model: chunk cache, sieving, alignment, metadata."""

import pytest

from repro.iostack.hdf5 import (
    DATA_PARAMETERS,
    METADATA_PARAMETERS,
    apply_hdf5,
    apply_hdf5_metadata,
)
from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream
from repro.iostack import StackConfiguration
from tests.conftest import make_testbed

MiB = 1024 * 1024
PLATFORM = make_testbed()


def hdf5_values(**overrides):
    values = StackConfiguration.default().layer("hdf5")
    values.update(overrides)
    return values


def chunked_phase(
    request_size, chunk_size=MiB, working_set=64 * MiB, op="write", chunked=True
):
    stream = RequestStream.uniform(op, request_size, 1000, 8, contiguity=0.8)
    return IOPhase(
        name="p",
        compute_seconds=0.0,
        data=(stream,),
        metadata=None,
        chunked=chunked,
        chunk_size=chunk_size,
        working_set_per_proc=working_set,
    )


def test_small_chunk_cache_amplifies_partial_chunk_writes():
    phase = chunked_phase(request_size=64 * 1024)
    small = apply_hdf5(phase, hdf5_values(chunk_cache_size=MiB))
    big = apply_hdf5(phase, hdf5_values(chunk_cache_size=1024 * MiB))
    small_bytes = sum(s.total_bytes for s in small.data)
    big_bytes = sum(s.total_bytes for s in big.data)
    assert small_bytes > phase.bytes_written  # read-modify-write inflation
    assert big_bytes == phase.bytes_written  # fully cached: no inflation


def test_full_cache_coalesces_into_chunks():
    phase = chunked_phase(request_size=64 * 1024, working_set=MiB)
    out = apply_hdf5(phase, hdf5_values(chunk_cache_size=1024 * MiB))
    assert out.data[0].total_ops < phase.write_ops


def test_whole_chunk_writes_unaffected_by_cache():
    phase = chunked_phase(request_size=2 * MiB, chunk_size=MiB)
    out = apply_hdf5(phase, hdf5_values(chunk_cache_size=MiB))
    assert out.data[0].total_bytes == phase.bytes_written
    assert out.data[0].total_ops == phase.write_ops


def test_sieving_coalesces_small_reads():
    # Contiguous (unchunked) small reads: pure data-sieving territory.
    phase = chunked_phase(request_size=16 * 1024, op="read", chunked=False)
    small = apply_hdf5(phase, hdf5_values(sieve_buf_size=64 * 1024))
    big = apply_hdf5(phase, hdf5_values(sieve_buf_size=16 * MiB))
    assert big.data[0].total_ops < small.data[0].total_ops
    # Sieving over-reads a little.
    assert big.data[0].total_bytes > phase.bytes_read


def test_alignment_applies_above_half_threshold():
    phase = chunked_phase(request_size=2 * MiB, chunk_size=2 * MiB)
    aligned = apply_hdf5(phase, hdf5_values(alignment=MiB))
    assert aligned.data[0].alignment == MiB
    tiny = chunked_phase(request_size=64 * 1024, chunk_size=MiB)
    out = apply_hdf5(tiny, hdf5_values(alignment=16 * MiB))
    assert out.data[0].alignment == 1  # below threshold: not aligned


def meta_phase(ops=8000, n_procs=8):
    return IOPhase(
        name="meta",
        compute_seconds=0.0,
        data=(),
        metadata=MetadataStream(total_ops=ops, n_procs=n_procs, write_fraction=0.5),
    )


def apply_metadata(phase, values):
    return apply_hdf5_metadata(phase.metadata, values, PLATFORM)


def test_collective_metadata_collapses_redundant_ops():
    phase = meta_phase()
    off, _ = apply_metadata(phase, hdf5_values())
    on, on_overhead = apply_metadata(
        phase, hdf5_values(coll_metadata_ops=True, coll_metadata_write=True)
    )
    assert on.total_ops < off.total_ops
    assert on_overhead > 0  # broadcast cost


def test_mdc_config_changes_surviving_reads():
    phase = meta_phase()
    small, _ = apply_metadata(phase, hdf5_values(mdc_config="small"))
    large, _ = apply_metadata(phase, hdf5_values(mdc_config="large"))
    assert large.total_ops < small.total_ops


def test_meta_block_size_aggregates_writes():
    phase = meta_phase()
    default, _ = apply_metadata(phase, hdf5_values())
    big, _ = apply_metadata(phase, hdf5_values(meta_block_size=16 * MiB))
    assert big.total_ops < default.total_ops


def test_no_metadata_passthrough():
    phase = chunked_phase(request_size=MiB)
    assert apply_metadata(phase, hdf5_values()) == (None, 0.0)


@pytest.mark.parametrize(
    "half, parameters",
    [
        ("data", DATA_PARAMETERS),
        ("metadata", METADATA_PARAMETERS),
    ],
)
def test_each_half_reads_only_its_parameters(half, parameters):
    """Each half's output depends on its own parameters only, which is
    what lets the simulator's layer memo key it by them."""
    base = StackConfiguration.default().layer("hdf5")
    assert set(DATA_PARAMETERS) | set(METADATA_PARAMETERS) == set(base)
    assert not set(DATA_PARAMETERS) & set(METADATA_PARAMETERS)
    read = []

    class Recording(dict):
        def __getitem__(self, name):
            read.append(name)
            return super().__getitem__(name)

    phase = IOPhase(
        name="both",
        compute_seconds=0.0,
        data=(
            RequestStream.uniform("write", 64 * 1024, 1000, 8, contiguity=0.8),
            RequestStream.uniform("read", 16 * 1024, 1000, 8),
        ),
        metadata=MetadataStream(total_ops=8000, n_procs=8, write_fraction=0.5),
        chunked=True,
        chunk_size=MiB,
        working_set_per_proc=64 * MiB,
    )
    if half == "data":
        apply_hdf5(phase, Recording(base))
    else:
        apply_metadata(phase, Recording(base))
    assert set(read) == set(parameters)
