"""IOPhase aggregation and validation."""

import pytest

from repro.iostack.phase import IOPhase
from repro.iostack.requests import MetadataStream, RequestStream


def make_phase(compute=5.0, tier="lustre"):
    w = RequestStream.uniform("write", 1000, 100, 4)
    r = RequestStream.uniform("read", 500, 50, 4)
    m = MetadataStream(total_ops=40, n_procs=4)
    return IOPhase(
        name="p",
        compute_seconds=compute,
        data=(w, r),
        metadata=m,
        chunked=True,
        chunk_size=4096,
        working_set_per_proc=8192,
        tier=tier,
    )


def test_phase_totals():
    p = make_phase()
    assert p.bytes_written == 100_000
    assert p.bytes_read == 25_000
    assert p.write_ops == 100
    assert p.read_ops == 50


def test_phase_validation():
    with pytest.raises(ValueError):
        make_phase(compute=-1.0)
    with pytest.raises(ValueError):
        make_phase(tier="tape")
    with pytest.raises(ValueError):
        IOPhase(name="x", compute_seconds=0.0, data=(), chunked=True, chunk_size=0)


def test_empty_data_phase_is_legal():
    p = IOPhase(name="compute_only", compute_seconds=3.0, data=())
    assert p.bytes_written == 0 and p.read_ops == 0
