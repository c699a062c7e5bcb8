"""Lustre model: striping, RPC efficiency, contention, metadata."""

import pytest

from repro.iostack import StackConfiguration
from repro.iostack.lustre import serve_lustre, serve_metadata
from repro.iostack.requests import MetadataStream, RequestStream
from tests.conftest import make_testbed

MiB = 1024 * 1024
PLATFORM = make_testbed(n_nodes=2)


def lustre_values(**overrides):
    values = StackConfiguration.default().layer("lustre")
    values.update(overrides)
    return values


def stream(op="write", size=4 * MiB, ops=2000, procs=8, **kwargs):
    defaults = dict(shared_file=True, contiguity=0.8, interleave=0.4)
    defaults.update(kwargs)
    return RequestStream.uniform(op, size, ops, procs, **defaults)


def test_striping_spreads_over_osts():
    one = serve_lustre(stream(), lustre_values(striping_factor=1), PLATFORM)
    eight = serve_lustre(stream(), lustre_values(striping_factor=8), PLATFORM)
    assert one.osts_used == 1
    assert eight.osts_used == 8
    assert eight.seconds < one.seconds


def test_osts_capped_by_filesystem():
    svc = serve_lustre(stream(), lustre_values(striping_factor=248), PLATFORM)
    assert svc.osts_used == PLATFORM.n_osts


def test_file_per_process_multiplies_objects():
    fpp = serve_lustre(
        stream(shared_file=False, interleave=0.0),
        lustre_values(striping_factor=2),
        PLATFORM,
    )
    assert fpp.osts_used == min(2 * 8, PLATFORM.n_osts)


def test_bigger_stripe_unit_fewer_rpcs():
    small = serve_lustre(stream(), lustre_values(striping_unit=128 * 1024), PLATFORM)
    big = serve_lustre(stream(), lustre_values(striping_unit=4 * MiB), PLATFORM)
    assert big.rpcs_per_request < small.rpcs_per_request


def test_alignment_removes_fractional_crossings():
    # 2.5 MiB requests on 1 MiB stripes: unaligned offsets straddle an
    # extra boundary half the time.
    odd = 5 * MiB // 2
    unaligned = serve_lustre(stream(size=odd), lustre_values(striping_unit=MiB), PLATFORM)
    aligned = serve_lustre(
        stream(size=odd, alignment=4 * MiB), lustre_values(striping_unit=MiB), PLATFORM
    )
    assert aligned.rpcs_per_request < unaligned.rpcs_per_request


def test_interleaved_writes_pay_lock_time():
    calm = serve_lustre(stream(interleave=0.0), lustre_values(striping_factor=8), PLATFORM)
    hot = serve_lustre(stream(interleave=0.9), lustre_values(striping_factor=8), PLATFORM)
    assert hot.seconds > calm.seconds


def test_alignment_reduces_lock_conflicts():
    hot = stream(interleave=0.9)
    base = serve_lustre(hot, lustre_values(striping_factor=8, striping_unit=MiB), PLATFORM)
    aligned = serve_lustre(
        stream(interleave=0.9, alignment=MiB),
        lustre_values(striping_factor=8, striping_unit=MiB),
        PLATFORM,
    )
    assert aligned.seconds < base.seconds


def test_reads_have_no_lock_time_but_contend_on_seeks():
    crowded = serve_lustre(
        stream(op="read", procs=8), lustre_values(striping_factor=1), PLATFORM
    )
    spread = serve_lustre(
        stream(op="read", procs=8), lustre_values(striping_factor=8), PLATFORM
    )
    assert spread.achieved_bandwidth > crowded.achieved_bandwidth


def test_client_ceiling_binds_wide_jobs():
    svc = serve_lustre(
        stream(interleave=0.0, contiguity=1.0),
        lustre_values(striping_factor=248),
        PLATFORM,
    )
    assert svc.bound_by == "client"
    expected = PLATFORM.client_lustre_bandwidth * 2**PLATFORM.client_scaling_exponent
    assert svc.achieved_bandwidth == pytest.approx(expected)


def test_bound_by_labels():
    lock = serve_lustre(
        stream(interleave=1.0, contiguity=0.0, size=16 * MiB),
        lustre_values(striping_factor=1),
        PLATFORM,
    )
    assert lock.bound_by in ("locks", "server")


# -- metadata -----------------------------------------------------------------


def test_metadata_throughput_bound():
    m = MetadataStream(total_ops=100_000, n_procs=1000)
    t = serve_metadata(m, PLATFORM)
    assert t == pytest.approx(100_000 / PLATFORM.mds_throughput)


def test_metadata_latency_bound():
    m = MetadataStream(total_ops=100, n_procs=1)
    t = serve_metadata(m, PLATFORM)
    assert t == pytest.approx(100 * PLATFORM.mds_latency)


def test_metadata_none_is_free():
    assert serve_metadata(None, PLATFORM) == 0.0
