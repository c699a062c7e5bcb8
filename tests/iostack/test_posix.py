"""Memory-tier (I/O path switching) service model."""

import pytest

from repro.iostack.posix import serve_memory, serve_memory_metadata
from repro.iostack.requests import MetadataStream, RequestStream
from tests.conftest import make_testbed

PLATFORM = make_testbed(n_nodes=2)


def test_memory_tier_is_much_faster_than_lustre():
    from repro.iostack import StackConfiguration
    from repro.iostack.lustre import serve_lustre

    s = RequestStream.uniform("write", 1024 * 1024, 4000, 8, interleave=0.5)
    mem = serve_memory(s, PLATFORM)
    lus = serve_lustre(s, StackConfiguration.default().layer("lustre"), PLATFORM)
    assert mem.seconds < lus.seconds / 5


def test_memory_bandwidth_scales_with_nodes():
    s1 = RequestStream.uniform("write", 1024, 1000, 4)  # 1 node (4 ppn)
    s2 = RequestStream.uniform("write", 1024, 1000, 8)  # 2 nodes
    t1 = serve_memory(s1, PLATFORM).seconds
    t2 = serve_memory(s2, PLATFORM).seconds
    assert t2 < t1


def test_memory_service_reports_bandwidth():
    s = RequestStream.uniform("write", 1024 * 1024, 100, 4)
    svc = serve_memory(s, PLATFORM)
    assert svc.achieved_bandwidth == pytest.approx(s.total_bytes / svc.seconds)


def test_memory_metadata_is_cheap():
    m = MetadataStream(total_ops=10_000, n_procs=8)
    t = serve_memory_metadata(m, PLATFORM)
    from repro.iostack.lustre import serve_metadata

    assert t < serve_metadata(m, PLATFORM) / 10


def test_memory_metadata_none_is_free():
    assert serve_memory_metadata(None, PLATFORM) == 0.0
