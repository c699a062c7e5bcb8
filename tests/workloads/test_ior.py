"""The IOR-style benchmark workload."""

import pytest

from repro.iostack.units import MiB
from repro.workloads import ior


def test_volumes_match_parameters():
    w = ior(n_procs=8, n_nodes=2, block_size=16 * MiB, transfer_size=2 * MiB,
            n_segments=3, read_back=True)
    assert w.bytes_written == 16 * MiB * 8 * 3
    assert w.bytes_read == w.bytes_written
    assert w.write_ops == (16 // 2) * 8 * 3
    assert w.alpha == pytest.approx(0.5)


def test_write_only_mode():
    w = ior(read_back=False)
    assert w.bytes_read == 0
    assert w.alpha == 1.0


def test_fpp_streams_are_private_files():
    fpp = ior(file_per_process=True)
    shared = ior(file_per_process=False)
    fpp_streams = [s for p in fpp.phases for s in p.data]
    assert all(not s.shared_file for s in fpp_streams)
    assert all(s.interleave == 0.0 for s in fpp_streams)
    shared_streams = [s for p in shared.phases for s in p.data]
    assert all(s.shared_file for s in shared_streams)


def test_fpp_has_heavier_metadata():
    fpp = ior(file_per_process=True)
    shared = ior(file_per_process=False)
    meta = lambda w: sum(p.metadata.total_ops for p in w.phases if p.metadata)
    assert meta(fpp) > 2 * meta(shared)


def test_fpp_avoids_lock_contention(quiet_sim, default_config):
    """FPP sidesteps shared-file extent locks: with default striping it
    is much faster than the shared-file run."""
    fpp = quiet_sim.evaluate(ior(file_per_process=True), default_config).perf_mbps
    shared = quiet_sim.evaluate(ior(file_per_process=False), default_config).perf_mbps
    assert fpp > 2 * shared


def test_shared_file_benefits_from_tuning(quiet_sim, default_config, tuned_config):
    w = ior(file_per_process=False)
    base = quiet_sim.evaluate(w, default_config).perf_mbps
    tuned = quiet_sim.evaluate(w, tuned_config).perf_mbps
    assert tuned > 2 * base


def test_validation():
    with pytest.raises(ValueError):
        ior(block_size=0)
    with pytest.raises(ValueError):
        ior(block_size=MiB, transfer_size=2 * MiB)
    with pytest.raises(ValueError):
        ior(n_segments=0)
