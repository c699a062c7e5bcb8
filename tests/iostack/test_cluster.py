"""Platform descriptions."""

import pytest

from repro.iostack.cluster import Platform, cori
from tests.conftest import make_testbed


def test_cori_matches_public_figures():
    p = cori()
    assert p.n_osts == 248
    assert p.procs_per_node == 32
    # ~700 GB/s aggregate peak (before the shared-utilization factor).
    assert 500e9 < p.n_osts * p.ost_bandwidth < 800e9


def test_scaled_to_changes_only_nodes():
    p = cori(4)
    q = p.scaled_to(500)
    assert q.n_nodes == 500
    assert q.ost_bandwidth == p.ost_bandwidth
    with pytest.raises(ValueError):
        p.scaled_to(0)


def test_total_procs():
    assert cori(4).total_procs == 128


def test_validation():
    good = make_testbed()
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(good, n_osts=0)
    with pytest.raises(ValueError):
        dataclasses.replace(good, ost_utilization=1.5)
    with pytest.raises(ValueError):
        dataclasses.replace(good, lock_contention_coeff=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(good, network_latency=-1e-6)
