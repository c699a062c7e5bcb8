"""Workload abstraction: job shape, phase totals and validation."""

import pytest

from repro.workloads.base import Workload
from tests.conftest import make_workload


def test_totals_aggregate_over_phases():
    w = make_workload(writes_per_proc=10, n_procs=4, n_iterations=5)
    assert w.write_ops == 10 * 4 * 5
    assert w.alpha == 1.0
    assert w.compute_seconds == pytest.approx(2.0 * 5)


def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(name="empty", n_procs=4, n_nodes=2, phases=())
    with pytest.raises(ValueError):
        make_workload(n_procs=1, n_nodes=2)
    with pytest.raises(ValueError):
        Workload(
            name="w",
            n_procs=4,
            n_nodes=2,
            phases=make_workload().phases,
            extrapolation_factor=0.5,
        )
