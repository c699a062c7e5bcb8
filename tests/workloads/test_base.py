"""Workload abstraction: loops, reduction, transforms."""

import pytest

from repro.iostack.phase import IOPhase
from repro.iostack.requests import RequestStream
from repro.workloads.base import LoopGroup, Workload
from tests.conftest import make_workload


def test_totals_aggregate_over_phases():
    w = make_workload(writes_per_proc=10, n_procs=4, n_iterations=5)
    assert w.write_ops == 10 * 4 * 5
    assert w.alpha == 1.0
    assert w.compute_seconds == pytest.approx(2.0 * 5)


def test_loop_reduced_keeps_leading_iterations():
    w = make_workload(n_iterations=100)
    reduced = w.loop_reduced(0.01)
    assert reduced.extrapolation_factor == pytest.approx(100.0)
    assert reduced.loops[0].n_iterations == 1
    assert reduced.write_ops == pytest.approx(w.write_ops / 100, rel=0.05)
    assert "loopred" in reduced.name


def test_loop_reduced_ceil_rounding():
    w = make_workload(n_iterations=85)
    reduced = w.loop_reduced(0.01)
    assert reduced.loops[0].n_iterations == 1  # ceil(0.85)


def test_loop_reduced_too_small_is_noop():
    w = make_workload(n_iterations=2)
    assert w.loop_reduced(0.9) is w
    assert w.loop_reduced(1.0) is w


def test_loop_reduced_validation():
    w = make_workload()
    with pytest.raises(ValueError):
        w.loop_reduced(0.0)
    with pytest.raises(ValueError):
        w.loop_reduced(1.5)


def test_non_reducible_loops_left_alone():
    w = make_workload(n_iterations=100)
    import dataclasses

    frozen = dataclasses.replace(
        w, loops=tuple(dataclasses.replace(l, reducible=False) for l in w.loops)
    )
    assert frozen.loop_reduced(0.01) is frozen


def test_switched_to_memory_marks_all_phases():
    w = make_workload().switched_to_memory()
    assert all(p.tier == "memory" for p in w.phases())
    assert "memio" in w.name


def test_without_fixed_phases():
    log_phase = IOPhase(
        name="logging",
        compute_seconds=0.0,
        data=(RequestStream.uniform("write", 64, 100, 4, collective_capable=False),),
    )
    import dataclasses

    w = dataclasses.replace(make_workload(), fixed_phases=(log_phase,))
    stripped = w.without_fixed_phases("logging")
    assert stripped.fixed_phases == ()
    assert stripped.write_ops == w.write_ops - 100


def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(name="empty", n_procs=4, n_nodes=2)
    with pytest.raises(ValueError):
        make_workload(n_procs=1, n_nodes=2)
    with pytest.raises(ValueError):
        LoopGroup(name="l", n_iterations=0, phases=(make_workload().phases()[0],))
    with pytest.raises(ValueError):
        LoopGroup(name="l", n_iterations=1, phases=())
