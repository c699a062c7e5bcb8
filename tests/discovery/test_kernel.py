"""The discover_io pipeline and IOKernel binding."""

import pytest

from repro.discovery import (
    DiscoveryOptions,
    IOPathSwitching,
    LoopReduction,
    MarkingOptions,
    discover_io,
)
from repro.workloads.sources import canonical_hints, load_source


@pytest.fixture(scope="module")
def macsio_kernel():
    return discover_io(
        load_source("macsio"), "macsio",
        DiscoveryOptions(hints=canonical_hints("macsio")),
    )


def test_kernel_is_smaller_than_app(macsio_kernel):
    k = macsio_kernel
    assert 0 < k.kept_line_count < k.original_line_count
    assert 0.3 < k.reduction_ratio < 0.95


def test_kernel_source_is_reparsable(macsio_kernel):
    from repro.discovery import parse_source

    parsed = parse_source(macsio_kernel.source)
    assert "main" in parsed.functions


def test_kernel_binds_to_workload(macsio_kernel):
    w = macsio_kernel.to_workload()
    assert w.name == "macsio-kernel"
    assert w.bytes_written > 0
    assert w.compute_seconds == 0.0  # compute sliced away
    assert w.extrapolation_factor == 1.0


def test_kernel_drops_logging_but_keeps_bytes(macsio_kernel):
    from repro.discovery import workload_from_source

    hints = canonical_hints("macsio")
    app = workload_from_source(macsio_kernel.original_source, "app", hints)
    kern = macsio_kernel.to_workload()
    # Figure 8(c): bytes nearly exact, ops undercount by the logging share.
    assert abs(kern.bytes_written - app.bytes_written) / app.bytes_written < 0.001
    ops_error = (app.write_ops - kern.write_ops) / app.write_ops
    assert 0.15 < ops_error < 0.25  # paper: 19.05%


def test_loop_reduction_in_pipeline():
    hints = canonical_hints("macsio")
    k = discover_io(
        load_source("macsio"), "macsio",
        DiscoveryOptions(hints=hints, reducers=(LoopReduction(0.01),)),
    )
    assert k.extrapolation_factor == pytest.approx(85.0)
    w = k.to_workload()
    assert w.extrapolation_factor == pytest.approx(85.0)
    full = discover_io(
        load_source("macsio"), "macsio", DiscoveryOptions(hints=hints)
    ).to_workload()
    assert w.bytes_written < full.bytes_written / 50


def test_path_switching_in_pipeline():
    hints = canonical_hints("macsio")
    k = discover_io(
        load_source("macsio"), "macsio",
        DiscoveryOptions(hints=hints, reducers=(IOPathSwitching("/dev/shm"),)),
    )
    w = k.to_workload()
    assert all(p.tier == "memory" for p in w.phases)


def test_explain_lists_every_line(macsio_kernel):
    explain = macsio_kernel.explain()
    assert explain.count("\n") == macsio_kernel.original_line_count
    assert "KEEP" in explain and "drop" in explain


def test_fallback_hints_override():
    hints = canonical_hints("macsio")
    k = discover_io(load_source("macsio"), "m", DiscoveryOptions(hints=hints))
    other = canonical_hints("flash")
    w = k.to_workload(hints=other)
    assert w.n_procs == other.n_procs


def test_kernel_runs_on_simulator(quiet_sim, default_config, macsio_kernel):
    result = quiet_sim.evaluate(macsio_kernel.to_workload(), default_config)
    assert result.perf_mbps > 0
