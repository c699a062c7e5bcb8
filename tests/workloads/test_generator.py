"""The synthetic dump-workload generator (MACSio stand-in)."""

import pytest

from repro.workloads.generator import DumpSpec, build_dump_workload


def spec(**overrides):
    base = dict(
        name="gen",
        n_procs=8,
        n_nodes=2,
        n_dumps=10,
        bytes_per_proc_per_dump=1024 * 1024,
        writes_per_proc_per_dump=4,
        compute_seconds_per_dump=1.0,
    )
    base.update(overrides)
    return DumpSpec(**base)


def test_volumes_match_spec():
    w = build_dump_workload(spec(first_dump_extra_ops_fraction=0.0))
    assert w.write_ops == 4 * 8 * 10
    assert w.bytes_written == 1024 * 1024 * 8 * 10
    assert w.compute_seconds == pytest.approx(10.0)


def test_first_dump_extra_ops():
    w = build_dump_workload(spec(first_dump_extra_ops_fraction=0.5))
    first = next(p for p in w.phases if p.name == "dump_first")
    assert first.write_ops == round(4 * 8 * 1.5)


def test_logging_phase_generated():
    w = build_dump_workload(spec(log_lines_per_proc_per_dump=2.0))
    assert [p.name for p in w.phases] == ["logging", "dump_first", "dump_steady"]
    logging = next(p for p in w.phases if p.name == "logging")
    assert logging.write_ops == 2 * 8 * 10
    assert not logging.data[0].collective_capable
    assert not logging.data[0].shared_file


def test_read_fraction_adds_read_stream():
    w = build_dump_workload(spec(read_fraction=0.25))
    assert w.bytes_read == pytest.approx(0.25 * w.bytes_written, rel=0.05)
    assert 0.7 < w.alpha < 0.9


def test_no_logging_no_fixed_phase():
    w = build_dump_workload(spec())
    assert [p.name for p in w.phases] == ["dump_first", "dump_steady"]


def test_single_dump_loop():
    w = build_dump_workload(spec(n_dumps=1))
    assert [p.name for p in w.phases] == ["dump_first"]


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(n_dumps=0)
    with pytest.raises(ValueError):
        spec(bytes_per_proc_per_dump=0)
    with pytest.raises(ValueError):
        spec(first_dump_extra_ops_fraction=3.0)
    with pytest.raises(ValueError):
        spec(read_fraction=-0.5)


def test_generated_workload_runs(quiet_sim, default_config):
    w = build_dump_workload(spec())
    res = quiet_sim.evaluate(w, default_config)
    assert res.perf_mbps > 0
