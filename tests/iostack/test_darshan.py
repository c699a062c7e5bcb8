"""Per-run timing and fitness bandwidths, the simulator's stand-in for
the paper's Darshan monitoring: a replayed run yields its write, read
and total seconds, and evaluation turns them into bandwidths over the
trace's application bytes."""

import pytest

from repro.iostack import IOStackSimulator, NoiseModel
from repro.iostack.simulator import PhaseTrace, StackTrace, StreamTrace

SIM = IOStackSimulator(noise=NoiseModel.quiet())


def make_trace(*streams: StreamTrace, bytes_written=1000, bytes_read=3000) -> StackTrace:
    phase = PhaseTrace(
        name="p",
        bytes_written=bytes_written,
        bytes_read=bytes_read,
        write_ops=10,
        read_ops=30,
        meta_ops=5,
        overhead_seconds=0.5,
        base_meta_seconds=0.5,
        compute_seconds=4.0,
        streams=streams,
    )
    return StackTrace(workload_name="w", phases=(phase,))


TRACE = make_trace(StreamTrace("write", 2.0, 1000, 10), StreamTrace("read", 3.0, 3000, 30))


def test_runtime_is_sum_of_components():
    write_seconds, read_seconds, runtime_seconds = SIM.replay(TRACE, 1.0)
    assert write_seconds + read_seconds == pytest.approx(5.0)
    assert runtime_seconds == pytest.approx(10.0)


def test_bandwidths():
    res = SIM.evaluate_trace_with_factors(TRACE, [1.0])
    assert res.write_bandwidth_mbps == pytest.approx(500.0 / 1e6)
    assert res.read_bandwidth_mbps == pytest.approx(1000.0 / 1e6)
    # Two runs at factors 1 and 2 average 500 and 250 bytes/s.
    res = SIM.evaluate_trace_with_factors(TRACE, [1.0, 2.0])
    assert res.write_bandwidth_mbps == pytest.approx(375.0 / 1e6)


def test_zero_traffic_bandwidth_is_zero():
    res = SIM.evaluate_trace_with_factors(make_trace(bytes_written=0, bytes_read=0), [1.0])
    assert res.write_bandwidth_mbps == 0.0
    assert res.read_bandwidth_mbps == 0.0
    assert res.alpha == 0.0
    assert res.perf_mbps == 0.0


def test_alpha_is_write_byte_fraction():
    res = SIM.evaluate_trace_with_factors(TRACE, [1.0])
    assert res.alpha == pytest.approx(0.25)
    assert res.perf_mbps == pytest.approx((0.75 * 1000.0 + 0.25 * 500.0) / 1e6)
