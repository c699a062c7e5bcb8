"""Darshan-style report counters."""

import pytest

from repro.iostack.darshan import DarshanReport, PhaseRecord


def make_report():
    r = DarshanReport()
    r.app_bytes_written = 1000
    r.app_bytes_read = 3000
    r.app_write_ops = 10
    r.app_read_ops = 30
    r.write_seconds = 2.0
    r.read_seconds = 3.0
    r.meta_seconds = 0.5
    r.compute_seconds = 4.0
    r.overhead_seconds = 0.5
    return r


def test_runtime_is_sum_of_components():
    r = make_report()
    assert r.io_seconds == pytest.approx(5.0)
    assert r.runtime_seconds == pytest.approx(10.0)


def test_bandwidths():
    r = make_report()
    assert r.write_bandwidth == pytest.approx(500.0)
    assert r.read_bandwidth == pytest.approx(1000.0)
    assert r.write_bandwidth_mbps == pytest.approx(500.0 / 1e6)


def test_zero_traffic_bandwidth_is_zero():
    r = DarshanReport()
    assert r.write_bandwidth == 0.0
    assert r.read_bandwidth == 0.0
    assert r.alpha == 0.0


def test_alpha_is_write_byte_fraction():
    r = make_report()
    assert r.alpha == pytest.approx(0.25)


def test_phase_records_append():
    r = make_report()
    rec = PhaseRecord(
        name="p", bytes_written=1, bytes_read=2, write_ops=3, read_ops=4,
        io_seconds=0.1, meta_seconds=0.2, compute_seconds=0.3,
    )
    r.record_phase(rec)
    assert r.phases == [rec]
