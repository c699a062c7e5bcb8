"""Unit conversions and formatting helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.iostack import units


def test_binary_prefixes_are_powers_of_1024():
    assert units.KiB == 1024
    assert units.MiB == 1024**2
    assert units.GiB == 1024**3
    assert units.TiB == 1024**4


def test_decimal_prefixes_are_powers_of_1000():
    assert units.MB == 1_000_000
    assert units.GB == 1_000_000_000


@given(st.floats(min_value=1.0, max_value=1e15))
def test_bandwidth_conversion_is_monotone(value):
    assert units.bytes_per_sec_to_mb_per_sec(value) > 0
    assert units.bytes_per_sec_to_mb_per_sec(value * 2) == pytest.approx(
        2 * units.bytes_per_sec_to_mb_per_sec(value)
    )


def test_format_bytes_picks_sensible_suffix():
    assert units.format_bytes(512) == "512 B"
    assert units.format_bytes(2048) == "2.0 KiB"
    assert units.format_bytes(3 * units.MiB) == "3.0 MiB"
    assert units.format_bytes(5 * units.GiB) == "5.0 GiB"
    assert "TiB" in units.format_bytes(3 * units.TiB)
