"""Medians with their sample counts, spreads and metric names."""

import json
import math

import pytest

from perfbench.layers import layer_metrics
from perfbench.metrics import (
    Metric, check_name, fastest_total, median_of, median_total, quartile_spread,
)
from perfbench.run import ROOT


def test_median_keeps_its_sample_count():
    m = median_of([3.0, 1.0, 2.0])
    assert (m.value, m.samples) == (2.0, 3)
    m = median_of([1.0, 2.0, 3.0, 10.0])
    assert (m.value, m.samples) == (2.5, 4)
    assert "n=4" in str(m)


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median_of([])


def test_fastest_total_sums_each_steps_minimum():
    assert fastest_total({"a": [3.0, 1.0, 2.0], "b": [0.5, 0.25]}) == 1.25
    with pytest.raises(ValueError):
        fastest_total({})
    with pytest.raises(ValueError):
        fastest_total({"a": [1.0], "b": []})


def test_median_total_sums_each_steps_median():
    assert median_total({"a": [3.0, 1.0, 2.0], "b": [0.5, 0.25]}) == 2.375
    with pytest.raises(ValueError):
        median_total({"a": []})


def test_quartile_spread_is_relative_to_the_median():
    values = [10.0] * 10
    assert quartile_spread(values) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


@pytest.mark.parametrize("name", ["wall_s", "iostack.hdf5.self_s", "rl.nn.forwards", "a-b.c_1"])
def test_valid_names_pass(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "wall s", "rss/mb", "_hidden", ".dot", "x" * 65, "é"])
def test_invalid_names_are_rejected(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_metric_rejects_non_finite_values():
    with pytest.raises(ValueError):
        Metric("wall_s", math.nan, "s")
    assert Metric("wall_s", 1.5, "s").as_json() == {"value": 1.5, "unit": "s"}


def test_declared_metrics_are_valid_and_produced():
    """Every metric BENCHMARK.json declares is a valid name and is one
    the benchmark computes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            check_name(metric["name"])
    produced = {m.name for m in layer_metrics({}, {}, [], 1.0)}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_ref", "cpu_ref", "peak_rss_mb"}
