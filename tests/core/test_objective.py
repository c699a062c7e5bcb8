"""The perf objective and its normalisation."""

import pytest

from repro.core.objective import PerfNormalizer
from repro.iostack import cori


def test_normalizer_roundtrip():
    norm = PerfNormalizer(single_node_bandwidth_mbps=700.0, num_nodes=4)
    assert norm.normalize(norm.scale_mbps) == pytest.approx(1.0)


def test_normalizer_for_platform_uses_sublinear_scaling():
    p = cori(4)
    small = PerfNormalizer.for_platform(p, 4)
    big = PerfNormalizer.for_platform(p, 500)
    # 125x the nodes buys less than 125x the scale.
    assert big.scale_mbps / small.scale_mbps < 125
    assert big.scale_mbps > small.scale_mbps


def test_normalizer_validation():
    with pytest.raises(ValueError):
        PerfNormalizer(single_node_bandwidth_mbps=0.0, num_nodes=1)
    with pytest.raises(ValueError):
        PerfNormalizer(single_node_bandwidth_mbps=1.0, num_nodes=0)
    norm = PerfNormalizer(1.0, 1)
    with pytest.raises(ValueError):
        norm.normalize(-1.0)


def test_normalize_rejects_non_finite_perf():
    from repro.iostack.faults import EvaluationError

    norm = PerfNormalizer(single_node_bandwidth_mbps=700.0, num_nodes=4)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(EvaluationError, match="non-finite"):
            norm.normalize(bad)
