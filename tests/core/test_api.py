"""The Table I facade: stop / discover_io / subset_picker."""

import copy

import numpy as np
import pytest

from repro.core import PerfNormalizer, TunIO
from repro.iostack import cori
from repro.discovery import DiscoveryOptions, LoopReduction
from repro.workloads.sources import canonical_hints, load_source


@pytest.fixture
def facade(trained_bundle):
    _, normalizer, agents = trained_bundle
    return TunIO(agents.smart_config, agents.early_stopper, normalizer)


def test_stop_and_subset_picker_share_the_facades_normalizer(trained_bundle):
    """The facade's normalizer is the job's: the subset picker reads
    perf through it too, not through the one it was trained with."""
    _, _, agents = trained_bundle
    agents = copy.deepcopy(agents)
    job = PerfNormalizer.for_platform(cori(500), 500)
    facade = TunIO(agents.smart_config, agents.early_stopper, job)
    assert facade.smart_config.normalizer is job
    assert facade.smart_config._normalize(job.scale_mbps) == job.normalize(job.scale_mbps)


def test_stop_accumulates_series(facade):
    facade.reset()
    decisions = [facade.stop(i, 500.0 + 100 * i) for i in range(8)]
    assert all(isinstance(d, bool) for d in decisions)
    assert not any(decisions[:4])  # warm-up window never stops


def test_stop_eventually_fires_on_flat_series(facade):
    facade.reset()
    perfs = list(np.linspace(300, 2400, 6)) + [2400.0] * 44
    fired = [facade.stop(i, p) for i, p in enumerate(perfs)]
    assert any(fired)


def test_stop_resynchronises_on_restart(facade):
    facade.reset()
    for i in range(6):
        facade.stop(i, 100.0 * (i + 1))
    # A pipeline restarting from iteration 2 must not crash.
    facade.stop(2, 500.0)
    assert len(facade._perf_series) == 3


def test_stop_rejects_negative_iteration(facade):
    with pytest.raises(ValueError):
        facade.stop(-1, 100.0)


@pytest.mark.parametrize("skipped_to", [2, 6])
def test_stop_rejects_a_skipped_iteration(facade, skipped_to):
    """Skipping ahead (inside the warm-up or past it) names the expected
    iteration and stores nothing, so the series never shifts a perf to
    the wrong index."""
    facade.reset()
    facade.stop(0, 100.0)
    with pytest.raises(ValueError, match="next iteration is 1"):
        facade.stop(skipped_to, 120.0)
    assert len(facade._perf_series) == 1


def test_discover_io_returns_kernel(facade):
    kernel = facade.discover_io(
        load_source("macsio"),
        options=DiscoveryOptions(hints=canonical_hints("macsio")),
        name="macsio",
    )
    assert kernel.kept_line_count > 0
    assert "H5Dwrite" in kernel.source


def test_discover_io_with_reducers(facade):
    kernel = facade.discover_io(
        load_source("macsio"),
        options=DiscoveryOptions(
            hints=canonical_hints("macsio"), reducers=(LoopReduction(0.01),)
        ),
    )
    assert kernel.extrapolation_factor > 1.0


def test_subset_picker_round(facade):
    facade.reset()
    subset = facade.subset_picker(800.0, None)
    assert 1 <= len(subset) <= 12
    narrower = facade.subset_picker(900.0, subset)
    assert all(isinstance(n, str) for n in narrower)


def test_reset_clears_series(facade):
    facade.stop(0, 100.0)
    facade.reset()
    assert facade._perf_series == []
