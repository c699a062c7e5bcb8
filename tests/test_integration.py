"""End-to-end integration: source -> kernel -> tuned configuration.

These tests walk the complete paper pipeline at reduced scale: discover
an I/O kernel from C source, tune it with TunIO (offline-trained agents,
subset picking, RL stopping), and check the outcome against the full
application.
"""

import numpy as np
import pytest

from repro import (
    DiscoveryOptions,
    HSTuner,
    IOStackSimulator,
    LoopReduction,
    NoiseModel,
    NoStop,
    PerfNormalizer,
    StackConfiguration,
    build_tunio,
    cori,
    discover_io,
)
from repro.core.offline_training import load_agents
from repro.workloads import flash, vpic
from repro.workloads.sources import canonical_hints, load_source


@pytest.fixture(scope="module")
def stack(agents_checkpoint):
    """A fresh seed-99 simulator and fresh copies of the session's
    offline-trained agents."""
    platform = cori(4)
    sim = IOStackSimulator(platform, NoiseModel(seed=99))
    normalizer = PerfNormalizer.for_platform(platform, 4)
    agents = load_agents(agents_checkpoint, normalizer, seed=99)
    return sim, normalizer, agents


def test_paper_use_case_end_to_end(stack):
    """The Section III-E use case: discover the kernel, tune it, apply
    the found configuration to the full application."""
    sim, normalizer, agents = stack
    hints = canonical_hints("macsio")
    source = load_source("macsio")

    kernel = discover_io(
        source, "macsio",
        DiscoveryOptions(hints=hints, reducers=(LoopReduction(0.01),)),
    )
    kernel_workload = kernel.to_workload()

    tuner = build_tunio(sim, agents, normalizer, rng=np.random.default_rng(17))
    result = tuner.tune(kernel_workload, max_iterations=30)

    # The configuration found on the cheap kernel transfers to the app.
    from repro.discovery import workload_from_source

    app = workload_from_source(kernel.original_source, "macsio-app", hints)
    base = sim.evaluate(app, StackConfiguration.default()).perf_mbps
    tuned = sim.evaluate(app, result.best_config).perf_mbps
    assert tuned > 2.5 * base

    # Tuning the kernel was much cheaper than tuning the app would be:
    kernel_run = sim.evaluate(kernel_workload, StackConfiguration.default())
    app_run = sim.evaluate(app, StackConfiguration.default())
    assert kernel_run.charged_seconds < app_run.charged_seconds / 5


def test_tunio_beats_heuristic_on_time_or_perf(stack):
    """TunIO must not lose on both axes to the heuristic baseline."""
    from repro.tuners import HeuristicStopper

    sim, normalizer, agents = stack
    w = flash()
    tunio = build_tunio(sim, agents, normalizer, rng=np.random.default_rng(23))
    r_tunio = tunio.tune(w, max_iterations=40)
    baseline = HSTuner(sim, stopper=HeuristicStopper(), rng=np.random.default_rng(23))
    r_base = baseline.tune(w, max_iterations=40)
    assert (
        r_tunio.best_perf >= 0.95 * r_base.best_perf
        or r_tunio.total_minutes <= r_base.total_minutes
    )


def test_xml_config_round_trip_through_tuning(stack):
    """The H5Tuner override file produced from a tuning run re-parses to
    the same configuration (how a real pipeline would consume it)."""
    from repro.iostack import from_xml, to_xml

    sim, normalizer, agents = stack
    tuner = HSTuner(sim, stopper=NoStop(), rng=np.random.default_rng(31))
    result = tuner.tune(vpic(), max_iterations=6)
    xml = to_xml(result.best_config)
    assert from_xml(xml) == result.best_config


def test_offline_agents_transfer_across_workloads(stack):
    """Agents trained on VPIC/FLASH/HACC drive tuning of a workload they
    never saw (MACSio) without errors and with real gains."""
    sim, normalizer, agents = stack
    from repro.workloads import macsio_vpic_dipole

    tuner = build_tunio(sim, agents, normalizer, rng=np.random.default_rng(41))
    res = tuner.tune(macsio_vpic_dipole(), max_iterations=20)
    assert res.best_perf > 2 * res.baseline_perf


def test_tunio_pipeline_is_deterministic(stack):
    """Two TunIO runs from identical seeds and fresh agent clones agree
    bit-for-bit on the tuning trajectory."""
    import numpy as np

    from repro.core import build_tunio
    from repro.core.early_stopping import EarlyStoppingAgent
    from repro.core.offline_training import TunIOAgents
    from repro.core.smart_config import SmartConfigAgent
    from repro.iostack import IOStackSimulator, NoiseModel, cori

    sim, normalizer, agents = stack

    def clone():
        smart = SmartConfigAgent(
            normalizer=normalizer,
            rng=np.random.default_rng(555),
        )
        smart.set_state(agents.smart_config.get_state())
        stopper = EarlyStoppingAgent(rng=np.random.default_rng(556))
        stopper.set_weights(agents.early_stopper.get_weights())
        return TunIOAgents(smart, stopper, agents.impact_scores.copy())

    def run():
        fresh_sim = IOStackSimulator(cori(4), NoiseModel(seed=777))
        tuner = build_tunio(
            fresh_sim, clone(), normalizer, rng=np.random.default_rng(888)
        )
        return tuner.tune(flash(), max_iterations=12)

    a, b = run(), run()
    assert np.array_equal(a.perf_series(), b.perf_series())
    assert a.best_config == b.best_config
    assert a.stopped_at == b.stopped_at
