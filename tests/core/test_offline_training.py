"""Offline training: sweeps, PCA impact, checkpointing."""

import numpy as np
import pytest

from repro.core.offline_training import (
    agent_arrays,
    agents_from_arrays,
    impact_from_sweeps,
    load_agents,
    parameter_sweep,
    pretrain_subset_picker,
    save_agents,
)
from repro.core.objective import PerfNormalizer
from repro.core.smart_config import SmartConfigAgent
from repro.iostack import (
    TUNED_SPACE,
    IOStackSimulator,
    NoiseModel,
    cori,
)
from repro.workloads import flash


@pytest.fixture(scope="module")
def sweep():
    sim = IOStackSimulator(cori(4), NoiseModel(seed=5))
    return parameter_sweep(
        sim, flash(), rng=np.random.default_rng(5), random_samples=16, repeats=1
    )


def test_sweep_shapes(sweep):
    n_runs, n_params = sweep.configs.shape
    assert n_params == len(TUNED_SPACE)
    assert sweep.perfs.shape == (n_runs,)
    assert n_runs > len(TUNED_SPACE)  # axis sweeps alone exceed 12
    assert np.all(sweep.perfs > 0)
    assert sweep.workload_name == "flash-io"


def test_sweep_covers_axes(sweep):
    # Axis sweeps vary each parameter away from its default.
    spread = sweep.configs.std(axis=0)
    assert np.all(spread > 0)


def test_impact_scores_identify_striping(sweep):
    impact = impact_from_sweeps([sweep])
    assert impact.shape == (len(TUNED_SPACE),)
    assert impact.sum() == pytest.approx(1.0)
    ranked = [TUNED_SPACE.names[i] for i in np.argsort(impact)[::-1]]
    assert "striping_factor" in ranked[:3]


def counting_traces(sim):
    """Record every stack traversal ``sim`` performs."""
    built = []
    trace = sim.trace
    sim.trace = lambda *args: built.append(args) or trace(*args)
    return built


def test_a_sweep_shares_layer_results(layer_calls):
    """A sweep builds every trace on its evaluator's one memo: the axis
    points differ from the default in one gene, so most layer results
    are reused, and each perf equals an evaluation of its configuration
    alone."""
    sim = IOStackSimulator(cori(4), NoiseModel(seed=3))
    built = counting_traces(sim)
    workload = flash()
    sweep = parameter_sweep(
        sim, workload, rng=np.random.default_rng(0), random_samples=0, repeats=1
    )
    assert len(built) == len(sweep.perfs)
    assert len({id(memo) for _, _, memo in built}) == 1
    traced_phases = len(built) * len(workload.phases)
    assert layer_calls["apply_hdf5"] < traced_phases / 2
    assert layer_calls["apply_hdf5_metadata"] < traced_phases / 2
    plain = IOStackSimulator(cori(4), NoiseModel(seed=3))
    perfs = [plain.evaluate(workload, config, repeats=1).perf_mbps for _, config, _ in built]
    assert perfs == list(sweep.perfs)


def test_private_sweep_cache_counts_no_false_hits():
    sim = IOStackSimulator(cori(4), NoiseModel(seed=5))
    built = counting_traces(sim)
    sweep = parameter_sweep(
        sim, flash(), rng=np.random.default_rng(5), random_samples=4, repeats=1
    )
    # Axis sweeps skip the default per axis and random collisions are
    # vanishingly rare: every configuration builds its own trace.
    assert len(built) == len(sweep.perfs)


def test_impact_from_empty_rejected():
    with pytest.raises(ValueError):
        impact_from_sweeps([])


def test_pretrain_subset_picker_sets_scores(sweep, rng):
    norm = PerfNormalizer(700.0, 4)
    agent = SmartConfigAgent(normalizer=norm, rng=rng)
    impact = impact_from_sweeps([sweep])
    pretrain_subset_picker(agent, impact, episodes=10, rng=rng)
    assert np.allclose(agent.impact_scores, impact / impact.sum())
    subset = agent.subset_picker(500.0, None, iteration=0)
    assert subset


def test_save_load_roundtrip(tmp_path, trained_bundle):
    _, normalizer, agents = trained_bundle
    path = tmp_path / "agents.npz"
    save_agents(agents, path)
    restored = load_agents(path, normalizer)
    assert np.allclose(restored.impact_scores, agents.impact_scores)
    assert np.allclose(
        restored.smart_config.impact_scores, agents.smart_config.impact_scores
    )
    v = list(np.linspace(0.1, 1.0, 30))
    for t in range(5, 30, 6):
        assert restored.early_stopper.should_stop(v, t) == agents.early_stopper.should_stop(v, t)


def _generator_states(agents):
    return (
        agents.smart_config.rng.bit_generator.state,
        agents.early_stopper.rng.bit_generator.state,
    )


def test_agents_from_arrays_are_seeded_copies(trained_bundle):
    """A run's agents hold the learned arrays, draw from generators of
    the run's seed alone, and copy the arrays, so online learning in
    one run reaches neither the arrays nor another run."""
    _, normalizer, agents = trained_bundle
    arrays = agent_arrays(agents)
    a = agents_from_arrays(arrays, normalizer, seed=4)
    b = agents_from_arrays(arrays, normalizer, seed=4)
    c = agents_from_arrays(arrays, normalizer, seed=5)
    assert _generator_states(a) == _generator_states(b)
    assert _generator_states(a) != _generator_states(c)
    built = agent_arrays(a)
    assert built.keys() == arrays.keys()
    assert all(np.array_equal(built[k], arrays[k]) for k in arrays)
    a.smart_config.credit_subset(("cb_nodes",), 0.9)
    a.impact_scores[0] += 1.0
    assert np.array_equal(arrays["smart_impact_scores"], b.smart_config.impact_scores)
    assert np.array_equal(arrays["impact_scores"], b.impact_scores)


def test_load_agents_builds_the_runs_agents(tmp_path, trained_bundle):
    """Loading a checkpoint gives the agents :func:`agents_from_arrays`
    builds from the saved agents' arrays for the same seed."""
    _, normalizer, agents = trained_bundle
    path = tmp_path / "agents.npz"
    save_agents(agents, path)
    loaded = load_agents(path, normalizer, seed=3)
    built = agents_from_arrays(agent_arrays(agents), normalizer, seed=3)
    assert _generator_states(loaded) == _generator_states(built)
    x, y = agent_arrays(loaded), agent_arrays(built)
    assert all(np.array_equal(x[k], y[k]) for k in x)
