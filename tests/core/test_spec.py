"""TuningSpec and the one-call tune_application pipeline."""

import copy

import numpy as np
import pytest

from repro.core.spec import TuningOutcome, TuningSpec, tune_application
from repro.iostack import FaultPlan, IOStackSimulator, NoiseModel, cori
from repro.discovery.reducers import IOPathSwitching, LoopReduction
from repro.workloads.sources import canonical_hints, load_source


def test_spec_validation():
    with pytest.raises(ValueError):
        TuningSpec(max_iterations=0)
    with pytest.raises(ValueError):
        TuningSpec(budget_minutes=0)
    with pytest.raises(ValueError):
        TuningSpec(loop_reduction=2.0)
    with pytest.raises(ValueError):
        TuningSpec(expected_runs=-1)
    with pytest.raises(ValueError):
        TuningSpec(repeats=0)


@pytest.mark.parametrize(
    "field, value", [("loop_reduction", 0.01), ("path_switch", "/dev/shm")]
)
def test_spec_refuses_a_reducer_without_the_kernel(field, value):
    """A reducer rewrites the I/O kernel; with ``use_io_kernel=False``
    the full application would be tuned without it, so the spec is
    refused, naming both fields."""
    with pytest.raises(ValueError, match=f"{field}.*use_io_kernel"):
        TuningSpec(use_io_kernel=False, **{field: value})


def test_spec_builds_requested_reducers():
    spec = TuningSpec(loop_reduction=0.01, path_switch="/dev/shm")
    reducers = spec.reducers()
    assert isinstance(reducers[0], LoopReduction)
    assert isinstance(reducers[1], IOPathSwitching)
    assert TuningSpec().reducers() == ()


@pytest.fixture(scope="module")
def outcome(trained_bundle):
    _, _, agents = trained_bundle
    spec = TuningSpec(max_iterations=10, loop_reduction=0.01, seed=5)
    return tune_application(
        load_source("macsio"), canonical_hints("macsio"), spec,
        name="macsio", agents=agents,
    )


def test_outcome_has_kernel_and_gain(outcome):
    assert isinstance(outcome, TuningOutcome)
    assert outcome.kernel is not None
    assert outcome.kernel.extrapolation_factor > 1.0
    assert outcome.gain > 1.5
    assert outcome.result.best_config is not None


def test_budget_constraint_enforced(trained_bundle):
    _, _, agents = trained_bundle
    spec = TuningSpec(max_iterations=40, budget_minutes=60, seed=6)
    out = tune_application(
        load_source("macsio"), canonical_hints("macsio"), spec,
        name="macsio", agents=agents,
    )
    # The budget fired well before the iteration cap.
    assert len(out.result.history) < 40
    assert out.result.total_minutes < 120


def test_budgeted_run_keeps_the_rl_stopper_guarded(trained_bundle):
    """The minute budget is combined with the *guarded* RL stopper, so a
    weight fault trips the early-stopper guardrail on a budgeted spec."""
    _, _, agents = trained_bundle
    hints = canonical_hints("macsio")
    sim = IOStackSimulator(
        cori(hints.n_nodes), NoiseModel(seed=6),
        faults=FaultPlan(agent_fault="nan-weights"),
    )
    spec = TuningSpec(max_iterations=10, budget_minutes=60, seed=6)
    out = tune_application(
        load_source("macsio"), hints, spec,
        name="macsio", agents=copy.deepcopy(agents), simulator=sim,
    )
    tripped = {trip.split(":")[0] for trip in out.result.guardrail_trips}
    assert tripped == {"early-stopper", "subset-picker"}


def test_run_leaves_the_given_agents_unchanged(trained_bundle):
    """The run tunes with agents built from the given agents' learned
    arrays for the spec's seed: the given agents do not learn, so the
    same call tunes the same twice."""
    from repro.core.offline_training import agent_arrays

    _, _, agents = trained_bundle
    before = agent_arrays(agents)
    spec = TuningSpec(max_iterations=4, loop_reduction=0.01, seed=8)
    runs = [
        tune_application(
            load_source("macsio"), canonical_hints("macsio"), spec,
            name="macsio", agents=agents,
        )
        for _ in range(2)
    ]
    after = agent_arrays(agents)
    assert before.keys() == after.keys()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    first, second = (run.result for run in runs)
    assert first.perf_series().tolist() == second.perf_series().tolist()
    assert first.best_config == second.best_config


def test_full_application_mode(trained_bundle):
    _, _, agents = trained_bundle
    spec = TuningSpec(max_iterations=4, use_io_kernel=False, seed=7)
    out = tune_application(
        load_source("macsio"), canonical_hints("macsio"), spec,
        name="macsio", agents=agents,
    )
    assert out.kernel is None
    assert out.result.workload_name == "macsio-app"
