"""TuningSpec and the one-call tune_application pipeline."""

import copy

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


def test_full_application_mode(trained_bundle):
    _, _, agents = trained_bundle
    spec = TuningSpec(max_iterations=4, use_io_kernel=False, seed=7)
    out = tune_application(
        load_source("macsio"), canonical_hints("macsio"), spec,
        name="macsio", agents=agents,
    )
    assert out.kernel is None
    assert out.result.workload_name == "macsio-app"
