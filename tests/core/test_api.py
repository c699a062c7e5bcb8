"""The Table I facade: stop / discover_io / subset_picker."""

import ast
import copy
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import PerfNormalizer, TunIO, build_tunio
from repro.core.smart_config import DELAY
from repro.iostack import TUNED_SPACE, FaultPlan, IOStackSimulator, NoiseModel, cori
from repro.discovery import DiscoveryOptions, LoopReduction
from repro.tuners import HeuristicStopper, HSTuner, NoStop
from repro.tuners.base import IterationRecord
from repro.workloads import hacc
from repro.workloads.sources import canonical_hints, load_source

from tests.core.test_guarded_pipeline import WEIGHT_FAULT_TRIPS


@pytest.fixture
def facade(trained_bundle):
    # The facade's agents learn online, so each test gets its own copy.
    _, normalizer, agents = trained_bundle
    agents = copy.deepcopy(agents)
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
    assert facade.stopper.best_perfs == [100.0, 200.0, 500.0]


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
    assert facade.stopper.best_perfs == [100.0]


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
    assert facade.stopper.best_perfs == []


def test_stop_restart_drops_the_abandoned_pending_rewards(facade):
    """A restart keeps the rewards pending on the kept iterations only:
    after iterations 0-9, going back to 4 leaves just the decision the
    new call for 4 stores (made at 3)."""
    facade.reset()
    for i in range(10):
        facade.stop(i, 100.0 * (i + 1))
    facade.stop(4, 350.0)
    assert len(facade.stopper._buffer) == 1


def test_picker_only_caller_keeps_learning(facade):
    """The picker numbers its own picks, so a caller that never calls
    ``stop`` still matures the delayed rewards."""
    facade.reset()
    subset = None
    for i in range(30):
        subset = facade.subset_picker(800.0 + 10 * i, subset)
    assert len(facade.smart_config._delayed) <= DELAY


def test_stop_replays_the_pipelines_decisions(trained_bundle):
    """``TunIO.stop`` over a finished HACC history decides at every
    iteration as the stopper ``build_tunio`` wires: guarded, learning
    online.  On this history a stopper that does not learn online stops
    a generation later, so it tells the two apart."""
    _, normalizer, agents = trained_bundle
    sim = IOStackSimulator(cori(4), NoiseModel(seed=1))
    history = HSTuner(
        sim, stopper=NoStop(), rng=np.random.default_rng(1)
    ).tune(hacc(), max_iterations=30).history
    wired = build_tunio(sim, copy.deepcopy(agents), normalizer).stopper
    wired.reset()
    piped = [wired.should_stop(history[: i + 1]) for i in range(len(history))]
    own = copy.deepcopy(agents)
    facade = TunIO(own.smart_config, own.early_stopper, normalizer)
    assert [facade.stop(i, r.best_perf) for i, r in enumerate(history)] == piped
    assert any(piped)


#: A best-perf series whose 5%/5 heuristic continues, then stops.
FAULT_PERFS = [500.0, 800.0, 1100.0, 1300.0, 1400.0, 1450.0,
               1460.0, 1465.0, 1466.0, 1466.0, 1466.0, 1466.0]


def drive(facade):
    """Call the facade as a tuning pipeline does over
    :data:`FAULT_PERFS`: pick (from iteration 1), credit, stop."""
    decisions, picks = [], []
    subset = None
    for i, perf in enumerate(FAULT_PERFS):
        if i:
            subset = facade.subset_picker(FAULT_PERFS[i - 1], subset)
            picks.append(subset)
        facade.credit(perf)
        decisions.append(facade.stop(i, perf))
    return decisions, picks


@pytest.mark.guardrails
@pytest.mark.parametrize(
    "mode, at, trips",
    [
        ("nan-weights", 0, WEIGHT_FAULT_TRIPS["nan-weights"]),
        ("stop-now", 0, (
            "early-stopper:degenerate-policy at iteration 1 (stop requested at "
            "iteration 1, inside the 4-iteration warm-up, 2 times in a row)",
        )),
        ("empty-subset", 0, (
            "subset-picker:invalid-output at iteration 1 "
            "(picker returned an empty subset)",
        )),
        ("constant-subset", 1, (
            "subset-picker:degenerate-policy at iteration 6 "
            "(subset ('striping_factor', 'cb_nodes') repeated 6 times)",
        )),
    ],
)
def test_standalone_facade_is_guarded(trained_bundle, mode, at, trips):
    """A Table I caller gets the pipeline's guardrails: the same trips
    as the pipeline earns, then the 5%/5 heuristic's decisions from
    ``stop`` and the full parameter set from ``subset_picker``."""
    _, normalizer, agents = trained_bundle
    agents = copy.deepcopy(agents)
    plan = FaultPlan(agent_fault=mode, agent_fault_at=at, seed=1)
    facade = TunIO(
        agents.smart_config, agents.early_stopper, normalizer,
        fault_source=lambda: plan,
    )
    decisions, picks = drive(facade)
    assert tuple(str(t) for t in facade.guardrails.trips) == trips

    tripped = {t.guardrail: t.iteration for t in facade.guardrails.trips}
    if "early-stopper" in tripped:
        heuristic = HeuristicStopper()
        records = [IterationRecord(i, p, p, 10.0 * (i + 1), 16)
                   for i, p in enumerate(FAULT_PERFS)]
        expected = [heuristic.should_stop(records[: i + 1])
                    for i in range(len(records))]
        k = tripped["early-stopper"]
        assert decisions[k:] == expected[k:]
        assert False in expected[k:] and True in expected[k:]
    if "subset-picker" in tripped:
        k = tripped["subset-picker"]
        assert all(p == TUNED_SPACE.names for p in picks[k - 1:])


def test_only_the_facade_builds_the_guarded_agents():
    """Every tuning-time use of the agents goes through ``TunIO``: no
    module in ``src/`` but ``core/api.py`` constructs the RL stopper or
    a guarded subset picker."""
    root = Path(repro.__file__).parent
    builders = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("RLStopper", "GuardedSubsetPicker"):
                builders.add(path.relative_to(root).as_posix())
    assert builders == {"core/api.py"}
