"""The TunIO pipeline and resumable sessions."""

import numpy as np
import pytest

from repro.core import TunIO, TunIOTuner, TuningSession, build_tunio, make_tuner
from repro.tuners import HeuristicStopper, HSTuner, NoStop
from repro.tuners.journal import JournalError, load_journal
from repro.workloads import flash, ior
from tests.conftest import make_workload


@pytest.fixture
def tunio(trained_bundle):
    sim, normalizer, agents = trained_bundle
    return build_tunio(sim, agents, normalizer, rng=np.random.default_rng(1))


def test_tunio_tunes_flash(tunio):
    res = tunio.tune(flash(), max_iterations=25)
    assert res.tuner_name == "tunio"
    assert res.best_perf > 3 * res.baseline_perf
    assert res.best_config is not None


def test_tunio_uses_subsets_after_warmup(tunio):
    res = tunio.tune(flash(), max_iterations=10)
    assert len(res.history[0].tuned_parameters) == 12  # generation 0: full
    later = [len(r.tuned_parameters) for r in res.history[1:]]
    assert any(k < 12 for k in later)


def test_tunio_can_stop_early(trained_bundle):
    sim, normalizer, agents = trained_bundle
    tuner = build_tunio(sim, agents, normalizer, rng=np.random.default_rng(3))
    res = tuner.tune(flash(), max_iterations=50)
    if res.stop_reason == "stopper":
        assert res.stopped_at is not None
        assert len(res.history) == res.stopped_at + 1
    # Even if this seed ran to budget, the stopper machinery was consulted
    # every iteration without error.
    assert len(res.history) <= 50


def test_expected_runs_passthrough(trained_bundle):
    sim, normalizer, agents = trained_bundle
    tuner = build_tunio(
        sim, agents, normalizer, expected_runs=1e6, rng=np.random.default_rng(4)
    )
    assert tuner.stopper is tuner.tunio
    assert tuner.tunio.stopper.expected_runs == 1e6


def test_session_resume_accumulates(trained_bundle):
    sim, normalizer, agents = trained_bundle
    tuner = HSTuner(sim, stopper=NoStop(), rng=np.random.default_rng(6))
    session = TuningSession(tuner=tuner, workload=make_workload())
    first = session.run(4)
    assert len(first.history) == 4
    second = session.run(3)
    assert second is first
    assert len(second.history) == 7
    assert session.best_perf == second.best_perf


def test_journaled_session_runs_once(trained_bundle, tmp_path):
    """A journal ends with its run's ``final`` record: a second run()
    on a journaled session is refused before it tunes, and the journal
    keeps exactly the first run."""
    sim, _, _ = trained_bundle
    path = tmp_path / "s.journal"
    tuner = make_tuner("hstuner", sim, rng=np.random.default_rng(6))
    session = TuningSession(tuner, ior(), journal_path=str(path))
    first = session.run(3)
    written = path.read_bytes()
    with pytest.raises(JournalError, match="runs once"):
        session.run(2)
    session.close()
    assert path.read_bytes() == written
    assert len(first.history) == 3
    journal = load_journal(str(path))
    assert journal.completed and len(journal.generations) == 3


def test_session_best_before_run_rejected(trained_bundle):
    sim, normalizer, agents = trained_bundle
    session = TuningSession(tuner=HSTuner(sim), workload=make_workload())
    with pytest.raises(RuntimeError):
        _ = session.best_perf


@pytest.mark.parametrize(
    "kind, cls, stopper",
    [
        ("tunio", TunIOTuner, TunIO),
        ("hstuner", HSTuner, NoStop),
        ("hstuner-heuristic", HSTuner, HeuristicStopper),
    ],
)
def test_make_tuner_builds_each_cli_kind(trained_bundle, kind, cls, stopper):
    sim, normalizer, agents = trained_bundle
    tuner = make_tuner(kind, sim, agents=agents, normalizer=normalizer, population_size=4)
    assert type(tuner) is cls and type(tuner.stopper) is stopper
    assert tuner.population_size == 4  # keyword arguments reach the tuner


def test_make_tuner_rejects_unknown_kinds_and_agentless_tunio(trained_bundle):
    sim, _, _ = trained_bundle
    with pytest.raises(ValueError, match="unknown tuner kind"):
        make_tuner("nostop", sim)
    with pytest.raises(ValueError, match="needs trained agents"):
        make_tuner("tunio", sim)
