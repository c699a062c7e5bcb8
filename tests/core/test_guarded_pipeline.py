"""Degraded-mode tuning: agent guardrails in the TunIO pipeline.

The contract under test has two halves:

* **happy path** -- with guardrails armed and healthy agents, a run is
  bit-identical to unguarded wiring (the wrappers are pure observers);
* **degraded path** -- with an agent-level fault injected, the pipeline
  completes, falls back to plain-GA behaviour, and the degraded run is
  bit-for-bit the run the fallback wiring would have produced, because
  every guardrail check happens before any agent RNG draw.
"""

import copy

import numpy as np
import pytest

from repro.core import PerfNormalizer, RLStopper, TunIO, build_tunio
from repro.core.offline_training import load_agents, save_agents
from repro.iostack import (
    EvaluationCache,
    FaultPlan,
    IOStackSimulator,
    NoiseModel,
    cori,
)
from repro.rl.guardrails import CheckpointError, GuardrailMonitor
from repro.tuners import HSTuner, HeuristicStopper, NoStop
from repro.tuners.base import IterationRecord
from repro.tuners.journal import JournalWriter, ReplayCursor, load_journal
from repro.workloads import bdcats, flash

pytestmark = pytest.mark.guardrails


#: The exact trips each injected fault earns in the tests below; the
#: trip strings are part of the journal, trace and CLI output.
WEIGHT_FAULT_TRIPS = {
    "nan-weights": (
        "early-stopper:non-finite-weights at iteration 0 "
        "(q-network: non-finite weights in layer 0)",
        "subset-picker:non-finite-weights at iteration 1 "
        "(q-network: non-finite weights in layer 0)",
    ),
    "explode-weights": (
        "early-stopper:exploded-weights at iteration 0 "
        "(q-network: exploded weights in layer 0 (|w| up to 1e+30))",
        "subset-picker:exploded-weights at iteration 1 "
        "(q-network: exploded weights in layer 0 (|w| up to 1e+30))",
    ),
}


def make_sim(agent_fault: str | None = None, at: int = 0) -> IOStackSimulator:
    faults = (
        FaultPlan(agent_fault=agent_fault, agent_fault_at=at, seed=1)
        if agent_fault is not None
        else None
    )
    return IOStackSimulator(cori(4), NoiseModel(seed=77), faults=faults)


def record(i: int, perf: float, best: float) -> IterationRecord:
    return IterationRecord(
        iteration=i,
        iteration_perf=perf,
        best_perf=best,
        elapsed_minutes=10.0 * (i + 1),
        evaluations=16,
        tuned_parameters=("striping_factor",),
    )


def assert_same_run(a, b):
    """Bit-for-bit equality of two tuning results."""
    assert a.best_perf == b.best_perf
    assert a.best_config == b.best_config
    assert a.stop_reason == b.stop_reason
    assert a.stopped_at == b.stopped_at
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra.iteration_perf == rb.iteration_perf
        assert ra.best_perf == rb.best_perf
        assert ra.elapsed_minutes == rb.elapsed_minutes
        assert ra.evaluations == rb.evaluations


# ---------------------------------------------------------------------------
# happy path: guardrails are pure observers
# ---------------------------------------------------------------------------


def test_healthy_run_never_trips(trained_bundle):
    _, normalizer, agents = trained_bundle
    tuner = build_tunio(
        make_sim(), copy.deepcopy(agents), normalizer,
        rng=np.random.default_rng(11),
    )
    result = tuner.tune(flash(), max_iterations=10)
    assert result.guardrail_trips == ()
    assert not tuner.guardrails.tripped()
    assert result.eval_stats.guardrail_trips == 0


def test_picker_reads_perf_through_the_jobs_normalizer(trained_bundle):
    """A 500-node BD-CATS tune with 4-node-trained agents: the subset
    picker normalizes perf with the job's normalizer, so its perf input
    stays inside ``PerfNormalizer.normalize``'s documented range (about
    [0, 1.5]) and nothing trips.  With the training normalizer the
    input reached 40+ and blew the Q-network up."""
    _, _, agents = trained_bundle
    agents = copy.deepcopy(agents)
    app = bdcats()
    platform = cori(app.n_nodes)
    normalizer = PerfNormalizer.for_platform(platform, app.n_nodes)
    seen = []
    picker = agents.smart_config
    normalize = picker._normalize
    picker._normalize = lambda perf: seen.append(normalize(perf)) or seen[-1]
    tuner = build_tunio(
        IOStackSimulator(platform, NoiseModel(seed=0)), agents, normalizer,
        rng=np.random.default_rng(0),
    )
    result = tuner.tune(app, max_iterations=15)
    assert seen and max(seen) <= 1.5
    assert result.guardrail_trips == ()


def test_guarded_picker_matches_raw_agent(trained_bundle):
    """Same agent state, same call sequence: the guarded picker behind
    ``TunIO.subset_picker`` returns exactly what the bare agent would
    (it consumes no extra RNG)."""
    _, normalizer, agents = trained_bundle
    guarded = copy.deepcopy(agents)
    raw_agent = copy.deepcopy(agents).smart_config
    facade = TunIO(guarded.smart_config, guarded.early_stopper, normalizer)
    raw_agent.reset_episode()
    subset_g = subset_r = None
    for it in range(1, 9):
        perf = 2000.0 + 150.0 * it
        subset_g = facade.subset_picker(perf, subset_g)
        subset_r = raw_agent.subset_picker(perf, subset_r, iteration=it)
        assert subset_g == subset_r
    assert not facade.picker_guard.degraded


def test_guarded_stopper_matches_raw_stopper(trained_bundle):
    """The guarded RL stopper behind ``TunIO.stop`` decides and learns
    exactly as the stopper's bare decision step does without its
    guard."""
    _, normalizer, agents = trained_bundle
    guarded = copy.deepcopy(agents)
    facade = TunIO(guarded.smart_config, guarded.early_stopper, normalizer)
    raw = RLStopper(
        copy.deepcopy(agents).early_stopper, normalizer, GuardrailMonitor(), lambda: None
    )
    for it in range(8):
        perf = 1500.0 + 400.0 * it
        raw.best_perfs.append(perf)
        assert facade.stop(it, perf) == raw._decide()
    assert not facade.stopper.guard.degraded
    weights = facade.stopper.agent.get_weights()
    for name, value in raw.agent.get_weights().items():
        assert np.array_equal(weights[name], value)


# ---------------------------------------------------------------------------
# degraded path: each fault mode completes and matches fallback wiring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["nan-weights", "explode-weights"])
def test_weight_corruption_degrades_to_plain_hstuner(trained_bundle, mode):
    """Corrupting both agents' networks before their first use makes the
    whole run bit-for-bit a plain HSTuner run under the patience
    heuristic: both guardrails trip pre-RNG, so the GA stream is
    untouched."""
    _, normalizer, agents = trained_bundle
    faulted = build_tunio(
        make_sim(mode, at=0), copy.deepcopy(agents), normalizer,
        rng=np.random.default_rng(21),
    )
    degraded = faulted.tune(flash(), max_iterations=8)

    reference = HSTuner(
        make_sim(), stopper=HeuristicStopper(), rng=np.random.default_rng(21)
    ).tune(flash(), max_iterations=8)

    assert_same_run(degraded, reference)
    guardrails = {t.guardrail for t in faulted.guardrails.trips}
    assert guardrails == {"subset-picker", "early-stopper"}
    assert degraded.guardrail_trips == WEIGHT_FAULT_TRIPS[mode]
    assert degraded.eval_stats.guardrail_trips == len(degraded.guardrail_trips)


def test_empty_subset_fault_degrades_the_picker_only(trained_bundle):
    """A degenerate empty subset trips the picker (full-set tuning) but
    leaves the healthy RL stopper in charge -- bit-for-bit an HSTuner
    run driven by the same RL stopper."""
    _, normalizer, agents = trained_bundle
    faulted = build_tunio(
        make_sim("empty-subset", at=0), copy.deepcopy(agents), normalizer,
        rng=np.random.default_rng(22),
    )
    degraded = faulted.tune(flash(), max_iterations=8)

    ref_agents = copy.deepcopy(agents)
    reference = HSTuner(
        make_sim(),
        stopper=TunIO(ref_agents.smart_config, ref_agents.early_stopper, normalizer),
        rng=np.random.default_rng(22),
    ).tune(flash(), max_iterations=8)

    assert_same_run(degraded, reference)
    guardrails = {t.guardrail for t in faulted.guardrails.trips}
    assert guardrails == {"subset-picker"}
    assert degraded.guardrail_trips == (
        "subset-picker:invalid-output at iteration 1 "
        "(picker returned an empty subset)",
    )


def test_stop_now_fault_degrades_the_stopper_only(trained_bundle):
    """A policy forced to "always stop" is caught by the warm-up
    watchdog; the run then matches TunIO wired with the fallback
    heuristic stopper but the same healthy subset picker."""
    _, normalizer, agents = trained_bundle
    faulted = build_tunio(
        make_sim("stop-now", at=0), copy.deepcopy(agents), normalizer,
        rng=np.random.default_rng(23),
    )
    degraded = faulted.tune(flash(), max_iterations=8)

    reference = build_tunio(
        make_sim(), copy.deepcopy(agents), normalizer,
        stopper=HeuristicStopper(),
        rng=np.random.default_rng(23),
    ).tune(flash(), max_iterations=8)

    assert_same_run(degraded, reference)
    guardrails = {t.guardrail for t in faulted.guardrails.trips}
    assert guardrails == {"early-stopper"}
    assert degraded.guardrail_trips == (
        "early-stopper:degenerate-policy at iteration 1 (stop requested at "
        "iteration 1, inside the 4-iteration warm-up, 2 times in a row)",
    )


def test_constant_subset_fault_trips_the_watchdog(trained_bundle):
    """A policy collapsed onto one small subset is detected after
    ``CONSTANT_WINDOW`` identical picks; the run completes degraded."""
    _, normalizer, agents = trained_bundle
    tuner = build_tunio(
        make_sim("constant-subset", at=1), copy.deepcopy(agents), normalizer,
        stopper=NoStop(),
        rng=np.random.default_rng(24),
    )
    result = tuner.tune(flash(), max_iterations=12)
    assert len(result.history) == 12  # completed despite the fault
    assert result.guardrail_trips == (
        "subset-picker:degenerate-policy at iteration 6 "
        "(subset ('striping_factor', 'cb_nodes') repeated 6 times)",
    )
    # After the trip the pipeline tunes the full parameter set again.
    assert len(result.history[-1].tuned_parameters) == 12


def test_degraded_picker_repeats_cleanly_on_reset(trained_bundle):
    """tune() re-arms the guardrails: a second run on the same tuner
    re-earns its trips instead of inheriting stale ones."""
    _, normalizer, agents = trained_bundle
    faulted = build_tunio(
        make_sim("empty-subset", at=0), copy.deepcopy(agents), normalizer,
        rng=np.random.default_rng(25),
    )
    first = faulted.tune(flash(), max_iterations=4)
    first_trips = first.guardrail_trips
    assert first_trips
    second = faulted.tune(flash(), max_iterations=4)
    assert second.guardrail_trips  # re-earned, not accumulated forever
    assert len(second.guardrail_trips) <= len(first_trips) * 2


# ---------------------------------------------------------------------------
# journaled resume
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("agent_fault", [None, "nan-weights"])
def test_journaled_tunio_resume_is_bit_identical(
    trained_bundle, tmp_path, agent_fault
):
    """A TunIO tune cut after 4 of 10 journaled generations resumes to
    the uninterrupted run: same history, best config, journal bytes and
    guardrail trips.  With ``nan-weights`` engaging at iteration 6, both
    agents trip after the cut, so the replayed generations must leave
    the agents exactly where the live run had them."""
    _, normalizer, agents = trained_bundle

    def tuner():
        plan = FaultPlan(
            seed=1, transient_error_rate=0.1,
            agent_fault=agent_fault, agent_fault_at=6,
        )
        sim = IOStackSimulator(cori(4), NoiseModel(seed=77), faults=plan)
        return build_tunio(
            sim, copy.deepcopy(agents), normalizer,
            rng=np.random.default_rng(26), cache=EvaluationCache(),
        )

    full_path, cut_path = tmp_path / "full.journal", tmp_path / "cut.journal"
    with JournalWriter(str(full_path), header={}) as writer:
        live = tuner()
        live.attach_journal(writer)
        full = live.tune(flash(), max_iterations=10)
    lines = full_path.read_text().splitlines(keepends=True)
    cut_path.write_text("".join(lines[: 2 + 4]))  # header, baseline, 4 generations

    journal = load_journal(str(cut_path))
    with JournalWriter(str(cut_path), header={}, resume_from=journal) as writer:
        replaying = tuner()
        replaying.attach_journal(writer, replay=ReplayCursor(journal))
        resumed = replaying.tune(flash(), max_iterations=10)

    assert len(full.history) > 4  # the cut falls before the run ended
    assert resumed.history == full.history
    assert resumed.best_config == full.best_config
    assert cut_path.read_bytes() == full_path.read_bytes()
    assert resumed.guardrail_trips == full.guardrail_trips
    tripped = {t.guardrail for t in replaying.guardrails.trips}
    if agent_fault is None:
        assert not tripped
    else:
        assert tripped == {"subset-picker", "early-stopper"}


# ---------------------------------------------------------------------------
# checkpoint guardrails
# ---------------------------------------------------------------------------


def test_truncated_checkpoint_is_rejected_as_checkpoint_error(
    trained_bundle, tmp_path
):
    _, normalizer, agents = trained_bundle
    path = tmp_path / "agents.npz"
    save_agents(agents, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated or corrupted"):
        load_agents(path, normalizer)


def test_intact_checkpoint_round_trips(trained_bundle, tmp_path):
    _, normalizer, agents = trained_bundle
    path = tmp_path / "agents.npz"
    save_agents(agents, path)
    loaded = load_agents(path, normalizer, seed=0)
    assert np.array_equal(loaded.impact_scores, agents.impact_scores)


def test_missing_checkpoint_stays_file_not_found(trained_bundle, tmp_path):
    """ENOENT is not corruption: the CLI's train-then-save path depends
    on the distinction."""
    _, normalizer, _ = trained_bundle
    with pytest.raises(FileNotFoundError):
        load_agents(tmp_path / "absent.npz", normalizer)
