"""The tuning journal: crash-safe writes, replay, bit-identical resume,
and tuning under injected faults (the robustness acceptance tests)."""

import json

import numpy as np
import pytest

from repro.iostack import (
    EvaluationCache,
    FaultPlan,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    TransientFaultError,
    cori,
)
from repro.observability.metrics import (
    metrics_snapshot,
    resilience_line,
    snapshot_degraded,
)
from repro.tuners.hstuner import HSTuner
from repro.tuners.journal import (
    JOURNAL_VERSION,
    BaselineRecord,
    JournalError,
    JournalWriter,
    ReplayCursor,
    load_journal,
)
from repro.tuners.resilience import HarnessError, RetryPolicy
from repro.tuners.stoppers import NoStop
from repro.workloads import flash
from tests.conftest import make_workload


def make_tuner(faults=None, **kwargs):
    """A small deterministic tuner; call twice for identical twins."""
    sim = IOStackSimulator(cori(2), NoiseModel(seed=11), faults=faults)
    kwargs.setdefault("population_size", 4)
    return HSTuner(
        sim,
        stopper=NoStop(),
        rng=np.random.default_rng(7),
        **kwargs,
    )


def journal_bodies(path):
    """All records after the header, parsed."""
    return [json.loads(line) for line in open(path)][1:]


# -- journal file format -------------------------------------------------------


def test_load_rejects_missing_empty_and_headerless(tmp_path):
    with pytest.raises(JournalError, match="not found"):
        load_journal(str(tmp_path / "nope.journal"))
    empty = tmp_path / "empty.journal"
    empty.write_text("")
    with pytest.raises(JournalError, match="empty"):
        load_journal(str(empty))
    headerless = tmp_path / "headerless.journal"
    headerless.write_text('{"type":"baseline","perf":1.0,'
                          '"noise_position":0,"n_evaluations":1}\n')
    with pytest.raises(JournalError, match="header"):
        load_journal(str(headerless))


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "v.journal"
    path.write_text(
        json.dumps({"type": "header", "version": JOURNAL_VERSION + 1}) + "\n"
    )
    with pytest.raises(JournalError, match="version"):
        load_journal(str(path))


def test_load_rejects_out_of_order_generations(tmp_path):
    path = tmp_path / "o.journal"
    gen = {
        "type": "generation", "iteration": 1, "dispatched": [], "perfs": [],
        "population": [], "subset": [], "noise_position": 0,
        "clock_seconds": 0.0, "clock_evaluations": 0, "n_evaluations": 0,
        "rng_state": {},
    }
    path.write_text(
        json.dumps({"type": "header", "version": JOURNAL_VERSION}) + "\n"
        + json.dumps(gen) + "\n"
    )
    with pytest.raises(JournalError, match="out of order"):
        load_journal(str(path))


@pytest.mark.parametrize("record, problem", [
    ({"type": "generation", "iteration": 0}, "missing field 'dispatched'"),
    ({"type": "baseline", "perf": "abc", "noise_position": 0,
      "n_evaluations": 1}, "could not convert"),
], ids=["missing-field", "wrong-type"])
def test_load_rejects_a_complete_malformed_record(tmp_path, record, problem):
    """A whole line that fails to parse is damage, not a torn append:
    it is a journal error naming the line."""
    path = tmp_path / "m.journal"
    path.write_text(
        json.dumps({"type": "header", "version": JOURNAL_VERSION}) + "\n"
        + json.dumps(record) + "\n"
    )
    with pytest.raises(JournalError, match=f"m.journal:2: malformed .*{problem}"):
        load_journal(str(path))


@pytest.mark.parametrize("damage", [
    lambda line: line[:40] + "\n",  # cut short, newline kept
    lambda line: "[]\n",  # valid JSON, not an object
    lambda line: json.dumps({"perf": 1.0}) + "\n",  # no record type
], ids=["cut-short", "not-an-object", "untyped"])
def test_load_rejects_a_damaged_line_mid_file(tmp_path, damage):
    """Only a final line without its newline is a torn append; a damaged
    complete line is a journal error naming it, and loading leaves the
    file as it was."""
    path = tmp_path / "d.journal"
    tuner = make_tuner()
    tuner.attach_journal(JournalWriter(str(path), header={"h": 1}))
    tuner.tune(make_workload(), max_iterations=4)
    tuner._journal.writer.close()
    lines = open(path).readlines()
    lines[3] = damage(lines[3])
    path.write_text("".join(lines))
    before = path.read_bytes()
    with pytest.raises(JournalError, match="d.journal:4: "):
        load_journal(str(path))
    assert path.read_bytes() == before


def test_load_rejects_records_after_final(tmp_path):
    """A run ends with its final record: anything journaled after it
    (a second run appended to a finished journal) is a journal error
    naming the line, not extra generations of a completed run."""
    path = tmp_path / "f.journal"
    tuner = make_tuner()
    tuner.attach_journal(JournalWriter(str(path), header={"h": 1}))
    tuner.tune(make_workload(), max_iterations=2)
    tuner._journal.writer.close()
    lines = open(path).readlines()
    assert json.loads(lines[-1])["type"] == "final"
    with open(path, "a") as fh:
        fh.write(lines[2])  # a generation after the final record
    with pytest.raises(
        JournalError, match=f"f.journal:{len(lines) + 1}: generation record after the final"
    ):
        load_journal(str(path))


def test_torn_trailing_line_is_dropped_and_truncated_on_resume(tmp_path):
    path = tmp_path / "torn.journal"
    writer = JournalWriter(str(path), header={"k": "v"})
    writer.write_baseline(BaselineRecord(perf=1.0, noise_position=3,
                                         n_evaluations=1))
    writer.close()
    whole = path.read_text()
    path.write_text(whole + '{"type":"generation","iter')  # killed mid-append

    journal = load_journal(str(path))
    assert journal.baseline is not None
    assert journal.generations == []
    assert journal.valid_bytes == len(whole.encode())

    # resuming truncates the torn tail before appending
    resumed = JournalWriter(str(path), header={}, resume_from=journal)
    resumed.close()
    assert path.read_text() == whole
    reloaded = load_journal(str(path))
    assert reloaded.baseline == journal.baseline


def test_resume_writer_skips_already_recorded_records(tmp_path):
    path = tmp_path / "skip.journal"
    writer = JournalWriter(str(path), header={})
    record = BaselineRecord(perf=2.0, noise_position=3, n_evaluations=1)
    writer.write_baseline(record)
    writer.close()
    size = path.stat().st_size

    resumed = JournalWriter(str(path), header={},
                            resume_from=load_journal(str(path)))
    resumed.write_baseline(record)  # replayed by the resumed run
    resumed.close()
    assert path.stat().st_size == size  # nothing re-appended


def test_replay_cursor_hands_out_records_in_order(tmp_path):
    tuner = make_tuner()
    path = tmp_path / "c.journal"
    tuner.attach_journal(JournalWriter(str(path), header={}))
    tuner.tune(make_workload(), max_iterations=3)

    journal = load_journal(str(path))
    assert journal.completed and journal.last_iteration == 2
    cursor = ReplayCursor(journal)
    assert cursor.baseline() is journal.baseline
    assert cursor.baseline() is None  # consumed
    assert [cursor.next_generation().iteration for _ in range(3)] == [0, 1, 2]
    assert cursor.next_generation() is None


# -- bit-identical kill-and-resume ---------------------------------------------


def fault_plan(faults):
    """The plan the resume tests inject (None for fault-free runs)."""
    if not faults:
        return None
    return FaultPlan(seed=5, transient_error_rate=0.15, straggler_rate=0.08)


def run_and_kill_then_resume(
    tmp_path, faults, keep_generations, total=6, edit_record=None
):
    """Tune to completion; replay a truncated copy; return both journals.
    ``edit_record`` may rewrite each kept record (a parsed dict) before
    the resume, to simulate journals written by other builds."""
    full = tmp_path / "full.journal"
    tuner = make_tuner(faults=fault_plan(faults))
    tuner.attach_journal(JournalWriter(str(full), header={"h": 1}))
    tuner.tune(make_workload(), max_iterations=total)

    # keep header + baseline + k generations, plus a torn half-line
    lines = open(full).readlines()
    cut = tmp_path / "cut.journal"
    kept = lines[: 2 + keep_generations]
    if edit_record is not None:
        kept = kept[:1] + [
            json.dumps(edit_record(json.loads(line)), separators=(",", ":")) + "\n"
            for line in kept[1:]
        ]
    with open(cut, "w") as fh:
        fh.writelines(kept)
        fh.write(lines[2 + keep_generations][:40])

    journal = load_journal(str(cut))
    assert journal.last_iteration == keep_generations - 1
    resumed = make_tuner(faults=fault_plan(faults))
    resumed.attach_journal(
        JournalWriter(str(cut), header={"h": 1}, resume_from=journal),
        replay=ReplayCursor(journal),
    )
    result = resumed.tune(make_workload(), max_iterations=total)
    return full, cut, result


def test_kill_and_resume_is_bit_identical(tmp_path):
    full, cut, result = run_and_kill_then_resume(
        tmp_path, faults=False, keep_generations=2
    )
    assert journal_bodies(full) == journal_bodies(cut)
    assert result.stop_reason == "budget"


#: ``EvaluationStats`` fields that count the process's own trace-cache
#: work.  The journal does not carry them: a resumed run counts only its
#: own lookups and builds.
MEMO_COUNTERS = ("cache_hits", "cache_misses", "traces_built")


def run_counters(stats):
    """Every ``EvaluationStats`` counter except the memo ones and
    ``restored_replays``, which only a resumed run sets."""
    counters = stats.as_dict()
    assert set(MEMO_COUNTERS) <= set(counters)
    excluded = (*MEMO_COUNTERS, "restored_replays")
    return {k: v for k, v in counters.items() if k not in excluded}


@pytest.mark.parametrize("keep_generations", [1, 3, 5])
@pytest.mark.parametrize("faults", [False, True])
def test_resumed_run_reports_the_fresh_runs_run_counters(
    tmp_path, faults, keep_generations
):
    """A resumed run restores every run counter from its journal, so it
    reports the uninterrupted run's evaluations, replays, retries,
    timeouts, quarantines and injected faults.  Its cache counters count
    what it did itself: one lookup per distinct configuration of each
    generation it ran live, starting from a cold cache."""
    full, _, resumed_result = run_and_kill_then_resume(
        tmp_path, faults=faults, keep_generations=keep_generations
    )
    fresh_result = make_tuner(faults=fault_plan(faults)).tune(
        make_workload(), max_iterations=6
    )
    fresh, resumed = fresh_result.eval_stats, resumed_result.eval_stats
    assert run_counters(resumed) == run_counters(fresh)
    assert fresh.restored_replays == 0
    # the baseline's and replayed generations' replays, as journaled
    kept = journal_bodies(full)[keep_generations]
    assert resumed.restored_replays == kept["trace_replays"]
    assert resumed.quarantined == 0  # so every live configuration was looked up

    live = journal_bodies(full)[1 + keep_generations:-1]
    lookups = sum(len({tuple(g) for g in record["dispatched"]}) for record in live)
    assert resumed.cache_hits + resumed.cache_misses == lookups
    assert resumed.traces_built == resumed.cache_misses
    assert lookups < fresh.cache_hits + fresh.cache_misses


@pytest.mark.faults
def test_resumed_run_counts_only_its_own_trace_reuse(tmp_path):
    """Trace reuse is this process's replays minus its builds: the
    replays of the generations a resume answered from its journal were
    never performed here, so they do not count as reuse."""
    full, _, result = run_and_kill_then_resume(
        tmp_path, faults=True, keep_generations=2
    )
    resumed = result.eval_stats
    own_replays = resumed.trace_replays - journal_bodies(full)[2]["trace_replays"]
    assert resumed.retries > 0
    assert 0 < own_replays < resumed.trace_replays
    assert resumed.trace_reuse == own_replays - resumed.traces_built > 0
    fresh = make_tuner(faults=fault_plan(True)).tune(
        make_workload(), max_iterations=6
    ).eval_stats
    assert fresh.trace_replays == resumed.trace_replays
    assert fresh.trace_reuse == fresh.trace_replays - fresh.traces_built


@pytest.mark.parametrize("faults", [False, True])
def test_resume_accepts_journals_with_retired_counters(tmp_path, faults):
    """Records written by older builds of this journal version may carry
    counters this build no longer journals: the trace cache's
    ``fastpath`` dict (with the disk cache's ``disk_*`` keys) and
    ``fallbacks`` in ``resilience``.  They are ignored; the resumed run
    equals the uninterrupted one."""

    def with_retired_counters(record):
        record["fastpath"] = dict(
            traces_built=9, cache_hits=8, cache_misses=7, cache_evictions=6,
            disk_hits=2, disk_misses=3, disk_stores=1,
        )
        if "resilience" in record:
            record["resilience"]["fallbacks"] = 4
        return record

    full, cut, resumed = run_and_kill_then_resume(
        tmp_path, faults=faults, keep_generations=3,
        edit_record=with_retired_counters,
    )
    fresh = make_tuner(faults=fault_plan(faults)).tune(
        make_workload(), max_iterations=6
    )
    assert resumed.history == fresh.history
    assert resumed.best_config == fresh.best_config
    assert run_counters(resumed.eval_stats) == run_counters(fresh.eval_stats)
    # Everything after the edited records is written exactly as before.
    assert journal_bodies(full)[4:] == journal_bodies(cut)[4:]


@pytest.mark.faults
def test_kill_and_resume_is_bit_identical_under_faults(tmp_path):
    full, cut, result = run_and_kill_then_resume(
        tmp_path, faults=True, keep_generations=3
    )
    assert journal_bodies(full) == journal_bodies(cut)
    assert result.eval_stats.faults_injected > 0


def test_resume_with_wrong_seed_is_detected(tmp_path):
    path = tmp_path / "j.journal"
    tuner = make_tuner()
    tuner.attach_journal(JournalWriter(str(path), header={}))
    tuner.tune(make_workload(), max_iterations=3)
    journal = load_journal(str(path))

    sim = IOStackSimulator(cori(2), NoiseModel(seed=11))
    wrong = HSTuner(sim, stopper=NoStop(), rng=np.random.default_rng(8),
                    population_size=4, cache=EvaluationCache())
    wrong.attach_journal(None, replay=ReplayCursor(journal))
    with pytest.raises(JournalError, match="different genomes|RNG state"):
        wrong.tune(make_workload(), max_iterations=3)


# -- tuning under faults (acceptance) ------------------------------------------


@pytest.mark.faults
def test_twenty_generation_tune_survives_injected_faults():
    """The headline robustness test: a 20-generation tune with a fault
    plan injecting failures completes without crashing, reports its
    counters, and lands within tolerance of the fault-free run."""
    w = make_workload()
    clean = make_tuner().tune(w, max_iterations=20)

    plan = FaultPlan(seed=5, transient_error_rate=0.12, straggler_rate=0.06)
    faulted = make_tuner(faults=plan).tune(w, max_iterations=20)

    stats = faulted.eval_stats
    snapshot = metrics_snapshot(faulted)
    assert stats is not None and snapshot_degraded(snapshot)
    assert stats.faults_injected > 0
    assert stats.faults_injected == (
        plan.transient_errors_injected + plan.stragglers_injected
    )
    assert stats.retries > 0
    assert resilience_line(snapshot) == (
        "14 faults injected, 8 retries, 0 timeouts, 0 quarantined"
    )
    # faults cost tuning time but must not wreck the search
    assert faulted.best_perf >= 0.5 * clean.best_perf
    assert faulted.total_minutes >= clean.total_minutes


def faulted_flash_run(tmp_path, name, seed, cache):
    """A journaled 12-generation FLASH tune under transient faults."""
    workload = flash()
    plan = FaultPlan(seed=seed, transient_error_rate=0.15)
    sim = IOStackSimulator(cori(workload.n_nodes), NoiseModel(seed=seed), faults=plan)
    tuner = HSTuner(
        sim, stopper=NoStop(), rng=np.random.default_rng(seed), cache=cache,
        retry_policy=RetryPolicy(max_retries=3),
    )
    path = tmp_path / f"{name}.journal"
    with JournalWriter(str(path), header={"seed": seed}) as writer:
        tuner.attach_journal(writer)
        result = tuner.tune(workload, max_iterations=12)
    return result, path.read_bytes()


class MissingCache(EvaluationCache):
    """A memo whose trace lookups always miss: every re-visited
    configuration is rebuilt."""

    def lookup(self, workload, config):
        return None


@pytest.mark.faults
@pytest.mark.parametrize("seed", [9, 11])
def test_fault_schedule_does_not_depend_on_the_cache(tmp_path, seed):
    """A transient fault belongs to an evaluation attempt, so a cache
    whose lookups always miss gives the same run as the default cache:
    same history, best config, simulated minutes, retries, injected
    faults and journal bytes."""
    default, default_bytes = faulted_flash_run(tmp_path, "default", seed, EvaluationCache())
    missing, missing_bytes = faulted_flash_run(tmp_path, "missing", seed, MissingCache())
    assert missing.history == default.history
    assert missing.best_config == default.best_config
    assert missing.total_minutes == default.total_minutes
    assert missing.eval_stats.retries == default.eval_stats.retries > 0
    assert missing.eval_stats.faults_injected == default.eval_stats.faults_injected
    assert missing_bytes == default_bytes
    # the memo did differ: the missing cache rebuilt re-visited configurations
    assert missing.eval_stats.cache_hits == 0 < default.eval_stats.cache_hits
    assert missing.eval_stats.traces_built > default.eval_stats.traces_built


@pytest.mark.faults
@pytest.mark.parametrize("max_retries", [1, 3])
def test_kill_after_a_faulted_baseline_resumes_bit_identically(tmp_path, max_retries):
    """The baseline record carries what the baseline's evaluation left:
    its retries and, when they ran out, the quarantined default
    configuration.  A journal cut right after it resumes to the
    uninterrupted run."""

    def attempts(seed):
        plan = FaultPlan(seed=seed, transient_error_rate=0.5)
        faulted = []
        for _ in range(3):
            try:
                plan.check_trace(StackConfiguration.default())
                faulted.append(False)
            except TransientFaultError:
                faulted.append(True)
        return faulted

    # the baseline's first two attempts fault and its third succeeds
    seed = next(s for s in range(100) if attempts(s) == [True, True, False])

    def tuner():
        plan = FaultPlan(seed=seed, transient_error_rate=0.5)
        return make_tuner(faults=plan, retry_policy=RetryPolicy(max_retries=max_retries))

    full, cut = tmp_path / "full.journal", tmp_path / "cut.journal"
    with JournalWriter(str(full), header={"h": 1}) as writer:
        live = tuner()
        live.attach_journal(writer)
        live.tune(make_workload(), max_iterations=3)
    baseline = journal_bodies(full)[0]
    assert baseline["resilience"]["retries"] >= 1
    assert bool(baseline["quarantine"]) == (max_retries == 1)
    cut.write_text("".join(open(full).readlines()[:2]))

    journal = load_journal(str(cut))
    with JournalWriter(str(cut), header={"h": 1}, resume_from=journal) as writer:
        resumed = tuner()
        resumed.attach_journal(writer, replay=ReplayCursor(journal))
        resumed.tune(make_workload(), max_iterations=3)
    assert cut.read_bytes() == full.read_bytes()


@pytest.mark.faults
def test_poisoned_config_is_quarantined_not_fatal():
    plan = FaultPlan(seed=0)
    plan.poison(StackConfiguration.default())  # the GA's seed individual
    tuner = make_tuner(faults=plan, retry_policy=RetryPolicy(max_retries=1))
    result = tuner.tune(make_workload(), max_iterations=4)
    assert result.eval_stats.quarantined >= 1
    assert result.baseline_perf == 0.0  # worst case served, not crashed
    assert result.best_perf > 0.0  # search still found live configs


# -- batch resilience ------------------------------------------------------------


def test_trace_bug_surfaces_with_the_config_repr():
    """A deterministic bug in trace construction re-raises out of the
    tune wrapped with the failing configuration's repr."""
    tuner = make_tuner()
    bare_trace = tuner.simulator.trace
    bad = StackConfiguration.default()

    def broken_for_default(workload, config, memo=None):
        if config == bad:
            raise ZeroDivisionError("layer model bug")
        return bare_trace(workload, config, memo)

    tuner.simulator.trace = broken_for_default
    with pytest.raises(HarnessError) as info:
        tuner.tune(make_workload(), max_iterations=2)
    assert repr(bad) in str(info.value)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
