"""The tunio-tune CLI (smoke coverage at tiny budgets)."""

import json
import shutil

import pytest

from repro.core.cli import build_parser, build_resume_parser, main
from repro.tuners.journal import JOURNAL_VERSION


def test_parser_defaults():
    args = build_parser().parse_args(["flash"])
    assert args.workload == "flash"
    assert args.tuner == "tunio"
    assert args.iterations == 50


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gromacs"])


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--fault-seed", "-1", "--fault-rate", "0.1"]]
)
def test_negative_seed_rejected_naming_the_seed(flags, capsys):
    with pytest.raises(SystemExit) as err:
        main(["flash", "--tuner", "hstuner", *flags])
    assert err.value.code == 2
    assert f"{flags[0]} must be >= 0" in capsys.readouterr().err


def test_hstuner_run(capsys):
    assert main(["flash", "--tuner", "hstuner", "--iterations", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "iter   0" in out
    assert "H5Tuner override file:" in out
    assert "<Parameters>" in out


def test_heuristic_run(capsys):
    assert main(["hacc", "--tuner", "hstuner-heuristic", "--iterations", "3"]) == 0
    assert "final:" in capsys.readouterr().out


def test_kernel_run(capsys):
    assert main([
        "macsio", "--tuner", "hstuner", "--iterations", "2",
        "--loop-reduction", "0.01",
    ]) == 0
    out = capsys.readouterr().out
    assert "using I/O kernel" in out


def _from_tuning_on(out: str) -> list[str]:
    """The lines a run prints from its ``tuning …`` line on."""
    lines = out.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("tuning ")]
    assert len(starts) == 1, out
    return lines[starts[0]:]


def test_agents_cache_roundtrip(tmp_path, capsys):
    """A run that trains and saves its agents and a run that loads them
    build the run's agents alike, so they tune alike."""
    cache = tmp_path / "agents.npz"
    assert main(["flash", "--iterations", "2", "--agents-cache", str(cache)]) == 0
    assert cache.exists()
    trained = capsys.readouterr().out
    assert "saved trained agents" in trained
    assert main(["flash", "--iterations", "2", "--agents-cache", str(cache)]) == 0
    loaded = capsys.readouterr().out
    assert "loading trained agents" in loaded
    assert "offline training" not in loaded
    assert _from_tuning_on(loaded) == _from_tuning_on(trained)


def test_new_agents_cache_journal_resumes_byte_identically(tmp_path, capsys):
    """The run trains its agents into a new cache; its resume loads
    them.  The GA stream does not follow the training, so the resumed
    journal equals the uninterrupted one."""
    cache, journal = tmp_path / "agents.npz", tmp_path / "t.journal"
    assert main([
        "ior", "--iterations", "4", "--seed", "3",
        "--agents-cache", str(cache), "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    lines = open(journal).readlines()
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(lines[:4]))  # header, baseline, 2 generations
    assert main(["resume", str(cut)]) == 0
    assert "loading trained agents" in capsys.readouterr().out
    assert cut.read_bytes() == journal.read_bytes()


@pytest.mark.guardrails
def test_checkpoint_truncation_of_a_new_cache_trips(
    trained_bundle, tmp_path, capsys, monkeypatch
):
    """With a cache path that does not exist yet, the agents are trained
    and saved, then the fault truncates the saved checkpoint before it
    is loaded: the run degrades and reports the trip.  (The session's
    agents stand in for the training, which this test is not about.)"""
    from repro.core import cli

    monkeypatch.setattr(cli, "train_seeded_agents", lambda seed: trained_bundle[2])
    cache = tmp_path / "agents.npz"
    assert main([
        "flash", "--iterations", "2", "--seed", "5",
        "--agents-cache", str(cache), "--fault-agent", "checkpoint-truncation",
    ]) == 0
    out = capsys.readouterr().out
    assert "saved trained agents" in out
    assert "truncated agent checkpoint" in out
    assert "guardrails: 1 trip(s)" in out
    assert "checkpoint:schema" in out


@pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "nan"])
def test_loop_reduction_out_of_range_exit_2(fraction, capsys):
    """``--loop-reduction 0`` is refused as a usage error, not taken to
    mean "tune the full application"."""
    with pytest.raises(SystemExit) as err:
        main(["macsio", "--tuner", "hstuner", "--iterations", "1",
              "--loop-reduction", fraction])
    assert err.value.code == 2
    assert "--loop-reduction must be in (0, 1]" in capsys.readouterr().err


def test_empty_path_switch_is_refused(capsys):
    """``--path-switch ""`` reaches the reducer, which refuses it,
    instead of being ignored."""
    assert main(["macsio", "--tuner", "hstuner", "--iterations", "1",
                 "--path-switch", ""]) == 2
    assert "prefix must be an absolute path" in capsys.readouterr().err


def test_kernel_mode_requires_bundled_source(capsys):
    assert main(["ior", "--use-kernel", "--iterations", "2"]) == 2
    assert "no bundled C source" in capsys.readouterr().err


def test_ior_workload_runs(capsys):
    assert main(["ior", "--tuner", "hstuner", "--iterations", "2"]) == 0
    assert "final:" in capsys.readouterr().out


# -- fault / resilience flags --------------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        ["--fault-rate", "1.5"],
        ["--fault-straggler-rate", "-0.1"],
        ["--fault-straggler-slowdown", "0.5"],
        ["--fault-window", "10:5:2"],
        ["--max-retries", "-1"],
        ["--eval-timeout", "0"],
    ],
)
def test_bad_fault_flags_rejected(flags):
    with pytest.raises(SystemExit):
        main(["ior", *flags])


@pytest.mark.faults
def test_faulted_run_reports_resilience(capsys):
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "4", "--seed", "3",
        "--fault-rate", "0.2", "--fault-straggler-rate", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "fault injection armed" in out
    assert "resilience:" in out
    assert "faults injected" in out


def test_fault_free_run_omits_resilience_line(capsys):
    assert main(["ior", "--tuner", "hstuner", "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert "fastpath:" in out
    assert "resilience:" not in out


# -- journal / resume ----------------------------------------------------------


def test_resume_parser():
    args = build_resume_parser().parse_args(["t.journal", "--iterations", "9"])
    assert args.journal == "t.journal"
    assert args.iterations == 9


@pytest.mark.faults
def test_journal_then_resume_reproduces_the_run(tmp_path, capsys):
    journal = tmp_path / "t.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "4", "--seed", "3",
        "--fault-rate", "0.15", "--journal", str(journal),
    ]) == 0
    full_out = capsys.readouterr().out
    full_records = [json.loads(line) for line in open(journal)]
    assert full_records[-1]["type"] == "final"

    # kill after two generations: keep header, baseline, gen0, gen1 + torn tail
    lines = open(journal).readlines()
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(lines[:4]) + lines[4][:25])

    assert main(["resume", str(cut)]) == 0
    resumed_out = capsys.readouterr().out
    assert "resuming ior" in resumed_out
    assert [json.loads(line) for line in open(cut)][1:] == full_records[1:]

    def history(text):
        return [l for l in text.splitlines()
                if l.startswith(("baseline", "iter", "final", "resilience"))]

    assert history(resumed_out) == history(full_out)


def test_resume_of_a_journal_damaged_mid_file_maps_to_exit_3(tmp_path, capsys):
    """A complete line cut short in the middle of a journal is damage,
    not a torn append: resume names the line, exits 3 and leaves the
    file untouched (it must not truncate it and re-run the rest)."""
    journal = tmp_path / "j.jsonl"
    assert main([
        "flash", "--tuner", "hstuner", "--iterations", "6", "--seed", "3",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    lines = open(journal).readlines()
    lines[3] = lines[3][:40] + "\n"  # generation 1, newline kept
    journal.write_text("".join(lines))
    damaged = journal.read_bytes()
    assert main(["resume", str(journal)]) == 3
    captured = capsys.readouterr()
    assert f"{journal}:4: " in captured.err and "resuming" not in captured.out
    assert journal.read_bytes() == damaged


def test_resume_of_a_version_1_journal_maps_to_exit_3(tmp_path, capsys):
    """Version 1 journals drew transient faults per trace build, so their
    faulted runs would resume onto a different fault schedule: they are
    refused, not replayed."""
    journal = tmp_path / "v1.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "3", "--seed", "3",
        "--fault-rate", "0.15", "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    lines = open(journal).readlines()
    header = json.loads(lines[0])
    assert header["version"] == JOURNAL_VERSION == 2
    header["version"] = 1
    journal.write_text(json.dumps(header) + "\n" + "".join(lines[1:3]))
    before = journal.read_bytes()
    assert main(["resume", str(journal)]) == 3
    assert "unsupported journal version 1" in capsys.readouterr().err
    assert journal.read_bytes() == before


def test_resume_of_completed_journal_is_refused(tmp_path, capsys):
    journal = tmp_path / "t.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "2",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    assert main(["resume", str(journal)]) == 1
    assert "nothing to resume" in capsys.readouterr().err


def test_resume_of_a_journal_with_records_after_final_maps_to_exit_3(
    tmp_path, capsys
):
    journal = tmp_path / "t.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "2",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    lines = open(journal).readlines()
    with open(journal, "a") as fh:
        fh.write(lines[-2])  # the last generation again, after final
    assert main(["resume", str(journal)]) == 3
    err = capsys.readouterr().err
    assert f"{journal}:{len(lines) + 1}: generation record after the final" in err


def test_resume_below_the_journaled_generations_is_refused(tmp_path, capsys):
    """A budget smaller than what the journal already records would
    orphan the journaled generations behind a premature final marker."""
    journal = tmp_path / "t.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "8", "--seed", "3",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(open(journal).readlines()[:8]))  # 6 generations
    before = cut.read_bytes()
    with pytest.raises(SystemExit) as err:
        main(["resume", str(cut), "--iterations", "3"])
    assert err.value.code == 2
    assert "6 journaled generations" in capsys.readouterr().err
    assert cut.read_bytes() == before


def write_header(path, args):
    header = {"type": "header", "version": JOURNAL_VERSION, "args": args}
    path.write_text(json.dumps(header) + "\n")


@pytest.mark.parametrize("args", [
    {"tuner": "hstuner", "iterations": 3},
    {"workload": "nosuchapp", "tuner": "hstuner", "iterations": 3},
])
def test_resume_needs_a_known_recorded_workload(tmp_path, capsys, args):
    journal = tmp_path / "t.journal"
    write_header(journal, args)
    assert main(["resume", str(journal)]) == 3
    assert "workload" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"iterations": 0}, {"fault_rate": 1.5}])
def test_resume_validates_the_recorded_invocation(tmp_path, capsys, bad):
    journal = tmp_path / "t.journal"
    write_header(journal, {"workload": "ior", "tuner": "hstuner", "iterations": 3, **bad})
    with pytest.raises(SystemExit) as err:
        main(["resume", str(journal)])
    assert err.value.code == 2
    assert "resuming" not in capsys.readouterr().out


# -- observability flags -------------------------------------------------------


@pytest.mark.observability
def test_trace_and_metrics_flags_write_files(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "3", "--seed", "3",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ]) == 0
    out = capsys.readouterr().out
    assert "fastpath:" in out
    assert f"metrics written to {metrics}" in out

    events = [json.loads(line) for line in open(trace)]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_args" and kinds[-1] == "run_end"
    assert "generation" in kinds
    assert events[0]["args"]["seed"] == 3 and events[0]["resumed"] is False

    snapshot = json.load(open(metrics))
    assert list(snapshot) == ["counters", "gauges"]
    assert snapshot["counters"]["run.iterations"] == 3
    assert "cache.hit_rate" in snapshot["gauges"]


@pytest.mark.observability
def test_metrics_out_creates_its_parent_directory(tmp_path, capsys):
    """Like ``--trace-out`` and ``--journal``, ``--metrics-out`` creates a
    missing parent directory rather than failing after the tune."""
    metrics = tmp_path / "missing" / "nested" / "metrics.json"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "2",
        "--metrics-out", str(metrics),
    ]) == 0
    out = capsys.readouterr().out
    assert f"metrics written to {metrics}" in out
    assert "H5Tuner override file:" in out
    assert json.load(open(metrics))["counters"]["run.iterations"] == 2


@pytest.mark.observability
def test_resume_metrics_out_creates_its_parent_directory(tmp_path, capsys):
    journal = tmp_path / "full.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "3", "--seed", "3",
        "--journal", str(journal),
    ]) == 0
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(open(journal).readlines()[:3]))
    capsys.readouterr()
    metrics = tmp_path / "missing" / "metrics.json"
    assert main(["resume", str(cut), "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert f"metrics written to {metrics}" in out
    assert "H5Tuner override file:" in out
    assert json.load(open(metrics))["counters"]["run.iterations"] == 3
    assert cut.read_bytes() == journal.read_bytes()


@pytest.mark.observability
def test_metrics_out_equals_the_report_rebuilt_from_the_trace(tmp_path, capsys):
    """One counter record per run: the counters ``--metrics-out`` writes
    equal the ones ``tunio-report --json`` rebuilds from the same run's
    trace, and a resume from a cut journal reports the same run counters.
    Its cache and build counters count its own memo work only."""
    from repro.observability.report import main as report_main

    def counters(name, argv):
        metrics, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        assert main([
            *argv, "--metrics-out", str(metrics), "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        written = json.load(open(metrics))["counters"]
        assert report_main([str(trace), "--json"]) == 0
        rebuilt = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        assert written == rebuilt
        return written

    journal = tmp_path / "full.journal"
    full = counters("full", [
        "ior", "--tuner", "hstuner", "--iterations", "6", "--seed", "3",
        "--fault-rate", "0.15", "--journal", str(journal),
    ])
    assert full["resilience.retries"] > 0
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(open(journal).readlines()[:4]))
    resumed = counters("resumed", ["resume", str(cut)])

    memo = ("cache.hits", "cache.misses", "trace.built", "trace.reuse")

    def run(c):
        assert set(memo) <= set(c)
        return {k: v for k, v in c.items() if k not in memo}

    assert run(resumed) == run(full)
    # two of the six generations were replayed, so the resume looked up less
    assert (resumed["cache.hits"] + resumed["cache.misses"]
            < full["cache.hits"] + full["cache.misses"])
    assert resumed["trace.built"] == resumed["cache.misses"]


@pytest.mark.observability
def test_traced_run_is_bit_identical_to_untraced(tmp_path, capsys):
    argv = ["ior", "--tuner", "hstuner", "--iterations", "3", "--seed", "3"]
    assert main(argv) == 0
    bare = capsys.readouterr().out
    assert main([*argv, "--trace-out", str(tmp_path / "run.jsonl")]) == 0
    traced = capsys.readouterr().out
    assert traced == bare  # tracing changes nothing the user sees


@pytest.mark.observability
def test_report_reconstructs_the_run_from_the_trace(tmp_path, capsys):
    from repro.observability.report import main as report_main

    trace = tmp_path / "run.jsonl"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "3", "--seed", "3",
        "--trace-out", str(trace),
    ]) == 0
    live = capsys.readouterr().out
    assert report_main([str(trace)]) == 0
    report = capsys.readouterr().out

    def summary(text):
        return [l for l in text.splitlines()
                if l.startswith(("baseline", "iter", "final", "fastpath"))]

    assert summary(report) == summary(live)
    assert "roti: peak" in report


@pytest.mark.observability
def test_resume_traces_the_whole_run(tmp_path, capsys):
    """A resume trace re-emits replayed generations, so tunio-report on
    it sees the complete run."""
    from repro.observability.report import main as report_main

    journal = tmp_path / "t.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "4", "--seed", "3",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    lines = open(journal).readlines()
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(lines[:4]))  # header + baseline + 2 generations

    trace = tmp_path / "resumed.jsonl"
    assert main(["resume", str(cut), "--trace-out", str(trace)]) == 0
    resumed_out = capsys.readouterr().out
    assert report_main([str(trace)]) == 0
    report = capsys.readouterr().out
    assert "4 iterations" in report
    for line in resumed_out.splitlines():
        if line.startswith(("baseline", "iter", "final:")):
            assert line in report


# -- friendly error mapping ----------------------------------------------------


def test_resume_missing_journal_maps_to_exit_3(capsys):
    assert main(["resume", "/nonexistent/path.journal"]) == 3
    assert "journal error" in capsys.readouterr().err


def test_resume_foreign_journal_maps_to_exit_3(tmp_path, capsys):
    bogus = tmp_path / "b.journal"
    bogus.write_text(json.dumps({"type": "header", "version": JOURNAL_VERSION}) + "\n")
    assert main(["resume", str(bogus)]) == 3
    assert "not written by tunio-tune" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"type": "generation", "iteration": 0},
    {"type": "baseline", "perf": "abc", "noise_position": 0, "n_evaluations": 1},
], ids=["missing-field", "wrong-type"])
def test_resume_malformed_record_maps_to_exit_3(tmp_path, capsys, bad):
    journal = tmp_path / "t.journal"
    header = {"type": "header", "version": JOURNAL_VERSION, "args": {"workload": "ior"}}
    journal.write_text(json.dumps(header) + "\n" + json.dumps(bad) + "\n")
    assert main(["resume", str(journal)]) == 3
    err = capsys.readouterr().err
    assert "journal error" in err and f"{journal}:2: malformed" in err


# -- guardrails / constraints --------------------------------------------------


@pytest.mark.guardrails
@pytest.mark.parametrize(
    "flags",
    [
        ["--iterations", "0"],
        ["--retry-backoff", "-1"],
        ["--eval-timeout", "-5"],
        ["--max-retries", "-1"],
        ["--fault-agent-at", "-2", "--fault-agent", "nan-weights"],
        ["--fault-agent", "checkpoint-truncation"],  # needs --agents-cache
        ["--expected-runs", "0"],  # refused before offline training
        ["--tuner", "hstuner", "--fault-agent", "nan-weights"],  # no agent
    ],
)
def test_contradictory_flags_rejected_with_usage_error(flags):
    with pytest.raises(SystemExit) as err:
        main(["ior", *flags])
    assert err.value.code == 2


# -- removed worker, disk-cache and profiler flags -----------------------------


@pytest.mark.parametrize(
    "flags",
    [
        ["--workers", "2"],
        ["--cache-dir", "/tmp/x"],
        ["--batch-workers", "2"],
        ["--no-eval-cache"],
        ["--profile"],
    ],
)
def test_bad_fastpath_flags_exit_2(flags):
    """Tuning runs one serial worker model through one cached
    evaluation path, and perfbench's tracer is the one layer timer: the
    pool, disk-cache, cache-off and profiler flags are gone and are
    refused as unknown options, on a run and on a resume."""
    for argv in (["ior", *flags], ["resume", "whatever.journal", *flags]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.guardrails
def test_resume_rejects_no_eval_cache(capsys):
    """The evaluation cache cannot be switched off, on resume either:
    the flag is refused up front as an unknown option."""
    with pytest.raises(SystemExit) as err:
        main(["resume", "whatever.journal", "--no-eval-cache"])
    assert err.value.code == 2
    assert "unrecognized arguments: --no-eval-cache" in capsys.readouterr().err


@pytest.mark.observability
def test_resume_drops_flags_this_build_no_longer_defines(tmp_path, capsys):
    """A journal whose header records flags an older build defined
    (``--no-eval-cache``, ``--workers``, ``--profile``) resumes: the
    stale keys are dropped, so they reach neither the run nor its
    trace's run_args."""
    journal = tmp_path / "t.journal"
    assert main([
        "ior", "--tuner", "hstuner", "--iterations", "4", "--seed", "3",
        "--fault-rate", "0.15", "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    lines = open(journal).readlines()
    header = json.loads(lines[0])
    header["args"].update(no_eval_cache=True, workers=2, profile=True)
    cut = tmp_path / "cut.journal"
    cut.write_text(json.dumps(header) + "\n" + "".join(lines[1:4]))

    trace = tmp_path / "resumed.jsonl"
    assert main(["resume", str(cut), "--trace-out", str(trace)]) == 0
    run_args = json.loads(open(trace).readline())
    assert run_args["event"] == "run_args"
    assert "no_eval_cache" not in run_args["args"]
    assert "workers" not in run_args["args"]
    assert "profile" not in run_args["args"]
    assert open(cut).readlines()[1:] == lines[1:]


@pytest.mark.guardrails
def test_unknown_agent_fault_mode_rejected():
    with pytest.raises(SystemExit):
        main(["ior", "--fault-agent", "gamma-rays"])


@pytest.mark.guardrails
def test_constraints_flag_arms_and_reports(capsys):
    assert main([
        "flash", "--tuner", "hstuner-heuristic", "--iterations", "2",
        "--constraints",
    ]) == 0
    out = capsys.readouterr().out
    assert "constraints:" in out
    assert "rules armed" in out
    assert "final:" in out


@pytest.mark.guardrails
def test_agent_fault_degrades_and_reports(agents_checkpoint, tmp_path, capsys):
    """End-to-end acceptance: with an agent fault injected, the run
    completes, falls back to plain-GA tuning, and reports the trips on
    a ``guardrails:`` line."""
    cache = tmp_path / "agents.npz"
    shutil.copyfile(agents_checkpoint, cache)
    assert main([
        "flash", "--iterations", "2", "--seed", "5",
        "--agents-cache", str(cache),
    ]) == 0
    capsys.readouterr()
    assert main([
        "flash", "--iterations", "4", "--seed", "5",
        "--agents-cache", str(cache),
        "--fault-agent", "nan-weights", "--fault-agent-at", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "fault injection armed" in out and "agent=nan-weights@1" in out
    assert "guardrails:" in out
    assert "degraded to plain-GA behaviour" in out
    assert "non-finite-weights" in out
    assert "final:" in out


@pytest.mark.guardrails
def test_truncated_checkpoint_degrades_and_reports(agents_checkpoint, tmp_path, capsys):
    from repro.observability.report import main as report_main

    cache = tmp_path / "agents.npz"
    shutil.copyfile(agents_checkpoint, cache)
    assert main([
        "flash", "--iterations", "2", "--seed", "5",
        "--agents-cache", str(cache),
    ]) == 0
    capsys.readouterr()
    metrics, trace = tmp_path / "metrics.json", tmp_path / "run.jsonl"
    assert main([
        "flash", "--iterations", "3", "--seed", "5",
        "--agents-cache", str(cache),
        "--fault-agent", "checkpoint-truncation",
        "--metrics-out", str(metrics), "--trace-out", str(trace),
    ]) == 0
    captured = capsys.readouterr()
    assert "rejected" in captured.err or "checkpoint" in captured.err
    assert "degraded" in captured.out
    assert "guardrails: 1 trip(s)" in captured.out
    assert "checkpoint:schema" in captured.out
    # the rejected checkpoint is the run's one trip, in both snapshots
    assert json.load(open(metrics))["counters"]["guardrail.trips"] == 1
    assert report_main([str(trace), "--json"]) == 0
    rebuilt = json.loads(capsys.readouterr().out)
    assert rebuilt["metrics"]["counters"]["guardrail.trips"] == 1
