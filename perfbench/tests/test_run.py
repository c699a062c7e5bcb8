"""The seed argument reaches every workload, and the command's output
contract holds (checked on a stand-in workload, so no training runs)."""

import json
import time

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS, RoundOutcome, Workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_come_from_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.inputs(3) == workload.inputs(3)
    assert workload.inputs(3) != workload.inputs(4)
    # distinct seeds never share derived sub-seeds
    flat = lambda inputs: {x if isinstance(x, int) else x[1] for x in inputs}  # noqa: E731
    assert not flat(workload.inputs(3)) & flat(workload.inputs(4))


class _Recording(Workload):
    name = "recording"
    setup_repeats = 2

    def __init__(self):
        self.seen = []

    def inputs(self, seed):
        self.seen.append(("inputs", seed))
        return (seed,)

    def imports(self):
        pass

    def setup(self, inputs, out_dir):
        self.seen.append(("setup", inputs))
        return inputs

    def run_round(self, state, tracer, quick=False):
        self.seen.append(("round", state))
        return RoundOutcome(attempted=1, digest=repr(state))


@pytest.fixture
def recording(monkeypatch, tmp_path):
    workload = _Recording()
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return workload


def test_seed_argument_reaches_the_workload(recording, capsys):
    argv = ["--workload", "recording", "--seed", "17", "--seconds", "0.01", "--trace", "0"]
    assert run.main(argv) == 0
    assert recording.seen[0] == ("inputs", 17)
    assert recording.seen[1:3] == [("setup", (17,)), ("setup", (17,))]
    assert all(state == (17,) for kind, state in recording.seen[3:])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.declared("end_to_end"))
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


class _Stepping(_Recording):
    """Two steps per round; the second step and the reference loop around
    it take half as long after the first round, as on a host that speeds
    up during a run."""

    name = "stepping"

    def run_round(self, state, tracer, quick=False):
        outcome = super().run_round(state, tracer, quick)
        late = sum(kind == "round" for kind, _ in self.seen) > 1
        outcome.steps = [
            ("a", 1.0, 0.5, (0.5, 0.25)),
            ("b", 2.0, 1.0, (1.0, 0.5)) if late else ("b", 4.0, 2.0, (2.0, 1.0)),
        ]
        return outcome


def test_end_to_end_times_come_from_the_steps():
    workload = _Stepping()
    timed = run.Run(workload, (1,))
    for _ in range(3):
        timed.round()
    assert timed.step_walls == {"a": [1.0] * 3, "b": [4.0, 2.0, 2.0]}
    metrics = {m.name: m.value for m in run.end_to_end(timed, setup_s=1.0)}
    # wall and CPU time: each step's fastest round
    assert (metrics["wall_s"], metrics["cpu_s"]) == (3.0, 1.5)
    # over the reference's wall and CPU time: each step's median round,
    # so the host's speed-up cancels
    assert timed.step_wall_refs == {"a": [2.0] * 3, "b": [2.0] * 3}
    assert timed.step_cpu_refs == {"a": [2.0] * 3, "b": [2.0] * 3}
    assert (metrics["wall_ref"], metrics["cpu_ref"]) == (4.0, 4.0)


def test_a_round_without_steps_is_one_step(recording):
    timed = run.Run(recording, (1,))
    timed.round()
    timed.round()
    assert list(timed.step_walls) == ["round"]
    assert len(timed.step_walls["round"]) == 2
    assert len(timed.step_wall_refs["round"]) == 2


def test_a_step_inside_another_is_a_step_of_its_own():
    outcome = RoundOutcome()
    with outcome.step("fig09"):
        with outcome.step():
            time.sleep(0.02)
        with outcome.step():
            pass
    assert [name for name, *_ in outcome.steps] == ["fig09.1", "fig09.2", "fig09"]
    walls = {name: wall for name, wall, *_ in outcome.steps}
    # neither the inner steps nor the reference loops count in the outer step
    assert walls["fig09.1"] >= 0.02 > walls["fig09"]
    assert outcome.reference_wall > 0
    assert all(min(reference) > 0 for *_, reference in outcome.steps)


def test_a_lap_ends_the_step_and_starts_its_next_part():
    outcome = RoundOutcome()
    with outcome.step("train"):
        time.sleep(0.01)
        outcome.lap()
        outcome.lap()
    assert [name for name, *_ in outcome.steps] == ["train", "train#2", "train#3"]
    assert outcome.steps[0][1] >= 0.01 > outcome.steps[1][1]
    outcome.lap()  # no step open: nothing to end
    assert len(outcome.steps) == 3


def test_a_traced_round_runs_no_reference_loop():
    outcome = RoundOutcome(referenced=False)
    with outcome.step("a"):
        pass
    assert outcome.steps[0][3] is None
    assert outcome.reference_wall == 0.0


def test_parse_args_rejects_negative_seeds():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "faults", "--seed", "-1", "--seconds", "1"])
    args = run.parse_args(["--workload", "faults", "--seed", "5", "--seconds", "2"])
    assert (args.seed, args.seconds, args.trace) == (5, 2.0, 0)
