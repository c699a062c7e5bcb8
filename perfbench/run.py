"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {pretrain,figures,faults} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same work untraced and then traced, reports the
per-layer metrics of the traced round and writes its spans to
``.perfbench-out/``.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics
``BENCHMARK.json`` declares for the mode).  A run that cannot set up
(for example without the program's sources) exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import instrument, layer_metrics  # noqa: E402
from perfbench.metrics import Metric, fastest_total, median_of, median_total  # noqa: E402
from perfbench.reference import reference_seconds  # noqa: E402
from perfbench.tracing import NULL_TRACER, Tracer, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, RoundOutcome, Workload  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
#: Fresh interpreters whose import time ``setup_s`` takes the median of.
IMPORT_REPEATS = 5
_TIME_IMPORTS = """\
import importlib, sys, time
start = time.perf_counter()
for module in sys.argv[1:]:
    importlib.import_module(module)
print(time.perf_counter() - start)
"""


def import_seconds(modules: tuple[str, ...]) -> float:
    """Median seconds a fresh interpreter takes to import ``modules``.

    One import in this process is a single sample of a short, noisy
    time; a few child interpreters, each waited for, give a median."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    samples = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORTS, *modules],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise ImportError(child.stderr.strip().splitlines()[-1])
        samples.append(float(child.stdout))
    return median_of(samples).value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """The rounds of one invocation, with their accounting."""

    def __init__(self, workload: Workload, state: object, quick: bool = False) -> None:
        self.workload = workload
        self.state = state
        #: Every round of the run is quick or none is (see Workload.run_round).
        self.quick = quick
        self.walls: list[float] = []
        self.cpus: list[float] = []
        #: Wall and CPU seconds of each step, by step name, over the rounds.
        self.step_walls: dict[str, list[float]] = {}
        self.step_cpus: dict[str, list[float]] = {}
        #: The same over the reference loop's wall and CPU seconds around
        #: the step, for the rounds that ran the loop, and the loop's wall
        #: seconds.
        self.step_wall_refs: dict[str, list[float]] = {}
        self.step_cpu_refs: dict[str, list[float]] = {}
        self.references: list[float] = []
        self.outcomes: list[RoundOutcome] = []
        self.failures: list[str] = []

    def round(self, tracer=NULL_TRACER) -> RoundOutcome:
        """Run, time and check one round."""
        # Every round starts from the same collector state; the outputs
        # the checks inspected are dropped so the heap does not grow.
        gc.collect()
        cpu, wall = process_time(), perf_counter()
        outcome = self.workload.run_round(self.state, tracer, quick=self.quick)
        wall = perf_counter() - wall - outcome.reference_wall
        cpu = process_time() - cpu - outcome.reference_cpu
        checks = self.workload.check(self.state, outcome)
        outcome.failed += len(checks)
        outcome.failures.extend(checks)
        outcome.artifacts = None
        if self.outcomes and outcome.digest != self.outcomes[0].digest:
            outcome.failed += 1
            outcome.failures.append("round outputs differ from the first round's")
        self.walls.append(wall)
        self.cpus.append(cpu)
        steps = outcome.steps or [("round", wall, cpu, reference_seconds())]
        for name, step_wall, step_cpu, reference in steps:
            self.step_walls.setdefault(name, []).append(step_wall)
            self.step_cpus.setdefault(name, []).append(step_cpu)
            if reference is not None:
                ref_wall, ref_cpu = reference
                self.step_wall_refs.setdefault(name, []).append(step_wall / ref_wall)
                self.step_cpu_refs.setdefault(name, []).append(step_cpu / ref_cpu)
                self.references.append(ref_wall)
        self.outcomes.append(outcome)
        self.failures.extend(outcome.failures)
        return outcome

    def rounds_for(self, seconds: float) -> None:
        """At least one round; more while the next one still fits."""
        start = perf_counter()
        while True:
            self.round()
            if perf_counter() - start + self.walls[-1] > seconds:
                return

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


def end_to_end(run: Run, setup_s: float) -> list[Metric]:
    """Every end-to-end metric that applies to the workload."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fastest = f"{len(run.step_walls)} steps, each the fastest of {len(run.walls)} rounds"
    round_wall = median_of(run.walls)
    reference = median_of(run.references)
    in_references = f"{len(run.step_wall_refs)} steps, each the median of its rounds"
    metrics = [
        Metric("setup_s", setup_s, "s", "imports and construction"),
        Metric("wall_ref", median_total(run.step_wall_refs), "ref", in_references),
        Metric("cpu_ref", median_total(run.step_cpu_refs), "ref", in_references),
        Metric("wall_s", fastest_total(run.step_walls), "s", fastest),
        Metric("cpu_s", fastest_total(run.step_cpus), "s", fastest),
        Metric("reference_ms", 1000.0 * reference.value, "ms", f"median of {reference.samples}"),
        Metric("round_wall_s", round_wall.value, "s", f"median of {round_wall.samples} rounds"),
        Metric("peak_rss_mb", peak_rss_mb, "MB"),
        Metric(
            "failed_frac", run.failed / max(1, run.attempted), "ratio",
            f"{run.failed} failed of {run.attempted} attempted",
        ),
    ]
    tune_seconds = [s for o in run.outcomes for s in o.tune_seconds]
    if tune_seconds:
        evaluations = sum(o.evaluations for o in run.outcomes)
        tune = median_of(tune_seconds)
        metrics.append(
            Metric("evals_per_s", evaluations / sum(tune_seconds), "1/s",
                   f"{evaluations} evaluations inside the tunes")
        )
        metrics.append(
            Metric("tune_ms_p50", 1000.0 * tune.value, "ms", f"n={tune.samples} tunes")
        )
    units = {
        "roti_median": "MB/s/min",
        "gain_median": "x",
        "sim_minutes_median": "min",
        "fig11_saving_pct": "%",
        "guardrail_trips": "count",
        "stopper_gain_captured": "ratio",
        "train_epochs": "count",
    }
    quality = run.outcomes[0].quality
    for name, unit in units.items():
        if name in quality:
            metrics.append(Metric(name, quality[name], unit, "deterministic"))
    return metrics


def traced(workload: Workload, state: object, seconds: float) -> tuple[Run, list[Metric]]:
    """Untraced rounds, then one traced round of the same work.

    The traced round's deterministic outputs must equal the untraced
    ones (checked by the round digest), and its wall time over the
    untraced median is the tracing overhead.
    """
    run = Run(workload, state, quick=workload.name == "pretrain")
    run.rounds_for(seconds / 2)
    untraced = median_of(run.walls).value
    tracer = Tracer()
    with instrument(tracer):
        outcome = run.round(tracer)
    overhead = run.walls[-1] / untraced
    for name, value in outcome.quality.items():
        if value != run.outcomes[0].quality.get(name):
            outcome.failed += 1
            run.failures.append(f"traced {name} {value} differs from untraced")
    tracer.write(str(OUT_DIR / f"{workload.name}-spans.jsonl"))
    metrics = layer_metrics(summarize(tracer.spans), tracer.counters, outcome.results, overhead)
    return run, metrics


def declared(mode: str) -> list[str]:
    """Metric names ``BENCHMARK.json`` declares for ``end_to_end`` or
    ``per_layer``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[mode]]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    wanted = declared("per_layer" if args.trace else "end_to_end")
    out_dir = OUT_DIR / workload.name
    try:
        workload.imports()
        import_s = import_seconds(workload.modules)
        out_dir.mkdir(parents=True, exist_ok=True)
        samples = []
        for _ in range(workload.setup_repeats):
            start = perf_counter()
            state = workload.setup(inputs, out_dir)
            samples.append(perf_counter() - start)
    except ImportError as exc:
        print(f"perfbench: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + median_of(samples).value

    with warnings.catch_warnings():
        # Guardrail and resilience warnings are counted from the results.
        warnings.simplefilter("ignore")
        if args.trace:
            run, layers = traced(workload, state, args.seconds)
        else:
            run, layers = Run(workload, state), []
            run.rounds_for(args.seconds)
    e2e = end_to_end(run, setup_s)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} inputs={inputs}")
    for metric in e2e + layers:
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {metric.name:40s} {metric.value:14.6g} {metric.unit}{note}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    by_name = {m.name: m for m in e2e + layers}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: by_name[name].as_json() for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
