"""The benchmark's workloads: ``pretrain``, ``figures`` and ``faults``.

Each workload turns ``--seed`` into its inputs (:meth:`Workload.inputs`,
pure and cheap), builds what the timed rounds need
(:meth:`Workload.setup`), runs one round of work
(:meth:`Workload.run_round`) and checks the round's outputs outside the
timed region (:meth:`Workload.check`).  All runs are closed loop and
single process: one round after the other, no pools, no disk cache.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import math
import re
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Iterator

from .layers import FIGURES
from .reference import reference_seconds
from .tracing import Patches

__all__ = ["RoundOutcome", "Workload", "WORKLOADS"]

#: Trainings per ``pretrain`` round; averaging over several seeds keeps
#: the seed-to-seed spread of training length (20-25 epochs) small.
PRETRAIN_TRAININGS = 4
#: Tuning budget of every ``faults`` tune (GA generations).
FAULT_ITERATIONS = 50
#: Generations kept when the journal is cut before resuming.
FAULT_CUT = 25
#: Injected fault rates: transient trace errors and latency stragglers.
TRANSIENT_RATE = 0.10
STRAGGLER_RATE = 0.05
#: Retries before quarantine.  At a 10% transient rate a configuration
#: is quarantined with probability 0.1**9, so healthy runs fail nothing
#: (with 5 retries, one of twenty seeds quarantined a configuration).
MAX_RETRIES = 8
FAULT_WORKLOADS = ("flash", "hacc", "vpic", "bdcats")

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
#: A step starting within this many seconds of the last reference loop
#: reuses it instead of running the loop again.
REFERENCE_REUSE_S = 0.001
#: Curves sampled per lap of a ``pretrain`` training (one training
#: epoch runs an episode on each of 32).
CURVES_PER_LAP = 32


@dataclass
class _Frame:
    """An open step: its name, where it started, and the time of the
    inner steps and reference loops left out of it."""

    name: str
    base: str
    lap: int
    reference: tuple[float, float]
    wall: float
    cpu: float
    inner: int = 0
    inner_wall: float = 0.0
    inner_cpu: float = 0.0

    def left_out(self, wall: float, cpu: float) -> None:
        self.inner_wall += wall
        self.inner_cpu += cpu


@dataclass
class RoundOutcome:
    """What one round did, for the metrics and the checks."""

    #: Operations attempted (evaluations plus tunes, or trainings).
    attempted: int = 0
    #: Operations that raised or were quarantined.
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Configuration evaluations inside the timed tunes.
    evaluations: int = 0
    #: Wall seconds of each timed tuning run.
    tune_seconds: list[float] = field(default_factory=list)
    #: Tuning results whose quality the round reports.
    results: list[Any] = field(default_factory=list)
    #: Deterministic outcomes (same seed, same values).
    quality: dict[str, float] = field(default_factory=dict)
    #: Digest of every deterministic output of the round.
    digest: str = ""
    #: Whatever :meth:`Workload.check` inspects.
    artifacts: Any = None
    #: ``(name, wall seconds, CPU seconds, reference)`` of each step of
    #: the round, in order; every round of a run has the same steps.  The
    #: reference is the mean wall and CPU seconds of the reference loop
    #: just before and just after the step, or None without references.
    steps: list[tuple[str, float, float, tuple[float, float] | None]] = field(
        default_factory=list
    )
    #: Run the reference loop around the steps.  A traced round does
    #: not, so the loop's time stays out of the spans around its steps.
    referenced: bool = True
    #: Wall and CPU seconds the reference loop took in the round.
    reference_wall: float = 0.0
    reference_cpu: float = 0.0
    _open: list[_Frame] = field(default_factory=list, repr=False)
    #: The last reference loop's wall and CPU seconds and when it ended,
    #: reused by a step that starts right after another ends.
    _reference: tuple[tuple[float, float], float] = ((0.0, 0.0), -1.0)

    @contextmanager
    def step(self, name: str = "") -> Iterator[None]:
        """Time one step of the round, whether or not it raises.

        A step opened inside another is a step of its own, named
        ``<outer>.<n>`` for its place there, and its time is left out of
        the outer step's, as is the reference loop's."""
        if self._open:
            outer = self._open[-1]
            outer.inner += 1
            name = f"{outer.name}.{outer.inner}"
        self._start(name)
        try:
            yield
        finally:
            self._stop()

    def lap(self) -> None:
        """End the innermost open step and go on in a new step named
        ``<step>#<n>``, so that a long step is measured against the
        reference loop every few tenths of a second."""
        if not self._open:
            return
        frame = self._open[-1]
        self._stop()
        self._start(frame.base, frame.lap + 1)

    def _start(self, base: str, lap: int = 1) -> None:
        reference = self._reference_seconds() if self.referenced else (0.0, 0.0)
        name = base if lap == 1 else f"{base}#{lap}"
        self._open.append(_Frame(name, base, lap, reference, perf_counter(), process_time()))

    def _stop(self) -> None:
        wall, cpu = perf_counter(), process_time()
        frame = self._open.pop()
        wall, cpu = wall - frame.wall, cpu - frame.cpu
        if self._open:
            self._open[-1].left_out(wall, cpu)
        reference = None
        if self.referenced:
            after = self._reference_seconds()
            reference = tuple((x + y) / 2 for x, y in zip(frame.reference, after))
        self.steps.append(
            (frame.name, wall - frame.inner_wall, cpu - frame.inner_cpu, reference)
        )

    def _reference_seconds(self) -> tuple[float, float]:
        """Run the reference loop, unless it ended a moment ago with
        nothing run since, and leave its time out of the open step."""
        start, cpu = perf_counter(), process_time()
        seconds, ended = self._reference
        if start - ended > REFERENCE_REUSE_S:
            seconds = reference_seconds()
            self._reference = seconds, perf_counter()
            wall, cpu = perf_counter() - start, process_time() - cpu
            self.reference_wall += wall
            self.reference_cpu += cpu
            if self._open:
                self._open[-1].left_out(wall, cpu)
        return seconds

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        line = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.failures.append(f"{what}: {line}")


class Workload:
    """One benchmark workload."""

    name = ""
    #: Times :meth:`setup` runs; ``setup_s`` reports the median.
    setup_repeats = 5

    def inputs(self, seed: int) -> tuple:
        raise NotImplementedError

    #: The program's modules the workload imports (timed in fresh
    #: interpreters as part of set-up).
    modules: tuple[str, ...] = ()

    def imports(self) -> None:
        """Import the program into this process."""
        for module in self.modules:
            importlib.import_module(module)

    def setup(self, inputs: tuple, out_dir: Path) -> Any:
        raise NotImplementedError

    def run_round(self, state: Any, tracer: Any, quick: bool = False) -> RoundOutcome:
        """One round of work.  ``quick`` asks for a smaller round, used
        by the traced run when a full round would be too slow twice."""
        raise NotImplementedError

    def check(self, state: Any, outcome: RoundOutcome) -> list[str]:
        """Correctness failures of a round (empty when all is well)."""
        return []


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _tuning_digest(result: Any) -> tuple:
    """The deterministic outputs of a tuning run."""
    config = result.best_config
    return (
        result.tuner_name,
        result.workload_name,
        result.baseline_perf,
        result.stop_reason,
        result.stopped_at,
        tuple(result.history),
        None if config is None else tuple(int(g) for g in config.genome()),
        result.guardrail_trips,
    )


def tuning_quality(results: list[Any]) -> dict[str, float]:
    """Median RoTI, gain and simulated minutes over tuning runs."""
    timed = [r for r in results if r.total_minutes > 0]
    return {
        "roti_median": statistics.median(
            (r.best_perf - r.baseline_perf) / r.total_minutes for r in timed
        ),
        "gain_median": statistics.median(
            r.best_perf / r.baseline_perf for r in results if r.baseline_perf > 0
        ),
        "sim_minutes_median": statistics.median(r.total_minutes for r in results),
    }


def _capture(records: list, outcome: RoundOutcome | None = None) -> Callable[[Callable], Callable]:
    """Patch factory: keep ``(wall seconds, result)`` of every call, and
    make each call a step of ``outcome`` when one is given."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with outcome.step() if outcome else nullcontext():
                start = perf_counter()
                result = original(*args, **kwargs)
                records.append((perf_counter() - start, result))
            return result

        return timed

    return make


def _laps(outcome: RoundOutcome) -> Callable[[Callable], Callable]:
    """Patch factory: a new lap of the open step after every
    :data:`CURVES_PER_LAP` calls."""
    calls = itertools.count(1)

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if next(calls) % CURVES_PER_LAP == 0:
                outcome.lap()
            return result

        return counted

    return make


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


@dataclass
class _PretrainState:
    seeds: tuple[int, ...]
    platform: Any
    normalizer: Any
    out_dir: Path


class Pretrain(Workload):
    """Cold offline training: ``train_tunio_agents`` on ``cori(4)`` over
    VPIC, FLASH and HACC, exactly as ``make_context`` trains, for
    :data:`PRETRAIN_TRAININGS` seeds derived from ``--seed``."""

    name = "pretrain"

    def inputs(self, seed: int) -> tuple:
        return tuple(seed * PRETRAIN_TRAININGS + k for k in range(PRETRAIN_TRAININGS))

    modules = ("repro.core.offline_training", "repro.workloads")

    def setup(self, inputs: tuple, out_dir: Path) -> _PretrainState:
        from repro.core.objective import PerfNormalizer
        from repro.iostack.cluster import cori

        platform = cori(4)
        return _PretrainState(
            seeds=inputs,
            platform=platform,
            normalizer=PerfNormalizer.for_platform(platform, 4),
            out_dir=out_dir,
        )

    def run_round(self, state: _PretrainState, tracer: Any, quick: bool = False) -> RoundOutcome:
        import numpy as np

        from repro.core.early_stopping import EarlyStoppingAgent
        from repro.core.offline_training import train_tunio_agents
        from repro.iostack.noise import NoiseModel
        from repro.iostack.simulator import IOStackSimulator
        from repro.rl.curves import LogCurveGenerator
        from repro.workloads import flash, hacc, vpic

        outcome = RoundOutcome(referenced=not tracer.enabled)
        trained = []
        seeds = state.seeds[:1] if quick else state.seeds
        with Patches() as patches:
            reports: list = []
            patches.replace(EarlyStoppingAgent, "train_offline", _capture(reports))
            # A training runs for seconds, across several switches of
            # the host's speed; laps of one epoch each are measured
            # against the reference loop one by one.
            patches.replace(LogCurveGenerator, "sample", _laps(outcome))
            for seed in seeds:
                outcome.attempted += 1
                simulator = IOStackSimulator(state.platform, NoiseModel(seed=seed))
                try:
                    with outcome.step(f"train-{seed}"):
                        agents = train_tunio_agents(
                            simulator,
                            [vpic(), flash(), hacc()],
                            state.normalizer,
                            rng=np.random.default_rng((seed, 0xA11)),
                        )
                except Exception as exc:  # a raised training is a failed operation
                    outcome.fail(f"training seed {seed}", exc)
                    continue
                trained.append((seed, agents, reports[-1][1]))
        outcome.artifacts = trained
        if trained:
            outcome.quality["stopper_gain_captured"] = statistics.median(
                report.validation_gain_captured for _, _, report in trained
            )
            outcome.quality["train_epochs"] = sum(report.epochs for _, _, report in trained)
        outcome.digest = _digest(
            *((seed, _agents_digest(agents)) for seed, agents, _ in trained)
        )
        return outcome

    def check(self, state: _PretrainState, outcome: RoundOutcome) -> list[str]:
        from repro.core.offline_training import load_agents, save_agents

        failures = []
        for seed, agents, report in outcome.artifacts:
            if not report.stagnated:
                failures.append(f"seed {seed}: offline training did not stagnate")
            if not math.isfinite(report.validation_gain_captured):
                failures.append(f"seed {seed}: non-finite validation gain")
            path = state.out_dir / f"agents-{seed}.npz"
            try:
                save_agents(agents, path)
                loaded = load_agents(path, state.normalizer)
            except Exception as exc:  # CheckpointError or I/O
                failures.append(f"seed {seed}: checkpoint round trip raised {exc!r}")
                continue
            if not _same_agents(loaded, agents):
                failures.append(f"seed {seed}: checkpoint round trip changed the agents")
        return failures


def _agent_arrays(agents: Any) -> dict[str, Any]:
    """Every learned array of a trained agent pair, by name."""
    arrays = {"impact": agents.impact_scores}
    arrays.update({f"smart.{k}": v for k, v in agents.smart_config.get_state().items()})
    arrays.update({f"stop.{k}": v for k, v in agents.early_stopper.get_weights().items()})
    return arrays


def _agents_digest(agents: Any) -> tuple:
    return tuple((k, v.shape, v.tobytes()) for k, v in sorted(_agent_arrays(agents).items()))


def _same_agents(a: Any, b: Any) -> bool:
    """Equal learned arrays.  Loading re-normalises the impact scores to
    sum to one, which can move their last bit, hence the 1e-12 relative
    tolerance."""
    import numpy as np

    x, y = _agent_arrays(a), _agent_arrays(b)
    return x.keys() == y.keys() and all(
        x[k].shape == y[k].shape and np.allclose(x[k], y[k], rtol=1e-12, atol=0.0)
        for k in x
    )


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


class Figures(Workload):
    """The paper's figure suite on a context trained during set-up."""

    name = "figures"
    #: Each set-up trains the agents (about 10 s); see :meth:`setup`.
    setup_repeats = 2

    def inputs(self, seed: int) -> tuple:
        return (seed,)

    modules = ("repro.analysis.experiments",)

    def setup(self, inputs: tuple, out_dir: Path) -> int:
        from repro.analysis import context

        (seed,) = inputs
        # make_context caches the trained context per seed; without
        # clearing that cache a repeated set-up would measure nothing.
        context._build_context.cache_clear()
        context.make_context(seed)
        return seed

    def run_round(self, seed: int, tracer: Any, quick: bool = False) -> RoundOutcome:
        from repro.analysis import experiments as E
        from repro.tuners.hstuner import HSTuner

        runners = {
            "fig02": lambda: E.fig02_log_curves(seed),
            "fig08": lambda: E.fig08_discovery(seed),
            "fig08c": E.fig08c_kernel_similarity,
            "fig09": lambda: E.fig09_impact_first(seed),
            "fig10": lambda: E.fig10_early_stopping(seed),
            "fig11": lambda: E.fig11_pipeline(seed),
            # Figure 12 reuses Figure 11's runs.
            "fig12": lambda: E.fig12_lifecycle(seed, pipeline=figures["fig11"]),
        }
        outcome = RoundOutcome(referenced=not tracer.enabled)
        figures: dict[str, Any] = {}
        tunes: list = []
        with Patches() as patches:
            # Each tune is a step of its own: short steps run on a fast
            # host more often than whole figures do.
            patches.replace(HSTuner, "tune", _capture(tunes, outcome))
            for name in FIGURES:
                outcome.attempted += 1
                try:
                    with outcome.step(name), tracer.span(f"analysis.{name}"):
                        figures[name] = runners[name]()
                except Exception as exc:  # one broken figure must not hide the rest
                    outcome.fail(name, exc)
        results = [result for _, result in tunes]
        outcome.tune_seconds = [seconds for seconds, _ in tunes]
        outcome.results = results
        outcome.attempted += sum(r.eval_stats.evaluations for r in results)
        outcome.evaluations = sum(r.eval_stats.evaluations for r in results)
        outcome.failed += sum(r.eval_stats.quarantined for r in results)
        outcome.artifacts = figures
        if results:
            outcome.quality.update(tuning_quality(results))
        outcome.quality["guardrail_trips"] = sum(len(r.guardrail_trips) for r in results)
        if "fig11" in figures:
            pipeline = figures["fig11"]
            tunio = pipeline.get("tunio").result.total_minutes
            nostop = pipeline.get("hstuner-nostop").result.total_minutes
            outcome.quality["fig11_saving_pct"] = 100.0 * (1.0 - tunio / nostop)
        outcome.digest = _digest(
            sorted(figures),
            [_tuning_digest(r) for r in results],
            [figures[name].report() for name in FIGURES if name in figures],
        )
        return outcome

    def check(self, seed: int, outcome: RoundOutcome) -> list[str]:
        failures = []
        for name, result in outcome.artifacts.items():
            try:
                text = result.report()
            except Exception as exc:  # a report that cannot render is a failure
                failures.append(f"{name}: report() raised {exc!r}")
                continue
            if _NON_FINITE.search(text):
                failures.append(f"{name}: report() shows a non-finite number")
        return failures


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------


@dataclass
class _FaultsState:
    cases: tuple[tuple[str, int], ...]
    workloads: dict[str, Any]
    out_dir: Path


class Faults(Workload):
    """Journaled HSTuner tunes (``NoStop``) under a seeded fault plan,
    each resumed from its journal cut at a generation boundary."""

    name = "faults"

    def inputs(self, seed: int) -> tuple:
        n = len(FAULT_WORKLOADS)
        return tuple((name, seed * n + i) for i, name in enumerate(FAULT_WORKLOADS))

    modules = ("repro.tuners.hstuner", "repro.workloads")

    def setup(self, inputs: tuple, out_dir: Path) -> _FaultsState:
        from repro import workloads

        return _FaultsState(
            cases=inputs,
            workloads={name: getattr(workloads, name)() for name, _ in inputs},
            out_dir=out_dir,
        )

    @staticmethod
    def _tuner(workload: Any, seed: int) -> Any:
        import numpy as np

        from repro.iostack import EvaluationCache, FaultPlan, IOStackSimulator, NoiseModel, cori
        from repro.tuners.hstuner import HSTuner
        from repro.tuners.resilience import RetryPolicy
        from repro.tuners.stoppers import NoStop

        plan = FaultPlan(
            seed=seed, transient_error_rate=TRANSIENT_RATE, straggler_rate=STRAGGLER_RATE
        )
        simulator = IOStackSimulator(cori(workload.n_nodes), NoiseModel(seed=seed), faults=plan)
        return HSTuner(
            simulator,
            stopper=NoStop(),
            rng=np.random.default_rng((seed, 0xFA17)),
            cache=EvaluationCache(),
            retry_policy=RetryPolicy(max_retries=MAX_RETRIES),
        )

    def run_round(self, state: _FaultsState, tracer: Any, quick: bool = False) -> RoundOutcome:
        from repro.tuners.journal import JournalWriter, ReplayCursor, load_journal

        outcome = RoundOutcome(referenced=not tracer.enabled)
        pairs = []
        for name, seed in state.cases:
            workload = state.workloads[name]
            full_path = state.out_dir / f"{name}.journal"
            cut_path = state.out_dir / f"{name}.cut.journal"
            header = {"workload": name, "seed": seed}
            outcome.attempted += 2
            try:
                with outcome.step(f"{name}.tune"):
                    tuner = self._tuner(workload, seed)
                    start = perf_counter()
                    with JournalWriter(str(full_path), header) as writer:
                        tuner.attach_journal(writer)
                        full = tuner.tune(workload, max_iterations=FAULT_ITERATIONS)
                    outcome.tune_seconds.append(perf_counter() - start)

                with outcome.step(f"{name}.resume"):
                    # Keep the header, the baseline and FAULT_CUT generations.
                    with open(full_path, encoding="utf-8") as fh:
                        kept = fh.readlines()[: 2 + FAULT_CUT]
                    with open(cut_path, "w", encoding="utf-8") as fh:
                        fh.writelines(kept)
                    journal = load_journal(str(cut_path))
                    resumed_tuner = self._tuner(workload, seed)
                    with JournalWriter(str(cut_path), header, resume_from=journal) as writer:
                        resumed_tuner.attach_journal(writer, replay=ReplayCursor(journal))
                        resumed = resumed_tuner.tune(workload, max_iterations=FAULT_ITERATIONS)
            except Exception as exc:  # a raised tune is a failed operation
                outcome.fail(f"{name} seed {seed}", exc)
                continue
            stats = full.eval_stats
            outcome.attempted += stats.evaluations
            outcome.evaluations += stats.evaluations
            outcome.failed += stats.quarantined
            outcome.results.append(full)
            pairs.append((name, full, resumed, full_path, cut_path))
        outcome.artifacts = pairs
        if outcome.results:
            outcome.quality.update(tuning_quality(outcome.results))
        outcome.digest = _digest(
            [(name, _tuning_digest(full), _tuning_digest(resumed))
             for name, full, resumed, _, _ in pairs]
        )
        return outcome

    def check(self, state: _FaultsState, outcome: RoundOutcome) -> list[str]:
        failures = []
        for name, full, resumed, full_path, cut_path in outcome.artifacts:
            if resumed.history != full.history:
                failures.append(f"{name}: resumed history differs from the uninterrupted run")
            if resumed.best_config != full.best_config:
                failures.append(f"{name}: resumed best config differs")
            if Path(full_path).read_bytes() != Path(cut_path).read_bytes():
                failures.append(f"{name}: resumed journal differs from the uninterrupted one")
        return failures


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Pretrain(), Figures(), Faults())}
