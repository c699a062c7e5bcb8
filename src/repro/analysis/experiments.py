"""Experiment runners: one per table/figure of the paper's evaluation.

Each ``fig*`` function reproduces one figure's measurement procedure and
returns a typed result object whose ``report()`` renders the same
rows/series the paper plots.  The benchmark suite under ``benchmarks/``
calls these; EXPERIMENTS.md records paper-vs-measured for each.

Seeds: every runner takes a ``seed`` so results are reproducible; the
shared offline-trained agents come from
:func:`repro.analysis.context.make_context`.

Independent runs
----------------
Every tuning run of Figures 2, 8, 10 and 11 is one :func:`_tune` call,
``_tune(seed, workload, kind, salt, iterations)``: it builds a simulator
with its own noise stream (``ctx.simulator_for(workload.n_nodes, salt)``),
draws the GA stream ``ctx.rng(salt)``, gives a ``tunio`` tuner a private
copy of the trained agents, and its tuner owns a private evaluation
cache, so nothing a run does can perturb another.  A figure builds each
workload (discovered kernels included) once and hands the same object
to every run that tunes it.  Figure 9 keeps its own arms: its impact arm
is TunIO without early stopping, and its baseline's simulator salt
differs from its GA salt.  Anything order-sensitive (Figure 11's shared
``eval_sim`` noise stream, Figure 8's accuracy check against the tuned
app config) runs after the tuning runs, in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.api import TunIO
from repro.core.pipeline import make_tuner
from repro.core.roti import RoTICurve, roti, roti_curve
from repro.discovery.kernel import DiscoveryOptions, discover_io
from repro.discovery.modelgen import workload_from_source
from repro.discovery.reducers import LoopReduction
from repro.iostack.config import StackConfiguration
from repro.iostack.parameters import LIBRARY_CATALOG, TUNED_SPACE, stack_permutations
from repro.iostack.simulator import WorkloadLike
from repro.tuners.base import TuningResult
from repro.tuners.lifecycle import (
    LifecycleModel,
    crossover_point,
    lifecycle_model,
    untuned_model,
    viability_point,
)
from repro.tuners.stoppers import (
    HeuristicStopper,
    MaxPerfOracleStopper,
    NoStop,
    first_stop,
)
from repro.workloads import bdcats, flash, hacc, vpic
from repro.workloads.sources import canonical_hints, load_source

from .context import make_context
from .reporting import ascii_chart, format_series, format_table

__all__ = [
    "fig01_search_space",
    "fig02_log_curves",
    "fig08_discovery",
    "fig08c_kernel_similarity",
    "fig09_impact_first",
    "fig10_early_stopping",
    "fig11_pipeline",
    "fig12_lifecycle",
]


def _tune(
    seed: int, workload: WorkloadLike, kind: str, salt: int, iterations: int
) -> TuningResult:
    """One figure tuning run: a :func:`make_tuner` ``kind`` tuning
    ``workload`` for ``iterations`` on the simulator and GA stream that
    ``salt`` derives from ``seed``."""
    ctx = make_context(seed)
    tuner = make_tuner(
        kind,
        ctx.simulator_for(workload.n_nodes, salt=salt),
        agents=ctx.fresh_agents() if kind == "tunio" else None,
        normalizer=ctx.normalizer_for(workload.n_nodes),
        rng=ctx.rng(salt),
    )
    return tuner.tune(workload, max_iterations=iterations)


# ---------------------------------------------------------------------------
# Figure 1 -- search-space growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpaceResult:
    """Permutation counts per library and per stack composition."""

    library_rows: tuple[tuple[str, int, int, int], ...]
    stack_rows: tuple[tuple[str, int], ...]
    tuned_space_permutations: int

    def report(self) -> str:
        libs = format_table(
            ["library", "discrete", "continuous", "permutations"],
            [list(r) for r in self.library_rows],
            title="Figure 1: per-library parameter permutations (lower bounds)",
        )
        stacks = format_table(
            ["stack", "permutations"],
            [list(r) for r in self.stack_rows],
            title="Stack compositions",
        )
        tail = (
            f"\nTuned 12-parameter space (evaluation): "
            f"{self.tuned_space_permutations:,} permutations"
        )
        return f"{libs}\n\n{stacks}{tail}"


def fig01_search_space() -> SearchSpaceResult:
    """Figure 1: parameter-permutation growth across stack compositions."""
    library_rows = tuple(
        (c.name, c.discrete, c.continuous, c.permutations())
        for c in LIBRARY_CATALOG.values()
    )
    stacks = [
        ("HDF5", ["HDF5"]),
        ("HDF5+MPI", ["HDF5", "MPI"]),
        ("PNetCDF+MPI", ["PNetCDF", "MPI"]),
        ("ADIOS+MPI", ["ADIOS", "MPI"]),
        ("HDF5+MPI+Hermes", ["HDF5", "MPI", "Hermes"]),
        ("HDF5+MPI+OpenSHMEMX", ["HDF5", "MPI", "OpenSHMEMX"]),
    ]
    stack_rows = tuple((name, stack_permutations(libs)) for name, libs in stacks)
    return SearchSpaceResult(
        library_rows=library_rows,
        stack_rows=stack_rows,
        tuned_space_permutations=TUNED_SPACE.permutations(),
    )


# ---------------------------------------------------------------------------
# Figure 2 -- tuning follows a log curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogCurvesResult:
    """HSTuner tuning curves for the three training kernels."""

    results: dict[str, TuningResult]
    #: R^2 of a log fit per application's best-so-far curve.
    log_fit_r2: dict[str, float]

    def report(self) -> str:
        lines = ["Figure 2: HSTuner tuning curves (best perf per iteration, GB/s)"]
        for name, res in self.results.items():
            lines.append(format_series(name, res.perf_series() / 1000.0))
            lines.append(
                f"{'':28s} log-fit R^2 = {self.log_fit_r2[name]:.3f}, "
                f"gain {res.best_perf / max(res.baseline_perf, 1e-9):.2f}x"
            )
        lines.append("")
        lines.append(
            ascii_chart(
                {n: r.perf_series() / 1000.0 for n, r in self.results.items()},
                ylabel="GB/s",
            )
        )
        return "\n".join(lines)


def _log_fit_r2(values: np.ndarray) -> float:
    """R^2 of fitting ``a + b*log1p(t)`` to a series."""
    t = np.arange(values.size, dtype=float)
    design = np.column_stack([np.ones_like(t), np.log1p(t)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    pred = design @ coef
    ss_res = float(((values - pred) ** 2).sum())
    ss_tot = float(((values - values.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def fig02_log_curves(seed: int = 0, iterations: int = 50) -> LogCurvesResult:
    """Figure 2: tune HACC, FLASH and VPIC with plain HSTuner and show
    the logarithmic shape of the bandwidth-vs-iteration curves."""
    runs = [
        _tune(seed, workload(), "hstuner", salt + 20, iterations)
        for salt, workload in enumerate((hacc, flash, vpic))
    ]
    results: dict[str, TuningResult] = {}
    fits: dict[str, float] = {}
    for res in runs:
        results[res.workload_name] = res
        fits[res.workload_name] = _log_fit_r2(res.perf_series())
    return LogCurvesResult(results=results, log_fit_r2=fits)


# ---------------------------------------------------------------------------
# Figure 8(a)/(b) -- I/O discovery and loop reduction RoTI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscoveryRoTIResult:
    """RoTI with the full application, the I/O kernel, and the
    loop-reduced kernel (Figures 8a and 8b)."""

    app_curve: RoTICurve
    kernel_curve: RoTICurve
    reduced_curve: RoTICurve
    app_result: TuningResult
    kernel_result: TuningResult
    reduced_result: TuningResult
    #: Reduced kernel's reported-bandwidth accuracy vs the application.
    reduced_bandwidth_accuracy: float

    @property
    def time_to_peak_saving(self) -> float:
        """Fraction of the app's time-to-peak-RoTI the kernel saves (8a)."""
        return 1.0 - self.kernel_curve.peak_minutes / max(self.app_curve.peak_minutes, 1e-9)

    @property
    def loop_reduction_boost(self) -> float:
        """Reduced kernel's peak RoTI over the app's (8b)."""
        return self.reduced_curve.peak / max(self.app_curve.peak, 1e-9)

    def report(self) -> str:
        rows = []
        for label, curve, res in (
            ("full application", self.app_curve, self.app_result),
            ("I/O kernel (8a)", self.kernel_curve, self.kernel_result),
            ("loop-reduced kernel (8b)", self.reduced_curve, self.reduced_result),
        ):
            rows.append(
                [
                    label,
                    curve.peak,
                    curve.peak_minutes,
                    res.best_perf / 1000.0,
                    res.total_minutes,
                ]
            )
        table = format_table(
            ["pipeline", "peak RoTI (MB/s/min)", "time to peak (min)",
             "final perf (GB/s)", "total tuning (min)"],
            rows,
            title="Figures 8(a)/8(b): Return on Tuning Investment, MACSio (VPIC-dipole)",
        )
        return (
            f"{table}\n"
            f"kernel time-to-peak reduction: {100 * self.time_to_peak_saving:.1f}% "
            f"(paper: 14%)\n"
            f"loop-reduction peak-RoTI boost: {self.loop_reduction_boost:.1f}x "
            f"(paper: >9x)\n"
            f"reduced-kernel bandwidth accuracy: "
            f"{100 * self.reduced_bandwidth_accuracy:.2f}% (paper: 97.10%)"
        )


def _macsio_workloads() -> tuple[WorkloadLike, WorkloadLike, WorkloadLike]:
    """MACSio as the full application, as its I/O kernel and as the
    1%-loop-reduced kernel, each built once."""
    source = load_source("macsio")
    hints = canonical_hints("macsio")
    app = workload_from_source(source, "macsio-app", hints)
    kernel = discover_io(source, "macsio", DiscoveryOptions(hints=hints)).to_workload()
    reduced = discover_io(
        source, "macsio",
        DiscoveryOptions(hints=hints, reducers=(LoopReduction(0.01),)),
    ).to_workload()
    return app, kernel, reduced


def fig08_discovery(seed: int = 0, iterations: int = 40) -> DiscoveryRoTIResult:
    """Figures 8(a)/(b): tune MACSio as the full application, as its I/O
    kernel, and as the 1%-loop-reduced kernel; compare RoTI curves."""
    ctx = make_context(seed)
    app, kernel, reduced = _macsio_workloads()

    # All three pipelines run the same GA trajectory (same seed and
    # noise), so the time difference is the evaluation-cost saving of the
    # kernel, not GA luck -- the quantity Figure 8 isolates.
    app_res, kern_res, red_res = [
        _tune(seed, workload, "hstuner", 80, iterations)
        for workload in (app, kernel, reduced)
    ]

    # Reported-bandwidth accuracy of the reduced kernel: evaluate the same
    # (tuned) configuration on both and compare the measured perf.
    sim = ctx.simulator_for(app.n_nodes, salt=99)
    config = app_res.best_config or StackConfiguration.default()
    app_perf = sim.evaluate(app, config).perf_mbps
    red_perf = sim.evaluate(reduced, config).perf_mbps
    accuracy = 1.0 - abs(red_perf - app_perf) / app_perf

    return DiscoveryRoTIResult(
        app_curve=roti_curve(app_res),
        kernel_curve=roti_curve(kern_res),
        reduced_curve=roti_curve(red_res),
        app_result=app_res,
        kernel_result=kern_res,
        reduced_result=red_res,
        reduced_bandwidth_accuracy=accuracy,
    )


# ---------------------------------------------------------------------------
# Figure 8(c) -- kernel similarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSimilarityResult:
    """Percentage error of kernel-reported metrics vs the application."""

    kernel_bytes_error: float
    kernel_ops_error: float
    reduced_bytes_error: float
    reduced_ops_error: float

    def report(self) -> str:
        return format_table(
            ["metric", "I/O kernel", "reduced kernel (x extrapolation)", "paper (kernel / reduced)"],
            [
                ["bytes written error %", 100 * self.kernel_bytes_error,
                 100 * self.reduced_bytes_error, "0.0002% / 0.19%"],
                ["write operations error %", 100 * self.kernel_ops_error,
                 100 * self.reduced_ops_error, "19.05% / 4.87%"],
            ],
            title="Figure 8(c): kernel fidelity vs original MACSio application",
        )


def fig08c_kernel_similarity() -> KernelSimilarityResult:
    """Figure 8(c): absolute percentage error of bytes-written and
    write-op counts for the kernel and the loop-reduced kernel (with its
    metrics multiplied by the loop reduction)."""
    app, kernel, reduced = _macsio_workloads()

    def err(measured: float, truth: float) -> float:
        return abs(measured - truth) / truth

    f = reduced.extrapolation_factor
    return KernelSimilarityResult(
        kernel_bytes_error=err(kernel.bytes_written, app.bytes_written),
        kernel_ops_error=err(kernel.write_ops, app.write_ops),
        reduced_bytes_error=err(reduced.bytes_written * f, app.bytes_written),
        reduced_ops_error=err(reduced.write_ops * f, app.write_ops),
    )


# ---------------------------------------------------------------------------
# Figure 9 -- impact-first tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpactFirstResult:
    """Impact-first vs exhaustive subset tuning on FLASH."""

    impact_first: TuningResult
    baseline: TuningResult
    target_mbps: float
    impact_first_iteration: int | None
    baseline_iteration: int | None
    changed_parameters: int

    def report(self) -> str:
        lines = [
            "Figure 9: Impact-First Tuning (FLASH), best perf per iteration (GB/s)",
            format_series("impact-first", self.impact_first.perf_series() / 1000.0),
            format_series("no impact-first", self.baseline.perf_series() / 1000.0),
            f"target bandwidth: {self.target_mbps / 1000.0:.2f} GB/s",
            f"impact-first reaches it at iteration {self.impact_first_iteration}; "
            f"no-impact-first at iteration {self.baseline_iteration} "
            f"(paper: 6 vs 43, -86.05%)",
            f"parameters changed from defaults in the final configuration: "
            f"{self.changed_parameters} (paper: 7 of 12)",
        ]
        if (
            self.impact_first_iteration is not None
            and self.baseline_iteration is not None
            and self.baseline_iteration > 0
        ):
            saving = 1.0 - self.impact_first_iteration / self.baseline_iteration
            lines.append(f"iteration reduction: {100 * saving:.1f}%")
        lines.append("")
        lines.append(
            ascii_chart(
                {
                    "impact-first": self.impact_first.perf_series() / 1000.0,
                    "no impact-first": self.baseline.perf_series() / 1000.0,
                },
                ylabel="GB/s",
            )
        )
        return "\n".join(lines)


def _fig09_run(seed: int, repeat: int, arm: str, iterations: int) -> TuningResult:
    """One Figure 9 arm: 'impact' (TunIO's Smart Configuration
    Generation, sim salt ``90 + 10r``) or 'baseline' (plain HSTuner, sim
    salt ``91 + 10r``); both arms of a repeat share the GA stream
    ``rng(90 + 10r)``."""
    ctx = make_context(seed)
    workload = flash()
    rng = ctx.rng(90 + 10 * repeat)
    if arm == "impact":
        sim = ctx.simulator_for(workload.n_nodes, salt=90 + 10 * repeat)
        tuner = make_tuner(
            "tunio",
            sim,
            agents=ctx.fresh_agents(),
            normalizer=ctx.normalizer_for(workload.n_nodes),
            stopper=NoStop(),  # isolate the component: no early stopping
            rng=rng,
        )
    else:
        sim = ctx.simulator_for(workload.n_nodes, salt=91 + 10 * repeat)
        tuner = make_tuner("hstuner", sim, rng=rng)
    return tuner.tune(workload, max_iterations=iterations)


#: Runs of each Figure 9 arm.
FIG09_REPEATS = 3


def fig09_impact_first(seed: int = 0, iterations: int = 50) -> ImpactFirstResult:
    """Figure 9: attach Smart Configuration Generation to the pipeline
    for FLASH and compare against the pipeline without it.

    GA runs are stochastic, so both arms run :data:`FIG09_REPEATS`
    times; the reported iteration counts are medians and the plotted
    curves come from the median-ranked impact-first run.
    """
    runs = [
        _fig09_run(seed, r, arm, iterations)
        for r in range(FIG09_REPEATS)
        for arm in ("impact", "baseline")
    ]
    impact_runs = runs[0::2]
    base_runs = runs[1::2]

    # The paper's yardstick is the 2.3 GB/s level both pipelines reach on
    # FLASH; fall back to 95% of the worst final if a run falls short.
    target = 2300.0
    floor = min(min(r.best_perf for r in impact_runs),
                min(r.best_perf for r in base_runs))
    if floor < target:
        target = 0.95 * floor

    def median_iteration(runs: list[TuningResult]) -> int | None:
        vals = [r.iterations_to_reach(target) for r in runs]
        vals = [v if v is not None else iterations for v in vals]
        return int(np.median(vals))

    impact_res = impact_runs[0]
    base_res = base_runs[0]
    changed_counts = [
        len(r.best_config.changed_parameters())
        for r in impact_runs
        if r.best_config is not None
    ]
    return ImpactFirstResult(
        impact_first=impact_res,
        baseline=base_res,
        target_mbps=target,
        impact_first_iteration=median_iteration(impact_runs),
        baseline_iteration=median_iteration(base_runs),
        changed_parameters=int(np.median(changed_counts)) if changed_counts else 0,
    )


# ---------------------------------------------------------------------------
# Figure 10 -- early stopping cost/benefit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StopperOutcome:
    """Where one stopping method ends the HACC run and what it gets."""

    name: str
    iteration: int
    perf_mbps: float
    minutes: float
    roti: float


@dataclass(frozen=True)
class EarlyStoppingResult:
    """Figure 10(a)/(b): stopping methods replayed over one HACC run."""

    full_run: TuningResult
    outcomes: tuple[StopperOutcome, ...]
    perfect: StopperOutcome

    def percent_of_best(self, outcome: StopperOutcome) -> float:
        """``outcome``'s RoTI as a percentage of the perfect stop's."""
        return 100.0 * outcome.roti / max(self.perfect.roti, 1e-9)

    def report(self) -> str:
        rows = [
            [o.name, o.iteration, o.perf_mbps / 1000.0, o.minutes, o.roti,
             self.percent_of_best(o)]
            for o in (self.perfect, *self.outcomes)
        ]
        table = format_table(
            ["method", "stop iter", "perf (GB/s)", "minutes", "RoTI", "% of best"],
            rows,
            title="Figure 10: early stopping on HACC (50-generation run)",
        )
        base = self.full_run.baseline_perf / 1000.0
        chart = ascii_chart(
            {"best perf": self.full_run.perf_series() / 1000.0}, ylabel="GB/s"
        )
        stops = ", ".join(f"{o.name}@{o.iteration}" for o in self.outcomes)
        return (
            f"{table}\n"
            f"untuned bandwidth: {base:.2f} GB/s; paper ordering: "
            f"TunIO (90.5%) > MaxPerf (86.1%) > 50-iter budget (77.9%) > "
            f"heuristic (59.3%)\n\n{chart}\nstop markers: {stops}"
        )


def fig10_early_stopping(seed: int = 0, iterations: int = 50) -> EarlyStoppingResult:
    """Figure 10: run HACC for the full budget, then replay each
    stopping method over the recorded history."""
    ctx = make_context(seed)
    full = _tune(seed, hacc(), "hstuner", 100, iterations)
    history = full.history

    def outcome(name: str, stop_iter: int) -> StopperOutcome:
        rec = history[stop_iter]
        return StopperOutcome(
            name=name,
            iteration=rec.iteration,
            perf_mbps=rec.best_perf,
            minutes=rec.elapsed_minutes,
            roti=roti(rec.best_perf, full.baseline_perf, rec.elapsed_minutes),
        )

    # Perfect: the stop with the best possible RoTI.
    rotis = [roti(r.best_perf, full.baseline_perf, r.elapsed_minutes) for r in history]
    perfect = outcome("perfect", int(np.argmax(rotis)))

    # TunIO's stop (not learning from the finished history), the
    # heuristic and the (exact) max-perf oracle, each replayed over it.
    agents = ctx.fresh_agents()
    rl = TunIO(
        agents.smart_config, agents.early_stopper, ctx.normalizer, online_learning=False
    )
    oracle = MaxPerfOracleStopper(max(r.best_perf for r in history))
    outcomes = (
        outcome("tunio-rl", first_stop(rl, history)),
        outcome("max-perf-oracle", first_stop(oracle, history)),
        outcome("heuristic-5%/5", first_stop(HeuristicStopper(), history)),
        outcome("full-budget", len(history) - 1),
    )
    return EarlyStoppingResult(full_run=full, outcomes=outcomes, perfect=perfect)


# ---------------------------------------------------------------------------
# Figure 11 -- end-to-end pipeline on BD-CATS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineVariant:
    """One tuning pipeline's end-to-end outcome on BD-CATS."""

    name: str
    result: TuningResult
    #: Best configuration's perf measured on the *full application*.
    app_perf_mbps: float
    roti: float


@dataclass(frozen=True)
class PipelineResult:
    """Figure 11(a)/(b): the six pipeline variants."""

    variants: tuple[PipelineVariant, ...]
    app_baseline_mbps: float

    def get(self, name: str) -> PipelineVariant:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def tuning_time_saving(self) -> float:
        """Fraction of HSTuner-NoStop's tuning time TunIO saves (11a)."""
        tunio = self.get("tunio").result.total_minutes
        return 1.0 - tunio / self.get("hstuner-nostop").result.total_minutes

    def report(self) -> str:
        rows = [
            [
                v.name,
                len(v.result.history),
                v.app_perf_mbps / 1000.0,
                v.result.total_minutes,
                v.roti,
            ]
            for v in self.variants
        ]
        table = format_table(
            ["pipeline", "iterations", "app perf (GB/s)", "tuning (min)", "RoTI"],
            rows,
            title="Figure 11: end-to-end tuning of BD-CATS (500 nodes / 1600 procs)",
        )
        chart = ascii_chart(
            {
                v.name: v.result.perf_series() / 1000.0
                for v in self.variants
                if "kernel" not in v.name
            },
            ylabel="GB/s",
        )
        return (
            f"{table}\n"
            f"untuned app bandwidth: {self.app_baseline_mbps / 1000.0:.2f} GB/s\n"
            f"TunIO tuning-time reduction vs HSTuner-NoStop: "
            f"{100 * self.tuning_time_saving:.1f}% "
            f"(paper: ~73%)\n\n{chart}"
        )


#: (variant name, tuning target, :func:`make_tuner` kind, sim/rng salt)
#: -- the addressing of the six Figure 11 runs.
_FIG11_VARIANTS = (
    ("hstuner-nostop", "app", "hstuner", 111),
    ("hstuner-heuristic", "app", "hstuner-heuristic", 112),
    ("tunio", "app", "tunio", 113),
    ("hstuner-nostop+kernel", "kernel", "hstuner", 114),
    ("hstuner-heuristic+kernel", "kernel", "hstuner-heuristic", 115),
    ("tunio+kernel", "kernel", "tunio", 116),
)


def fig11_pipeline(seed: int = 0, iterations: int = 50) -> PipelineResult:
    """Figure 11: BD-CATS tuned by HSTuner (no stop / heuristic stop) and
    TunIO, each on the full application and on the I/O kernel."""
    ctx = make_context(seed)
    app = bdcats()
    targets = {
        "app": app,
        "kernel": discover_io(
            load_source("bdcats"), "bdcats",
            DiscoveryOptions(hints=canonical_hints("bdcats")),
        ).to_workload(),
    }

    # The shared evaluation stream: baseline first, then each variant's
    # best config in variant order.
    eval_sim = ctx.simulator_for(app.n_nodes, salt=110)
    baseline = eval_sim.evaluate(app, StackConfiguration.default()).perf_mbps

    results = [
        _tune(seed, targets[target], kind, salt, iterations)
        for _name, target, kind, salt in _FIG11_VARIANTS
    ]

    variants = []
    for (name, _target, _kind, _salt), res in zip(_FIG11_VARIANTS, results):
        config = res.best_config or StackConfiguration.default()
        app_perf = eval_sim.evaluate(app, config).perf_mbps
        variants.append(
            PipelineVariant(
                name=name,
                result=res,
                app_perf_mbps=app_perf,
                roti=(app_perf - baseline) / max(res.total_minutes, 1e-9),
            )
        )
    return PipelineResult(variants=tuple(variants), app_baseline_mbps=baseline)


# ---------------------------------------------------------------------------
# Figure 12 -- lifecycle viability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifecycleResult:
    """Figure 12: lifecycle cost lines and their crossings."""

    tunio: LifecycleModel
    hstuner: LifecycleModel
    untuned: LifecycleModel
    tunio_viability: int | None
    hstuner_viability: int | None
    tunio_advantage_until: int | None

    def report(self) -> str:
        rows = [
            [m.name, m.tuning_minutes, m.run_minutes]
            for m in (self.tunio, self.hstuner, self.untuned)
        ]
        table = format_table(
            ["lifecycle", "tuning (min, y-intercept)", "per-run (min, slope)"],
            rows,
            title="Figure 12: BD-CATS lifecycle cost",
        )
        return (
            f"{table}\n"
            f"TunIO viability point: {self.tunio_viability} executions "
            f"(paper: 1394)\n"
            f"H5Tuner viability point: {self.hstuner_viability} executions "
            f"(paper: 5274)\n"
            f"TunIO keeps the lower total until "
            f"{self.tunio_advantage_until} executions (paper: 3.99M)"
        )


def fig12_lifecycle(
    seed: int = 0, iterations: int = 50, pipeline: PipelineResult | None = None
) -> LifecycleResult:
    """Figure 12: derive lifecycle models from the Figure 11 runs (TunIO
    vs H5Tuner full-budget) and locate the viability/crossover points.
    Without ``pipeline``, Figure 11 runs here at ``iterations``."""
    ctx = make_context(seed)
    app = bdcats()
    sim = ctx.simulator_for(app.n_nodes, salt=120)
    if pipeline is None:
        pipeline = fig11_pipeline(seed, iterations)
    tunio_model = lifecycle_model(sim, app, pipeline.get("tunio").result, name="tunio")
    hstuner_model = lifecycle_model(
        sim, app, pipeline.get("hstuner-nostop").result, name="h5tuner"
    )
    base_model = untuned_model(sim, app)
    return LifecycleResult(
        tunio=tunio_model,
        hstuner=hstuner_model,
        untuned=base_model,
        tunio_viability=viability_point(tunio_model, base_model),
        hstuner_viability=viability_point(hstuner_model, base_model),
        tunio_advantage_until=crossover_point(tunio_model, hstuner_model),
    )
