"""Generate EXPERIMENTS.md: run every figure experiment and record
paper-vs-measured.

Usage::

    python -m repro.analysis.report [output.md]

Takes a few minutes (it runs every tuning experiment once, including
offline agent training).
"""

from __future__ import annotations

import sys
from datetime import date

from .experiments import (
    fig01_search_space,
    fig02_log_curves,
    fig08_discovery,
    fig08c_kernel_similarity,
    fig09_impact_first,
    fig10_early_stopping,
    fig11_pipeline,
    fig12_lifecycle,
)
from .reporting import ComparisonRow, format_comparison

__all__ = ["generate_experiments_md"]


def _section(title: str, result, rows: list[ComparisonRow]) -> list[str]:
    """One figure's EXPERIMENTS.md section: heading, report block and
    its "Paper vs measured" table."""
    return [
        f"## {title}",
        "",
        "```\n" + result.report() + "\n```\n",
        format_comparison(rows, "Paper vs measured"),
        "",
    ]


def generate_experiments_md() -> str:
    """Run every experiment and render the full markdown report."""
    sections: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table and figure of the paper's evaluation (Section IV), "
        "regenerated on the simulated Cori platform.  Absolute numbers "
        "differ from the paper (our substrate is a simulator, not the "
        "authors' testbed); the comparisons below check the *shape*: who "
        "wins, by roughly what factor, and where the crossovers fall.",
        "",
        f"Generated by `python -m repro.analysis.report` on {date.today()}. "
        "The same experiments run (with assertions) under "
        "`pytest benchmarks/ --benchmark-only`.",
        "",
    ]

    r1 = fig01_search_space()
    stacks = dict(r1.stack_rows)
    sections += _section("Figure 1 — search-space growth", r1, [
        ComparisonRow("HDF5+MPI permutations", "3.81e21", f"{stacks['HDF5+MPI']:.2e}",
                      "lower-bound rule: 2/discrete, 5/continuous"),
        ComparisonRow("evaluated 12-param space", "over 2.18e9",
                      f"{r1.tuned_space_permutations:.2e}", ""),
    ])

    r2 = fig02_log_curves(seed=0)
    sections += _section("Figure 2 — tuning follows a log curve", r2, [
        ComparisonRow(
            f"{name} log-fit R^2", "log-shaped", f"{fit:.2f}",
            "diminishing returns per iteration",
        )
        for name, fit in r2.log_fit_r2.items()
    ])

    sections += [
        "## Table I — the TunIO API",
        "",
        "The three component interfaces. Every TunIO tune and figure "
        "drives the agents through `stop` and `subset_picker`:",
        "",
        "| function | input | output | implementation |",
        "|---|---|---|---|",
        "| `stop` | current_iteration, best_perf | stop/continue | "
        "`repro.core.api.TunIO.stop` |",
        "| `discover_io` | source_code, options | I/O kernel | "
        "`repro.core.api.TunIO.discover_io` |",
        "| `subset_picker` | perf, current_parameter_set | "
        "next_parameter_set | `repro.core.api.TunIO.subset_picker` |",
        "",
    ]

    r8 = fig08_discovery(seed=0)
    sections += _section("Figures 8(a)/8(b) — I/O Discovery and loop reduction", r8, [
        ComparisonRow("peak RoTI, full app", 2.47, round(r8.app_curve.peak, 2)),
        ComparisonRow("peak RoTI, I/O kernel", 2.87, round(r8.kernel_curve.peak, 2)),
        ComparisonRow("time-to-peak reduction", "14%",
                      f"{100 * r8.time_to_peak_saving:.1f}%"),
        ComparisonRow("loop-reduction RoTI boost", ">9x",
                      f"{r8.loop_reduction_boost:.1f}x"),
        ComparisonRow("reduced-kernel bandwidth accuracy", "97.10%",
                      f"{100 * r8.reduced_bandwidth_accuracy:.2f}%"),
    ])

    r8c = fig08c_kernel_similarity()
    sections += _section("Figure 8(c) — kernel similarity", r8c, [
        ComparisonRow("kernel bytes error", "0.0002%",
                      f"{100 * r8c.kernel_bytes_error:.4f}%"),
        ComparisonRow("kernel write-ops error", "19.05%",
                      f"{100 * r8c.kernel_ops_error:.2f}%",
                      "the dropped logging writes"),
        ComparisonRow("reduced bytes error", "0.19%",
                      f"{100 * r8c.reduced_bytes_error:.2f}%"),
        ComparisonRow("reduced write-ops error", "4.87%",
                      f"{100 * r8c.reduced_ops_error:.2f}%",
                      "first-dump ops extrapolated 85x"),
    ])

    r9 = fig09_impact_first(seed=0)
    sections += _section("Figure 9 — Impact-First Tuning (FLASH)", r9, [
        ComparisonRow("iterations to target (impact-first)", 6,
                      r9.impact_first_iteration, "median of 3 runs"),
        ComparisonRow("iterations to target (baseline)", 43,
                      r9.baseline_iteration,
                      "our GA baseline is stronger than the paper's"),
        ComparisonRow("parameters changed from defaults", "7 of 12",
                      f"{r9.changed_parameters} of 12"),
    ])

    r10 = fig10_early_stopping(seed=8)
    by = {o.name.split("-")[0]: o for o in r10.outcomes}
    pct = lambda o: f"{r10.percent_of_best(o):.1f}%"
    sections += _section(
        "Figure 10 — early stopping (HACC, seed 8: the plateau-trap run)", r10, [
            ComparisonRow("TunIO stop iteration", "35 of 50",
                          f"{by['tunio'].iteration} of 50"),
            ComparisonRow("TunIO bandwidth at stop", "2.2 GB/s",
                          f"{by['tunio'].perf_mbps / 1000:.2f} GB/s"),
            ComparisonRow("heuristic trapped at", "14 (1.2 GB/s)",
                          f"{by['heuristic'].iteration} "
                          f"({by['heuristic'].perf_mbps / 1000:.2f} GB/s)"),
            ComparisonRow("TunIO % of best RoTI", "90.5%", pct(by["tunio"])),
            ComparisonRow("heuristic % of best RoTI", "59.3%", pct(by["heuristic"])),
            ComparisonRow("full budget % of best RoTI", "77.9%", pct(by["full"])),
            ComparisonRow("ordering", "TunIO > MaxPerf > budget > heuristic",
                          " > ".join(
                              o.name for o in sorted(r10.outcomes, key=lambda o: -o.roti)
                          )),
        ],
    )

    r11 = fig11_pipeline(seed=0)
    tunio = r11.get("tunio")
    sections += _section("Figure 11 — end-to-end pipeline (BD-CATS, 500 nodes)", r11, [
        ComparisonRow("TunIO stop iteration", 9, len(tunio.result.history)),
        ComparisonRow("tuning-time reduction vs no-stop", "~73%",
                      f"{100 * r11.tuning_time_saving:.1f}%"),
        ComparisonRow("TunIO RoTI", 215, round(tunio.roti, 1)),
        ComparisonRow("HSTuner-heuristic RoTI", 41.6,
                      round(r11.get("hstuner-heuristic").roti, 1)),
        ComparisonRow("TunIO+kernel RoTI", 250, round(r11.get("tunio+kernel").roti, 1)),
        ComparisonRow("tuned bandwidth", "88 GB/s",
                      f"{tunio.app_perf_mbps / 1000:.0f} GB/s",
                      "same order; absolute scale is simulator-specific"),
    ])

    r12 = fig12_lifecycle(seed=0, pipeline=r11)
    sections += _section("Figure 12 — lifecycle viability (BD-CATS)", r12, [
        ComparisonRow("TunIO tuning minutes", 403, round(r12.tunio.tuning_minutes)),
        ComparisonRow("H5Tuner tuning minutes", 1560, round(r12.hstuner.tuning_minutes)),
        ComparisonRow("TunIO viability (executions)", 1394, r12.tunio_viability,
                      "our tuned config saves far more per run"),
        ComparisonRow("H5Tuner viability (executions)", 5274, r12.hstuner_viability),
        ComparisonRow("TunIO advantage until", "3.99M executions",
                      r12.tunio_advantage_until,
                      "None = TunIO's config never overtaken"),
    ])

    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    output = args[0] if args else "EXPERIMENTS.md"
    text = generate_experiments_md()
    with open(output, "w") as fh:
        fh.write(text)
    print(f"wrote {output} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
