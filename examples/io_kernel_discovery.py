#!/usr/bin/env python3
"""Application I/O Discovery: slice MACSio's C source to its I/O kernel.

Shows the paper's Figure 4/5 pipeline on the bundled MACSio source:

* the annotated keep/drop listing the marking loop produces;
* the reconstructed, compilable I/O kernel;
* the optional reducers (1% loop reduction, /dev/shm path switching);
* how faithfully each kernel variant tracks the original application's
  bytes written and write operations (the Figure 8(c) comparison).

Tuning fitness reads only bandwidth and runtime, from the simulator's
per-run timing (``IOStackSimulator.replay``); the byte and op totals
compared here come from the workloads themselves.
"""

from repro import DiscoveryOptions, IOPathSwitching, LoopReduction, discover_io
from repro.discovery import workload_from_source
from repro.workloads.sources import canonical_hints, load_source


def main() -> None:
    source = load_source("macsio")
    hints = canonical_hints("macsio")

    print("== marking loop: keep/drop per line (first 40 lines) ==")
    kernel = discover_io(source, "macsio", DiscoveryOptions(hints=hints))
    print("\n".join(kernel.explain().splitlines()[:40]))
    print(
        f"\nkept {kernel.kept_line_count}/{kernel.original_line_count} lines "
        f"({100 * kernel.reduction_ratio:.0f}%)"
    )

    print("\n== the reconstructed I/O kernel ==")
    print(kernel.source)

    print("== with 1% loop reduction + I/O path switching ==")
    reduced = discover_io(
        source,
        "macsio",
        DiscoveryOptions(
            hints=hints,
            reducers=(LoopReduction(0.01), IOPathSwitching("/dev/shm")),
        ),
    )
    loop_lines = [l for l in reduced.source.splitlines() if "tunio:loop-reduced" in l]
    print("\n".join(loop_lines))
    print(f"scalable metrics extrapolate by x{reduced.extrapolation_factor:g}")

    print("\n== kernel fidelity vs the original application (Fig 8c) ==")
    app = workload_from_source(kernel.original_source, "macsio-app", hints)
    plain = kernel.to_workload()
    red = reduced.to_workload()
    f = red.extrapolation_factor

    def err(measured, truth):
        return 100 * abs(measured - truth) / truth

    print(f"{'metric':24s} {'kernel':>10s} {'reduced kernel':>15s}")
    print(
        f"{'bytes written err %':24s} "
        f"{err(plain.bytes_written, app.bytes_written):10.4f} "
        f"{err(red.bytes_written * f, app.bytes_written):15.4f}"
    )
    print(
        f"{'write ops err %':24s} "
        f"{err(plain.write_ops, app.write_ops):10.2f} "
        f"{err(red.write_ops * f, app.write_ops):15.2f}"
    )
    print(
        f"\ncompute retained: app {app.compute_seconds:.0f} s -> "
        f"kernel {plain.compute_seconds:.0f} s (sliced away)"
    )


if __name__ == "__main__":
    main()
