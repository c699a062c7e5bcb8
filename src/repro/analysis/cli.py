"""``tunio-experiments``: run the paper's figure experiments.

Usage::

    tunio-experiments                     # every figure
    tunio-experiments fig09 fig10         # a subset
    tunio-experiments --iterations 8      # smoke-sized budgets

Invalid arguments (an unknown figure, ``--iterations`` below 1, a
negative ``--seed``) exit with code 2 before any agent training runs.
"""

from __future__ import annotations

import argparse
import sys
import time

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

__all__ = ["main"]

#: figure name -> (function, takes seed/iterations kwargs)
_FIGURES: dict[str, tuple] = {
    "fig01": (fig01_search_space, False),
    "fig02": (fig02_log_curves, True),
    "fig08": (fig08_discovery, True),
    "fig08c": (fig08c_kernel_similarity, False),
    "fig09": (fig09_impact_first, True),
    "fig10": (fig10_early_stopping, True),
    "fig11": (fig11_pipeline, True),
    "fig12": (fig12_lifecycle, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunio-experiments",
        description="Reproduce the paper's figure experiments.",
    )
    parser.add_argument(
        "figures", nargs="*", metavar="FIG",
        help=f"figures to run (default: all): {' '.join(_FIGURES)}",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="override each figure's iteration budget (smoke runs)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list figure names and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in _FIGURES:
            print(name)
        return 0

    selected = args.figures or list(_FIGURES)
    unknown = [f for f in selected if f not in _FIGURES]
    if unknown:
        parser.error(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(choose from {', '.join(_FIGURES)})"
        )
    if args.iterations is not None and args.iterations < 1:
        parser.error("--iterations must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    results: dict[str, object] = {}
    for name in selected:
        fn, parameterized = _FIGURES[name]
        kwargs: dict = {}
        if parameterized:
            kwargs["seed"] = args.seed
            if args.iterations is not None and name != "fig12":
                kwargs["iterations"] = args.iterations
        if name == "fig12" and "fig11" in results:
            kwargs["pipeline"] = results["fig11"]
        started = time.perf_counter()
        result = fn(**kwargs)
        elapsed = time.perf_counter() - started
        results[name] = result
        print(result.report())
        print(f"[{name}: {elapsed:.1f}s]", file=sys.stderr)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
