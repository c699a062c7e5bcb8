"""Ablation: what each TunIO component buys on its own.

DESIGN.md calls out three separable design choices; this bench runs the
FLASH pipeline with each component toggled individually and prints the
resulting (bandwidth, tuning-minutes, RoTI) triple:

* baseline      -- HSTuner, full budget, full application;
* +kernel       -- Application I/O Discovery only;
* +subsets      -- Smart Configuration Generation only;
* +stopper      -- RL Early Stopping only;
* full TunIO    -- all three (kernel + subsets + stopper).
"""

import numpy as np
import pytest

from repro.analysis import make_context
from repro.core import TunIO, TunIOTuner
from repro.discovery import DiscoveryOptions, discover_io
from repro.tuners import HSTuner, NoStop
from repro.workloads import flash
from repro.workloads.sources import canonical_hints, load_source


def test_ablation_components(run_once):
    def run_ablation():
        ctx = make_context(0)
        app = flash()
        kernel = discover_io(
            load_source("flash"), "flash",
            DiscoveryOptions(hints=canonical_hints("flash")),
        ).to_workload()
        eval_sim = ctx.simulator_for(app.n_nodes, salt=400)
        baseline_perf = eval_sim.evaluate(
            app, __import__("repro").StackConfiguration.default()
        ).perf_mbps

        def variant(name, target, use_subsets, use_stopper, salt):
            sim = ctx.simulator_for(app.n_nodes, salt=salt)
            rng = ctx.rng(salt)
            agents = ctx.fresh_agents()
            tunio = TunIO(agents.smart_config, agents.early_stopper, ctx.normalizer)
            stopper = tunio if use_stopper else NoStop()
            if use_subsets:
                tuner = TunIOTuner(sim, tunio, stopper=stopper, rng=rng)
            else:
                tuner = HSTuner(sim, stopper=stopper, rng=rng)
            res = tuner.tune(target, max_iterations=40)
            app_perf = eval_sim.evaluate(app, res.best_config).perf_mbps
            roti = (app_perf - baseline_perf) / max(res.total_minutes, 1e-9)
            return name, app_perf, res.total_minutes, roti

        return [
            # The kernel variant shares the baseline's seed so the two
            # runs walk the same GA trajectory and differ only in
            # evaluation cost -- the clean component isolation.
            variant("baseline (HSTuner)", app, False, False, 401),
            variant("+kernel", kernel, False, False, 401),
            variant("+subsets", app, True, False, 403),
            variant("+stopper", app, False, True, 404),
            variant("full TunIO + kernel", kernel, True, True, 405),
        ]

    rows = run_once(run_ablation)
    print("\nAblation on FLASH (evaluated on the full application):")
    print(f"{'variant':22s} {'perf GB/s':>10s} {'minutes':>9s} {'RoTI':>7s}")
    for name, perf, minutes, roti in rows:
        print(f"{name:22s} {perf / 1000:10.2f} {minutes:9.0f} {roti:7.2f}")

    by = {name: (perf, minutes, roti) for name, perf, minutes, roti in rows}
    base = by["baseline (HSTuner)"]
    # The kernel makes the identical GA trajectory cheaper to evaluate.
    assert by["+kernel"][1] < base[1]
    assert by["+kernel"][2] > base[2]
    # The stopper trades a full budget for a far better return.
    assert by["+stopper"][1] < base[1]
    assert by["+stopper"][2] > base[2]
    # The full pipeline spends a fraction of the baseline's budget and
    # still returns more bandwidth per tuning minute.
    assert by["full TunIO + kernel"][1] < 0.5 * base[1]
    assert by["full TunIO + kernel"][2] > base[2]
