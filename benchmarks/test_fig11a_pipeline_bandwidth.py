"""Figure 11(a): end-to-end tuning of BD-CATS (500 nodes, 1600 procs).

Paper claims: TunIO converges by iteration ~6 and stops at ~9, spending
~468 minutes versus HSTuner-NoStop's 1750 (-73%); HSTuner-NoStop
eventually edges out TunIO's bandwidth by ~3% after the full budget;
HSTuner with the heuristic stop strands at ~54% of TunIO's bandwidth.
"""

from repro.analysis import fig11_pipeline


def test_fig11a_pipeline_bandwidth(run_once):
    result = run_once(fig11_pipeline, seed=0)
    print("\n" + result.report())

    tunio = result.get("tunio")
    nostop = result.get("hstuner-nostop")
    heuristic = result.get("hstuner-heuristic")

    # TunIO stops early (paper: iteration 9 of 50).
    assert len(tunio.result.history) <= 15
    # Massive tuning-time saving versus the no-stop baseline (paper ~73%).
    saving = result.tuning_time_saving
    assert saving > 0.5, f"tuning-time saving only {saving:.0%}"
    # TunIO's found configuration is competitive with the full-budget
    # baseline's on the real application (paper: within ~3%).
    assert tunio.app_perf_mbps > 0.6 * nostop.app_perf_mbps
    # Everyone improves enormously over the untuned default.
    assert tunio.app_perf_mbps > 50 * result.app_baseline_mbps
