"""Figure 8(a): RoTI with and without Application I/O Discovery.

Paper claim: tuning MACSio's I/O kernel instead of the full application
raises peak RoTI from 2.47 to 2.87 MB/s/min and cuts time-to-peak by 14%
(639 -> 549 minutes), because each objective evaluation skips the
non-I/O work.
"""

from repro.analysis import fig08_discovery


def test_fig08a_discovery_roti(run_once):
    result = run_once(fig08_discovery, seed=0)
    print("\n" + result.report())

    # The kernel's RoTI peak exceeds the full application's.
    assert result.kernel_curve.peak > result.app_curve.peak
    # Time-to-peak shrinks (paper: -14%; the saving is the evaluation-cost
    # share of the sliced-away compute and logging).
    assert result.kernel_curve.peak_minutes < result.app_curve.peak_minutes
    assert 0.05 < result.time_to_peak_saving < 0.5
    # Both reach the same tuned bandwidth (same GA trajectory).
    assert abs(
        result.kernel_result.best_perf - result.app_result.best_perf
    ) < 0.15 * result.app_result.best_perf
