"""Figure 8(b): RoTI with loop reduction.

Paper claim: reducing the kernel's I/O loop to 1% of its iterations
boosts peak RoTI from 2.47 to 23.30 (>9x) while the reported bandwidth
stays 97.10% accurate versus the full application.
"""

from repro.analysis import fig08_discovery


def test_fig08b_loop_reduction(run_once):
    result = run_once(fig08_discovery, seed=0)
    print("\n" + result.report())

    boost = result.loop_reduction_boost
    assert boost > 9.0, f"loop-reduction RoTI boost only {boost:.1f}x (paper: >9x)"
    # Bandwidth reported by the reduced kernel stays close to the truth
    # (paper: 97.10% accurate).
    assert result.reduced_bandwidth_accuracy > 0.9
    # Total tuning time collapses by an order of magnitude.
    assert result.reduced_result.total_minutes < result.app_result.total_minutes / 5
