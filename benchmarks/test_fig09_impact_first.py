"""Figure 9: Impact-First Tuning on FLASH.

Paper claim: with Smart Configuration Generation the pipeline reaches
2.3 GB/s at iteration 6 versus iteration 43 without it (-86%), and the
final configuration changes 7 of 12 parameters from their defaults.
"""

from repro.analysis import fig09_impact_first


def test_fig09_impact_first(run_once):
    result = run_once(fig09_impact_first, seed=0)
    print("\n" + result.report())

    assert result.impact_first_iteration is not None
    assert result.baseline_iteration is not None
    # Impact-first reaches the target in no more iterations than the
    # exhaustive pipeline (median over repeats; the paper reports -86%,
    # our GA baseline is stronger so the gap is smaller but one-sided).
    assert result.impact_first_iteration <= result.baseline_iteration
    # A minority of parameters carries the tune (paper: 7 of 12).
    assert 2 <= result.changed_parameters <= 9
