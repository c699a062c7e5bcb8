"""Experiment runners: the cheap figures run in-suite; the heavyweight
GA-based figures are exercised end-to-end by the benchmark harness and
only smoke-checked here."""

import hashlib

import pytest

from repro.analysis import (
    fig01_search_space,
    fig02_log_curves,
    fig08_discovery,
    fig08c_kernel_similarity,
    fig09_impact_first,
    fig10_early_stopping,
    fig11_pipeline,
    fig12_lifecycle,
    make_context,
)
from repro.analysis.experiments import _log_fit_r2
import numpy as np

#: sha256 over every figure's ``report()`` at seed 0 with 8-iteration
#: budgets (Figure 12 on the Figure 11 result).  A refactor of the
#: runners must leave it unchanged; a change that moves a figure on
#: purpose re-records it.
FIGURE_REPORTS_DIGEST = "9a31cc0792549e425dab89d63dea4cbab5ae38998c27cdbdbd6014f01677f700"


def test_fig01_matches_paper_shape():
    res = fig01_search_space()
    assert res.tuned_space_permutations > 2_180_000_000
    stacks = dict(res.stack_rows)
    assert stacks["HDF5+MPI"] > stacks["HDF5"]
    assert stacks["HDF5+MPI+Hermes"] > stacks["HDF5+MPI"]
    report = res.report()
    assert "Figure 1" in report and "HDF5+MPI" in report


def test_fig08c_matches_paper_shape():
    res = fig08c_kernel_similarity()
    # Bytes: near-exact for both kernels (paper: 0.0002% / 0.19%).
    assert res.kernel_bytes_error < 0.005
    assert res.reduced_bytes_error < 0.01
    # Ops: kernel misses the logging share; reduction compensates partly.
    assert 0.15 < res.kernel_ops_error < 0.25
    assert res.reduced_ops_error < res.kernel_ops_error
    assert "Figure 8(c)" in res.report()


def test_log_fit_r2_on_perfect_log():
    t = np.arange(50)
    values = 1.0 + 2.0 * np.log1p(t)
    assert _log_fit_r2(values) > 0.999


def test_context_is_cached_and_seeded():
    a = make_context(0)
    b = make_context(0)
    assert a is b
    assert a.rng(1).integers(100) == a.rng(1).integers(100)
    sim = a.simulator_for(8, salt=3)
    assert sim.platform.n_nodes == 8


@pytest.mark.slow
def test_fig02_produces_log_curves():
    res = fig02_log_curves(seed=0, iterations=20)
    assert set(res.results) == {"hacc-io", "flash-io", "vpic-io"}
    for name, fit in res.log_fit_r2.items():
        assert fit > 0.3, name
    for r in res.results.values():
        assert r.best_perf > 1.5 * r.baseline_perf


def test_fresh_agents_are_isolated():
    ctx = make_context(0)
    a = ctx.fresh_agents()
    b = ctx.fresh_agents()
    assert a.smart_config is not b.smart_config
    assert a.early_stopper is not b.early_stopper
    # Mutating one clone leaves the other and the master untouched.
    a.smart_config.credit_subset(("cb_nodes",), 0.9)
    assert not np.allclose(a.smart_config.impact_scores, b.smart_config.impact_scores)
    assert np.allclose(
        b.smart_config.impact_scores, ctx.agents.smart_config.impact_scores
    )


def test_fresh_agents_are_the_seeds_run_agents():
    """A figure run's agents are the ones a CLI run of the context's
    seed builds from the same learned arrays."""
    from repro.core.offline_training import agent_arrays, agents_from_arrays

    ctx = make_context(0)
    fresh = ctx.fresh_agents()
    built = agents_from_arrays(agent_arrays(ctx.agents), ctx.normalizer, seed=0)
    for a, b in ((fresh.smart_config, built.smart_config),
                 (fresh.early_stopper, built.early_stopper)):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
    x, y = agent_arrays(fresh), agent_arrays(built)
    assert all(np.array_equal(x[k], y[k]) for k in x)


def test_ascii_chart_smoke():
    from repro.analysis import ascii_chart
    from repro.analysis.reporting import CHART_HEIGHT, CHART_WIDTH

    out = ascii_chart({"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
    lines = out.splitlines()
    assert len(lines) == CHART_HEIGHT + 3  # rows + axis + xlabel + legend
    assert all(len(line) == 12 + CHART_WIDTH for line in lines[:CHART_HEIGHT])
    assert "* a" in lines[-1] and "o b" in lines[-1]
    assert ascii_chart({}) == "(no data)"


def test_figure_reports_are_pinned():
    pipeline = fig11_pipeline(seed=0, iterations=8)
    reports = [
        fig01_search_space().report(),
        fig02_log_curves(seed=0, iterations=8).report(),
        fig08_discovery(seed=0, iterations=8).report(),
        fig08c_kernel_similarity().report(),
        fig09_impact_first(seed=0, iterations=8).report(),
        fig10_early_stopping(seed=0, iterations=8).report(),
        pipeline.report(),
        fig12_lifecycle(seed=0, pipeline=pipeline).report(),
    ]
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == FIGURE_REPORTS_DIGEST
