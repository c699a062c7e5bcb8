"""Application workload factories and their calibration envelope."""

import pytest

from repro.iostack import IOStackSimulator, NoiseModel, StackConfiguration, cori
from repro.workloads import (
    DUMP_LOOP_ITERATIONS,
    bdcats,
    flash,
    hacc,
    macsio_vpic_dipole,
    vpic,
)


ALL_COMPONENT_APPS = [vpic, flash, hacc, macsio_vpic_dipole]


@pytest.mark.parametrize("factory", ALL_COMPONENT_APPS)
def test_component_apps_use_paper_job_shape(factory):
    w = factory()
    assert w.n_procs == 128
    assert w.n_nodes == 4


def test_bdcats_uses_end_to_end_scale():
    w = bdcats()
    assert w.n_procs == 1600
    assert w.n_nodes == 500
    assert w.alpha < 0.3  # read-heavy


@pytest.mark.parametrize("factory", ALL_COMPONENT_APPS)
def test_write_only_apps(factory):
    w = factory()
    assert w.bytes_read == 0
    assert w.alpha == 1.0
    assert w.bytes_written > 1e10  # tens of GB per run


def test_macsio_logging_share_matches_figure_8c():
    w = macsio_vpic_dipole()
    logging = next(p for p in w.phases if p.name == "logging")
    share = logging.write_ops / w.write_ops
    assert 0.15 < share < 0.25  # paper: 19.05% of ops
    assert logging.bytes_written / w.bytes_written < 1e-4


def test_untuned_bandwidths_in_paper_range(quiet_sim, default_config):
    """Untuned perf per app lands near the paper's reported levels."""
    expectations = {
        "vpic-io": (0.3, 1.0),
        "flash-io": (0.1, 0.6),
        "hacc-io": (0.3, 0.8),  # paper: 0.55 GB/s
        "macsio-vpic-dipole": (0.1, 0.6),
    }
    for factory in ALL_COMPONENT_APPS:
        w = factory()
        perf = quiet_sim.evaluate(w, default_config).perf_mbps / 1000
        lo, hi = expectations[w.name]
        assert lo < perf < hi, (w.name, perf)


def test_tuned_bandwidths_in_paper_range(quiet_sim, tuned_config):
    """The hand-tuned configuration reaches the ~2.0-2.5 GB/s level the
    paper reports for tuned 4-node runs (FLASH 2.3, HACC 2.2)."""
    for factory in ALL_COMPONENT_APPS:
        w = factory()
        perf = quiet_sim.evaluate(w, tuned_config).perf_mbps / 1000
        assert 1.6 < perf < 3.0, (w.name, perf)


def test_tuning_gains_roughly_match_paper(quiet_sim, default_config, tuned_config):
    """HACC ~4x (paper), others 3-10x."""
    w = hacc()
    base = quiet_sim.evaluate(w, default_config).perf_mbps
    tuned = quiet_sim.evaluate(w, tuned_config).perf_mbps
    assert 2.5 < tuned / base < 7.0


def test_bdcats_tuned_scale(default_config):
    sim = IOStackSimulator(cori(500), NoiseModel.quiet())
    w = bdcats()
    mib = 1024 * 1024
    tuned = default_config.with_values(
        striping_factor=248, romio_collective=True, cb_nodes=512,
        cb_buffer_size=64 * mib, coll_metadata_ops=True, mdc_config="large",
    )
    perf = sim.evaluate(w, tuned).perf_mbps / 1000
    # Paper: 88 GB/s tuned; our simulator lands the same order of magnitude.
    assert 50 < perf < 300


def test_factories_validate_arguments():
    with pytest.raises(ValueError):
        vpic(particles_per_proc=0)
    with pytest.raises(ValueError):
        flash(n_checkpoints=0)
    with pytest.raises(ValueError):
        hacc(n_checkpoints=0)
    with pytest.raises(ValueError):
        bdcats(particles_per_proc=-1)


def test_first_iteration_blocks_are_heavier():
    w = macsio_vpic_dipole()
    blocks = {p.name: p for p in w.phases}
    per_iter_first = blocks["dump_first"].write_ops
    per_iter_steady = blocks["dump_steady"].write_ops / (DUMP_LOOP_ITERATIONS - 1)
    assert per_iter_first > per_iter_steady
