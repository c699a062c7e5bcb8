"""Bundled C sources and their consistency with workload factories."""

import pytest

from repro.discovery.modelgen import workload_from_source
from repro.workloads import flash, hacc, macsio_vpic_dipole, vpic
from repro.workloads.sources import available_sources, canonical_hints, load_source


def test_all_sources_available():
    assert available_sources() == ("bdcats", "flash", "hacc", "macsio", "vpic")


def test_unknown_source_rejected():
    with pytest.raises(KeyError):
        load_source("gromacs")
    with pytest.raises(KeyError):
        canonical_hints("gromacs")


@pytest.mark.parametrize("name", ["macsio", "vpic", "flash", "hacc", "bdcats"])
def test_sources_look_like_hdf5_mpi_programs(name):
    src = load_source(name)
    assert "#include <hdf5.h>" in src
    assert "MPI_Init" in src
    assert "H5Fcreate" in src or "H5Fopen" in src
    assert "int main" in src


@pytest.mark.parametrize(
    ("name", "factory"),
    [("vpic", vpic), ("flash", flash), ("hacc", hacc)],
)
def test_source_models_track_factories(name, factory):
    """The statically interpreted source should agree with the
    hand-written behavioural model on volume within ~25%."""
    modelled = workload_from_source(load_source(name), name, canonical_hints(name))
    coded = factory()
    assert modelled.bytes_written == pytest.approx(coded.bytes_written, rel=0.25)
    assert modelled.n_procs == coded.n_procs
    assert modelled.compute_seconds == pytest.approx(coded.compute_seconds, rel=0.35)


def test_macsio_source_tracks_factory():
    modelled = workload_from_source(
        load_source("macsio"), "macsio", canonical_hints("macsio")
    )
    coded = macsio_vpic_dipole()
    assert modelled.bytes_written == pytest.approx(coded.bytes_written, rel=0.25)
    # Both carry a logging phase of the same ops share.
    m_log = next(p for p in modelled.phases if p.name == "logging")
    c_log = next(p for p in coded.phases if p.name == "logging")
    m_share = m_log.write_ops / modelled.write_ops
    c_share = c_log.write_ops / coded.write_ops
    assert m_share == pytest.approx(c_share, abs=0.05)
