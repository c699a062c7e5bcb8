"""Stack configurations and the H5Tuner XML override format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.iostack import TUNED_SPACE, StackConfiguration, from_xml, to_xml


def test_default_config_uses_library_defaults():
    cfg = StackConfiguration.default()
    assert cfg["striping_factor"] == 1
    assert cfg["romio_collective"] is False
    assert cfg.changed_parameters() == {}


def test_with_values_returns_new_config():
    cfg = StackConfiguration.default()
    tuned = cfg.with_values(striping_factor=64)
    assert tuned["striping_factor"] == 64
    assert cfg["striping_factor"] == 1
    assert tuned.changed_parameters() == {"striping_factor": 64}


def test_non_candidate_value_rejected():
    with pytest.raises(ValueError):
        StackConfiguration.default().with_values(striping_factor=7)


def test_unknown_parameter_rejected():
    with pytest.raises(KeyError):
        StackConfiguration({"bogus": 1})


def test_mapping_protocol():
    cfg = StackConfiguration.default()
    assert len(cfg) == len(TUNED_SPACE)
    assert set(iter(cfg)) == set(TUNED_SPACE.names)


def test_equality_and_hash():
    a = StackConfiguration.default()
    b = StackConfiguration.default()
    c = a.with_values(cb_nodes=8)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_layer_slicing():
    cfg = StackConfiguration.default()
    lustre = cfg.layer("lustre")
    assert set(lustre) == {"striping_factor", "striping_unit"}
    hdf5 = cfg.layer("hdf5")
    assert "sieve_buf_size" in hdf5 and "cb_nodes" not in hdf5


def test_genome_roundtrip():
    rng = np.random.default_rng(0)
    cfg = StackConfiguration.random(rng)
    again = StackConfiguration.from_genome(cfg.genome())
    assert again == cfg


def test_from_genome_round_trips_its_genome():
    rng = np.random.default_rng(5)
    for _ in range(20):
        genome = np.array([rng.integers(c) for c in TUNED_SPACE.cardinalities])
        config = StackConfiguration.from_genome(genome)
        assert np.array_equal(config.genome(), genome)
        assert config == StackConfiguration(TUNED_SPACE.decode(genome))
        assert config.genome().dtype == np.int64
        assert StackConfiguration.from_genome(genome.tolist()) == config
    # The genome is copied in and out: neither side can alter the other.
    config.genome()[0] += 1
    genome[0] += 1
    assert StackConfiguration.from_genome(config.genome()) == config


@pytest.mark.parametrize(
    "position, index, message",
    [
        (0, -1, "index -1 of parameter 'sieve_buf_size' is outside"),
        (8, 99, "index 99 of parameter 'striping_unit' is outside"),
        (11, 2, "index 2 of parameter 'romio_collective' is outside"),
    ],
)
def test_from_genome_rejects_an_index_out_of_range(position, index, message):
    genome = [0] * len(TUNED_SPACE)
    genome[position] = index
    with pytest.raises(ValueError, match=message):
        StackConfiguration.from_genome(genome)
    with pytest.raises(ValueError, match=message):
        StackConfiguration.from_genome(np.array(genome))


def test_from_genome_rejects_float_indices():
    with pytest.raises(ValueError, match="0.7 of parameter 'sieve_buf_size' is not an integer"):
        StackConfiguration.from_genome(np.array([0.7] * len(TUNED_SPACE)))
    genome = [0] * len(TUNED_SPACE)
    genome[3] = 1.0
    with pytest.raises(ValueError, match="1.0 of parameter 'meta_block_size' is not an integer"):
        StackConfiguration.from_genome(genome)


def test_normalized_in_unit_box():
    rng = np.random.default_rng(1)
    norm = StackConfiguration.random(rng).normalized()
    assert norm.min() >= 0.0 and norm.max() <= 1.0


# -- XML round trip -----------------------------------------------------------


def test_xml_roundtrip_default():
    cfg = StackConfiguration.default()
    assert from_xml(to_xml(cfg)) == cfg


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_xml_roundtrip_random(seed):
    cfg = StackConfiguration.random(np.random.default_rng(seed))
    assert from_xml(to_xml(cfg)) == cfg


def test_xml_structure_has_h5tuner_sections():
    text = to_xml(StackConfiguration.default())
    assert text.startswith("<Parameters>")
    for section in ("<HDF5>", "<MPI-IO>", "<Lustre>"):
        assert section in text


def test_xml_booleans_render_lowercase():
    text = to_xml(StackConfiguration.default().with_values(romio_collective=True))
    assert "<romio_collective>true</romio_collective>" in text


def test_partial_xml_fills_defaults():
    text = (
        "<Parameters><Lustre><striping_factor>16</striping_factor>"
        "</Lustre></Parameters>"
    )
    cfg = from_xml(text)
    assert cfg["striping_factor"] == 16
    assert cfg["cb_nodes"] == TUNED_SPACE["cb_nodes"].default


def test_bad_xml_rejected():
    with pytest.raises(ValueError):
        from_xml("<Wrong/>")
    with pytest.raises(ValueError):
        from_xml("<Parameters><Nope><x>1</x></Nope></Parameters>")
    with pytest.raises(KeyError):
        from_xml("<Parameters><HDF5><bogus>1</bogus></HDF5></Parameters>")
