"""Parameter definitions, the tuned space and Figure 1 catalogs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.iostack.parameters import (
    LIBRARY_CATALOG,
    TUNED_SPACE,
    LibraryCatalog,
    Parameter,
    ParameterSpace,
    stack_permutations,
)


# -- Parameter ---------------------------------------------------------------


def make_param(values=(1, 2, 4, 8), default=1, kind="ordinal"):
    return Parameter("p", "hdf5", tuple(values), default, kind=kind)


def test_parameter_validates_default_membership():
    with pytest.raises(ValueError):
        make_param(values=(1, 2), default=3)


def test_parameter_rejects_duplicates():
    with pytest.raises(ValueError):
        make_param(values=(1, 1, 2))


def test_parameter_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_param(kind="fuzzy")


def test_parameter_rejects_unknown_layer():
    with pytest.raises(ValueError):
        Parameter("p", "nfs", (1, 2), 1)


def test_index_of_and_default_index():
    p = make_param(values=(10, 20, 30), default=20)
    assert p.index_of(30) == 2
    assert p.default_index == 1
    with pytest.raises(ValueError):
        p.index_of(99)


def test_sample_returns_candidate(rng):
    p = make_param()
    for _ in range(20):
        assert p.sample(rng) in p.values


# -- ParameterSpace ------------------------------------------------------------


def test_tuned_space_has_twelve_parameters():
    assert len(TUNED_SPACE) == 12
    assert len(set(TUNED_SPACE.names)) == 12


def test_tuned_space_permutations_match_paper_claim():
    # "a search space of over 2.18 billion permutations"
    assert TUNED_SPACE.permutations() > 2_180_000_000


def test_tuned_space_covers_all_three_layers():
    layers = {p.layer for p in TUNED_SPACE}
    assert layers == {"hdf5", "mpiio", "lustre"}


def test_space_lookup_by_name_and_index():
    p = TUNED_SPACE["striping_factor"]
    assert p.layer == "lustre"
    assert TUNED_SPACE[TUNED_SPACE.index_of_name("striping_factor")] is p
    assert "striping_factor" in TUNED_SPACE
    assert "bogus" not in TUNED_SPACE


def test_encode_decode_roundtrip_defaults():
    values = TUNED_SPACE.default_values()
    genome = TUNED_SPACE.encode(values)
    assert TUNED_SPACE.decode(genome) == values


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_encode_decode_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    values = TUNED_SPACE.random_values(rng)
    genome = TUNED_SPACE.encode(values)
    assert TUNED_SPACE.decode(genome) == values
    norm = TUNED_SPACE.normalized(genome)
    assert norm.shape == (len(TUNED_SPACE),)
    assert np.all(norm >= 0) and np.all(norm <= 1)


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError):
        TUNED_SPACE.decode([0, 1])


def test_subset_preserves_space_order():
    sub = TUNED_SPACE.subset(["cb_nodes", "sieve_buf_size"])
    assert sub.names == ("sieve_buf_size", "cb_nodes")  # genome order
    with pytest.raises(KeyError):
        TUNED_SPACE.subset(["nope"])


def test_duplicate_names_rejected():
    p = make_param()
    with pytest.raises(ValueError):
        ParameterSpace([p, p])


# -- Figure 1 catalogs -----------------------------------------------------------


def test_catalog_contains_paper_libraries():
    assert set(LIBRARY_CATALOG) == {
        "HDF5", "PNetCDF", "MPI", "ADIOS", "OpenSHMEMX", "Hermes"
    }


def test_catalog_permutation_rule():
    cat = LibraryCatalog("X", discrete=3, continuous=2)
    assert cat.permutations() == 2**3 * 5**2
    assert cat.permutations(per_discrete=3, per_continuous=2) == 3**3 * 2**2
    with pytest.raises(ValueError):
        cat.permutations(per_discrete=0)


def test_stack_permutations_multiply():
    single = stack_permutations(["HDF5"])
    double = stack_permutations(["HDF5", "MPI"])
    assert double == single * stack_permutations(["MPI"])
    # The paper quotes ~3.81e21 for HDF5+MPI; ours is the same order.
    assert 1e20 < double < 1e23


def test_stack_permutations_unknown_library():
    with pytest.raises(KeyError):
        stack_permutations(["HDF5", "GPFS"])
