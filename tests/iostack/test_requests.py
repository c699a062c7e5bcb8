"""Request and metadata stream representation and transforms."""

import dataclasses

import numpy as np
import pytest

from repro.iostack.requests import MAX_SAMPLE, MetadataStream, RequestStream


def test_uniform_stream_totals():
    s = RequestStream.uniform("write", 1024, 5000, 8)
    assert s.total_bytes == 1024 * 5000
    assert s.mean_size == 1024
    assert s.sizes.size == MAX_SAMPLE
    assert s.scale == pytest.approx(5000 / MAX_SAMPLE)
    assert s.ops_per_proc == pytest.approx(625)


def test_small_streams_sample_everything():
    s = RequestStream.uniform("read", 10, 7, 2)
    assert s.sizes.size == 7
    assert s.scale == 1.0


def test_lognormal_stream_consistent_totals(rng):
    s = RequestStream.lognormal("write", 4096, 1.0, 10_000, 16, rng)
    assert s.total_bytes == pytest.approx(s.mean_size * s.total_ops, abs=1.0)
    # the stored mean is bit-identical to the sample's, as is a transform's
    assert s.mean_size == float(s.sizes.mean())
    merged = s.coalesce(64 * 1024)
    assert merged.mean_size == float(merged.sizes.mean())
    assert np.all(s.sizes >= 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(total_ops=0),
        dict(total_bytes=0),
        dict(n_procs=0),
        dict(contiguity=1.5),
        dict(interleave=-0.1),
        dict(alignment=0),
        dict(nodes=-1),
        dict(op="append"),
        dict(sizes=np.array([np.nan, 10.0])),
        dict(sizes=np.array([np.inf, 10.0])),
        dict(sizes=np.array([-np.inf, 10.0])),
        dict(sizes=np.array([0.0, 10.0])),
        dict(sizes=np.array([-5.0, 10.0])),
    ],
)
def test_invalid_fields_rejected(kwargs):
    base = dict(
        op="write",
        sizes=np.array([100.0]),
        total_ops=10,
        total_bytes=1000,
        n_procs=2,
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        RequestStream(**base)


def test_oversized_sample_rejected():
    with pytest.raises(ValueError):
        RequestStream(
            op="write",
            sizes=np.ones(MAX_SAMPLE + 1),
            total_ops=MAX_SAMPLE + 1,
            total_bytes=MAX_SAMPLE + 1,
            n_procs=1,
        )


# -- transforms -----------------------------------------------------------------


def test_aligned_preserves_bytes_and_sets_marker():
    s = RequestStream.uniform("write", 3_000_000, 100, 4)
    a = s.aligned(1024 * 1024)
    assert a.alignment == 1024 * 1024
    assert a.total_bytes == s.total_bytes
    assert a.total_ops == s.total_ops


def test_with_sizes_overrides_only_the_named_fields():
    s = RequestStream.uniform(
        "read", 4096, 100, 8, shared_file=False, contiguity=0.5, interleave=0.3,
        collective_capable=False,
    )
    t = s.with_sizes(s.sizes * 2, 50, n_procs=2, nodes=3)
    assert (t.op, t.total_ops, t.total_bytes) == ("read", 50, s.total_bytes)
    assert (t.n_procs, t.nodes, t.alignment) == (2, 3, 1)
    assert (t.shared_file, t.contiguity, t.interleave) == (False, 0.5, 0.3)
    assert not t.collective_capable
    assert t.mean_size == 2 * s.mean_size
    with pytest.raises(ValueError):
        s.with_sizes(s.sizes, 50, contiguity=float("nan"))


def test_aligned_noop_for_boundary_one():
    s = RequestStream.uniform("write", 100, 10, 1)
    assert s.aligned(1) is s


def test_coalesce_merges_sequential_requests():
    s = RequestStream.uniform("write", 4096, 10_000, 4, contiguity=1.0)
    merged = s.coalesce(64 * 1024)
    assert merged.total_ops < s.total_ops
    assert merged.total_bytes == s.total_bytes
    assert merged.mean_size > s.mean_size


def test_coalesce_respects_contiguity():
    random_access = RequestStream.uniform("write", 4096, 10_000, 4, contiguity=0.0)
    assert random_access.coalesce(64 * 1024) is random_access


def test_coalesce_noop_for_large_requests():
    s = RequestStream.uniform("write", 1024 * 1024, 100, 4)
    assert s.coalesce(1024) is s


def test_nodes_spanned_inference():
    s = RequestStream.uniform("write", 100, 100, 64)
    assert s.nodes_spanned(n_nodes=4, procs_per_node=32) == 2
    assert s.nodes_spanned(n_nodes=1, procs_per_node=32) == 1
    sparse = RequestStream.uniform("write", 100, 100, 64, nodes=50)
    assert sparse.nodes_spanned(n_nodes=500, procs_per_node=32) == 50
    assert sparse.nodes_spanned(n_nodes=10, procs_per_node=32) == 10


# -- memo keys ----------------------------------------------------------------------


def test_memo_key_differs_in_every_single_field():
    base = RequestStream.uniform("write", 4096, 100, 4)
    changed = {
        "op": "read",
        "sizes": base.sizes * 2.0,
        "total_ops": base.total_ops + 1,
        "total_bytes": base.total_bytes + 1,
        "n_procs": base.n_procs + 1,
        "shared_file": not base.shared_file,
        "contiguity": 0.5,
        "interleave": 0.5,
        "collective_capable": not base.collective_capable,
        "alignment": 4096,
        "nodes": 2,
    }
    assert set(changed) == {f.name for f in dataclasses.fields(RequestStream)}
    # Held alive, so no size array's id can be reused mid-test.
    variants = [dataclasses.replace(base, **{k: v}) for k, v in changed.items()]
    keys = {base.memo_key()} | {v.memo_key() for v in variants}
    assert len(keys) == len(variants) + 1


def test_memo_key_holds_sizes_by_identity():
    base = RequestStream.uniform("write", 4096, 100, 4, alignment=4096)
    # Transforms that keep the sizes share the array, and so the key.
    kept = base.with_sizes(base.sizes, base.total_ops)
    assert kept.memo_key() == base.memo_key()
    # An equal-content copy misses: it never hits falsely.
    copy = dataclasses.replace(base, sizes=base.sizes.copy())
    assert np.array_equal(copy.sizes, base.sizes)
    assert copy.memo_key() != base.memo_key()


# -- metadata stream --------------------------------------------------------------


def test_metadata_stream_basics():
    m = MetadataStream(total_ops=1000, n_procs=10)
    assert m.ops_per_proc == 100


def test_metadata_stream_validation():
    with pytest.raises(ValueError):
        MetadataStream(total_ops=-1, n_procs=1)
    with pytest.raises(ValueError):
        MetadataStream(total_ops=1, n_procs=0)
    with pytest.raises(ValueError):
        MetadataStream(total_ops=1, n_procs=1, write_fraction=2.0)
