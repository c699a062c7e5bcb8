"""Pinned trace digest: the layer models' arithmetic is bit-reproducible.

One sha256 over ``repr`` of every trace the simulator builds for the
bundled workloads, a MACSio variant without its steady dump block (what
1% loop reduction of its 85-dump loop keeps) and a memory-tier VPIC,
each under the default configuration and 60 seeded random ones.  ``repr`` of
a trace spells every float at full round-trip precision, so any change
to the HDF5, MPI-IO, Lustre or POSIX models that moves a single bit of a
service time, byte count or op count changes the digest.

``tests/test_fastpath_equivalence.py`` cannot catch such a change: its
reference simulator calls the same layer functions.  This digest was
recorded before the per-trace overhead work (single ``mean_size``,
direct stream construction, once-per-node-count platform scaling) and
must survive it unchanged.  It must also survive the layer memo: the
same traces built on one shared
:class:`~repro.iostack.evalcache.EvaluationCache`, each after a one-gene
mutant that fills the memo, give the same digest.

The digest was re-recorded once without any value moving: the Lustre
read-contention term switched from ``np.sqrt`` to ``math.sqrt``, so read
streams' ``base_seconds`` became Python floats and ``repr`` stopped
spelling them ``np.float64(...)``.  A digest over the same traces with
every float written as ``float(x).hex()`` was equal before and after.
"""

import dataclasses
import hashlib
from collections import Counter

import numpy as np

from repro.iostack import (
    TUNED_SPACE,
    EvaluationCache,
    IOStackSimulator,
    NoiseModel,
    StackConfiguration,
    cori,
)
from repro.workloads import bdcats, flash, hacc, ior, macsio_vpic_dipole, vpic

TRACE_DIGEST = "3d28bffae7b5a4f1d30580f5d87905d7c828e2fd5eb00ae20f0238b7d07cac5b"

RANDOM_CONFIGS = 60


def workloads():
    yield from (flash(), hacc(), vpic(), bdcats(), ior(), macsio_vpic_dipole())
    macsio = macsio_vpic_dipole()
    yield dataclasses.replace(
        macsio,
        name=f"{macsio.name}+loopred",
        phases=macsio.phases[:-1],
        extrapolation_factor=100.0,
    )
    memory = vpic()
    yield dataclasses.replace(
        memory,
        name=f"{memory.name}+memio",
        phases=tuple(dataclasses.replace(p, tier="memory") for p in memory.phases),
    )


def test_traces_are_pinned():
    sim = IOStackSimulator(cori(), NoiseModel.quiet())
    rng = np.random.default_rng(2026)
    h = hashlib.sha256()
    for workload in workloads():
        configs = [StackConfiguration.default()]
        configs += [StackConfiguration.random(rng) for _ in range(RANDOM_CONFIGS)]
        for config in configs:
            h.update(repr(sim.trace(workload, config)).encode())
    assert h.hexdigest() == TRACE_DIGEST


def one_gene_mutant(config, rng):
    """``config`` with one gene moved to another of its values."""
    genome = config.genome()
    i = int(rng.integers(genome.size))
    cardinality = TUNED_SPACE.cardinalities[i]
    genome[i] = (genome[i] + 1 + rng.integers(cardinality - 1)) % cardinality
    return StackConfiguration.from_genome(genome)


def test_traces_are_pinned_inside_one_shared_memo_scope(layer_calls):
    sim = IOStackSimulator(cori(), NoiseModel.quiet())
    rng = np.random.default_rng(2026)
    mutant_rng = np.random.default_rng(7)
    h = hashlib.sha256()
    pinned_calls = Counter()
    phases = lustre_streams = 0
    memo = EvaluationCache()
    for workload in workloads():
        configs = [StackConfiguration.default()]
        configs += [StackConfiguration.random(rng) for _ in range(RANDOM_CONFIGS)]
        for config in configs:
            sim.trace(workload, one_gene_mutant(config, mutant_rng), memo)
            before = Counter(layer_calls)
            h.update(repr(sim.trace(workload, config, memo)).encode())
            pinned_calls.update(layer_calls - before)
            phases += len(workload.phases)
            lustre_streams += sum(
                len(p.data) for p in workload.phases if p.tier == "lustre"
            )
    assert h.hexdigest() == TRACE_DIGEST
    # The pinned traces were served partly from the memo.
    assert pinned_calls["apply_hdf5"] < phases
    assert pinned_calls["apply_hdf5_metadata"] < phases
    assert (
        pinned_calls["serve_metadata"] + pinned_calls["serve_memory_metadata"]
        == pinned_calls["apply_hdf5_metadata"]
    )
    assert pinned_calls["apply_mpiio"] < lustre_streams
    assert pinned_calls["serve_lustre"] < lustre_streams
