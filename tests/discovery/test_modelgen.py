"""Static interpretation of C sources into workload models."""

import pytest

from repro.discovery.modelgen import ModelGenError, ModelHints, workload_from_source
from repro.workloads.sources import canonical_hints, load_source


SIMPLE = """
#include <hdf5.h>
#include <mpi.h>
#define N_STEPS 10
#define ELEMS 1048576
int main(int argc, char **argv)
{
    int rank, nprocs;
    MPI_Init(&argc, &argv);
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    double *buf = (double *) malloc(ELEMS * sizeof(double));
    hsize_t dims[1] = {ELEMS};
    hid_t fid = H5Fcreate("out.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
    hid_t sid = H5Screate_simple(1, dims, NULL);
    for (int step = 0; step < N_STEPS; step++)
    {
        hid_t did = H5Dcreate2(fid, "d", H5T_NATIVE_DOUBLE, sid, H5P_DEFAULT, H5P_DEFAULT, H5P_DEFAULT);
        H5Dwrite(did, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);
        H5Dclose(did);
    }
    H5Fclose(fid);
    MPI_Finalize();
    return 0;
}
"""

HINTS = ModelHints(n_procs=8, n_nodes=2)


def test_simple_source_volumes():
    w = workload_from_source(SIMPLE, "simple", HINTS)
    # 10 steps x 8 procs x 1 MiElems x 8 bytes
    assert w.write_ops == 10 * 8
    assert w.bytes_written == 10 * 8 * 1048576 * 8
    assert w.n_procs == 8 and w.n_nodes == 2
    names = [p.name for p in w.phases]
    assert [n for n in names if n.startswith("loop")] == ["loop0_first", "loop0_steady"]
    # The trip count resolved to 10: the steady block carries the other 9.
    blocks = {p.name: p for p in w.phases}
    assert blocks["loop0_first"].write_ops == 8
    assert blocks["loop0_steady"].write_ops == 9 * 8


def test_first_iteration_guard_detected():
    src = SIMPLE.replace(
        "        hid_t did = H5Dcreate2",
        """        if (step == 0)
        {
            H5Dwrite(fid, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);
        }
        hid_t did = H5Dcreate2""",
    )
    w = workload_from_source(src, "guarded", HINTS)
    # 10 steady writes + 1 first-only write, per proc.
    assert w.write_ops == (10 + 1) * 8


def test_compute_loops_become_time():
    src = SIMPLE.replace(
        "        hid_t did = H5Dcreate2",
        """        for (long it = 0; it < 100000000; it++)
        {
            rank = rank + 1;
        }
        hid_t did = H5Dcreate2""",
    )
    w = workload_from_source(src, "compute", HINTS)
    # 1e8 iterations x 1 statement x 2 ns x 10 steps = 2 s.
    assert w.compute_seconds == pytest.approx(2.0, rel=0.01)


def test_sleep_calls_become_time():
    src = SIMPLE.replace(
        "        hid_t did = H5Dcreate2",
        """        usleep(150000);
        sleep(1);
        hid_t did = H5Dcreate2""",
    )
    w = workload_from_source(src, "sleepy", HINTS)
    # (0.15 s + 1 s) x 10 steps.
    assert w.compute_seconds == pytest.approx(11.5)


def test_rank_guard_scopes_to_single_proc():
    src = SIMPLE.replace(
        "        H5Dwrite(did, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);",
        """        if (rank == 0)
        {
            H5Dwrite(did, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);
        }""",
    )
    w = workload_from_source(src, "rank0", HINTS)
    assert w.write_ops == 10  # one proc, not eight


def test_logging_becomes_fixed_phase():
    src = SIMPLE.replace(
        "    H5Fclose(fid);",
        '    FILE *logf = fopen("x.log", "w");\n'
        '    fprintf(logf, "done");\n'
        "    H5Fclose(fid);",
    )
    w = workload_from_source(src, "logged", HINTS)
    # Logging follows setup and precedes the loop blocks; replay
    # accumulates per-phase times in this order.
    assert [p.name for p in w.phases] == ["setup", "logging", "loop0_first", "loop0_steady"]
    logging = next(p for p in w.phases if p.name == "logging")
    assert not logging.data[0].collective_capable


def test_memory_tier_detected_from_paths():
    src = SIMPLE.replace('"out.h5"', '"/dev/shm/out.h5"')
    w = workload_from_source(src, "shm", HINTS)
    assert all(p.tier == "memory" for p in w.phases)


def test_element_sizes_from_types():
    src = SIMPLE.replace("H5T_NATIVE_DOUBLE", "H5T_NATIVE_FLOAT")
    w = workload_from_source(src, "floats", HINTS)
    assert w.bytes_written == 10 * 8 * 1048576 * 4


def test_metadata_counted():
    w = workload_from_source(SIMPLE, "simple", HINTS)
    total_meta = sum(
        p.metadata.total_ops for p in w.phases if p.metadata is not None
    )
    # Creates/closes inside the loop dominate: 2 per step per proc.
    assert total_meta >= 10 * 8 * 2


def test_no_main_rejected():
    with pytest.raises(ModelGenError):
        workload_from_source("int helper(void)\n{\nreturn 0;\n}\n", "x", HINTS)


def test_hints_validation():
    with pytest.raises(ValueError):
        ModelHints(n_procs=2, n_nodes=4)
    with pytest.raises(ValueError):
        ModelHints(statement_cost=-1.0)


@pytest.mark.parametrize("name", ["macsio", "vpic", "flash", "hacc", "bdcats"])
def test_bundled_sources_interpret(name):
    w = workload_from_source(load_source(name), name, canonical_hints(name))
    assert w.bytes_written > 0
    assert w.compute_seconds > 0
    if name == "bdcats":
        assert w.bytes_read > w.bytes_written  # read-heavy
        assert w.alpha < 0.5
    else:
        assert w.alpha == pytest.approx(1.0)


def test_fwrite_counts_as_logging():
    src = SIMPLE.replace(
        "    H5Fclose(fid);",
        '    FILE *ckpt = fopen("raw.dat", "w");\n'
        "    fwrite(buf, 8, 1024, ckpt);\n"
        "    H5Fclose(fid);",
    )
    w = workload_from_source(src, "raw", HINTS)
    logging = next(p for p in w.phases if p.name == "logging")
    assert logging.bytes_written == 8 * 1024 * 8  # size*count per proc


def test_top_level_write_becomes_setup_phase():
    src = SIMPLE.replace(
        "    H5Fclose(fid);",
        "    H5Dwrite(fid, H5T_NATIVE_DOUBLE, sid, H5S_ALL, H5P_DEFAULT, buf);\n"
        "    H5Fclose(fid);",
    )
    w = workload_from_source(src, "setup", HINTS)
    setup = next(p for p in w.phases if p.name == "setup")
    assert setup.write_ops == 8  # once per proc


def test_unresolvable_loop_bound_counts_once():
    src = SIMPLE.replace("step < N_STEPS", "step < argc")
    w = workload_from_source(src, "dynamic", HINTS)
    assert w.write_ops == 8  # one iteration assumed


def test_array_element_reassignment_tracked():
    src = SIMPLE.replace(
        "    hsize_t dims[1] = {ELEMS};",
        "    hsize_t dims[1] = {ELEMS};\n    dims[0] = 2048;",
    )
    w = workload_from_source(src, "resized", HINTS)
    assert w.bytes_written == 10 * 8 * 2048 * 8
