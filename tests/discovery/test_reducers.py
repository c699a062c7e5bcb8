"""Kernel reducers: loop reduction, path switching, blind-write removal."""

import pytest

from repro.discovery.reducers import (
    BlindWriteRemoval,
    IOPathSwitching,
    LoopReduction,
)

SRC = """
#define STEPS 85
#define SMALL 2
int main(void)
{
  hid_t f = H5Fcreate("out/data.h5", H5F_ACC_TRUNC, H5P_DEFAULT, H5P_DEFAULT);
  FILE *log = fopen("run.log", "w");
  for (int step = 0; step < STEPS; step++)
  {
    for (int v = 0; v < SMALL; v++)
    {
      H5Dwrite(f, 0, 0, 0, 0, 0);
    }
  }
  return 0;
}
"""


def test_loop_reduction_shrinks_outermost_only():
    out = LoopReduction(0.01).apply(SRC)
    assert len(out.reductions) == 1
    rec = out.reductions[0]
    assert rec.original_iterations == 85
    assert rec.reduced_iterations == 1
    assert rec.scale == pytest.approx(85.0)
    assert out.extrapolation_factor == pytest.approx(85.0)
    assert "step < 1" in out.source
    assert "v < SMALL" in out.source  # inner loop untouched
    assert "tunio:loop-reduced" in out.source


def test_loop_reduction_too_small_to_reduce():
    src = SRC.replace("#define STEPS 85", "#define STEPS 1")
    out = LoopReduction(0.5).apply(src)
    assert out.reductions == ()
    assert out.extrapolation_factor == 1.0


def test_loop_reduction_unresolvable_bound_skipped():
    src = SRC.replace("step < STEPS", "step < argc")
    out = LoopReduction(0.01).apply(src)
    assert out.reductions == ()


def test_loop_reduction_fraction_validation():
    with pytest.raises(ValueError):
        LoopReduction(0.0)
    with pytest.raises(ValueError):
        LoopReduction(1.5)


def test_loop_reduction_le_bound():
    src = SRC.replace("step < STEPS", "step <= 84")
    out = LoopReduction(0.01).apply(src)
    assert out.reductions[0].original_iterations == 85
    assert "step <= 0" in out.source


def test_path_switching_prefixes_all_opens():
    out = IOPathSwitching("/dev/shm").apply(SRC)
    paths = {r.switched for r in out.path_switches}
    assert paths == {"/dev/shm/out/data.h5", "/dev/shm/run.log"}
    assert '"/dev/shm/out/data.h5"' in out.source
    assert '"/dev/shm/run.log"' in out.source


def test_path_switching_idempotent():
    once = IOPathSwitching("/dev/shm").apply(SRC)
    twice = IOPathSwitching("/dev/shm").apply(once.source)
    assert twice.path_switches == ()


def test_path_switching_validation():
    with pytest.raises(ValueError):
        IOPathSwitching("relative/path")
    with pytest.raises(ValueError):
        IOPathSwitching("")


def test_blind_write_removal():
    src = """
int main(void)
{
  H5Dwrite(written_only, 0, 0, 0, 0, buf);
  H5Dwrite(read_back, 0, 0, 0, 0, buf);
  H5Dread(read_back, 0, 0, 0, 0, buf);
  return 0;
}
"""
    out = BlindWriteRemoval().apply(src)
    assert len(out.removed_writes) == 1
    assert out.removed_writes[0].dataset_variable == "written_only"
    assert out.source.count("H5Dwrite") == 1
    assert "H5Dread" in out.source


def test_reducers_compose():
    first = LoopReduction(0.01).apply(SRC)
    second = IOPathSwitching("/dev/shm").apply(first.source)
    assert "step < 1" in second.source
    assert "/dev/shm/out/data.h5" in second.source

