"""The pipeline's outputs against the committed golden fingerprints
(`golden_fingerprints.json`, written by `golden_fingerprints.py`).

On the recorded build (numpy version, BLAS build and BLAS digest all equal)
every value must match bitwise. On another build, the values computed through
BLAS or LAPACK (training losses, detection scores and boxes, block outputs and
gradients) must lie within BLAS_RTOL of their section's largest magnitude;
what never touches BLAS (the trace's step and lr columns, detection counts and
classes, every AP cell) stays exact.
"""

import json

import numpy as np
import pytest

import golden_fingerprints as golden

# the worst seen across OpenBLAS's SkylakeX, Haswell, Sandybridge, Nehalem
# and Prescott kernels (OPENBLAS_CORETYPE) is 5.8e-16, on the detections
BLAS_RTOL = 1e-12


@pytest.fixture(scope="module")
def want():
    return json.loads(golden.PATH.read_text())


@pytest.fixture(scope="module")
def same_build(want):
    return golden.build() == want["build"]


@pytest.fixture(scope="module")
def trace_and_detect():
    return golden.trace_and_detect()


def assert_exact(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def assert_blas(got, want, same_build):
    """Bitwise on the recorded build, else within BLAS_RTOL of the largest
    magnitude of `want` (a list of arrays)."""
    assert [np.shape(g) for g in got] == [np.shape(w) for w in want]
    if same_build:
        for g, w in zip(got, want):
            assert_exact(g, w)
        return
    scale = max(np.abs(w).max(initial=0.0) for w in want)
    err = max(np.abs(np.subtract(g, w)).max(initial=0.0) for g, w in zip(got, want))
    assert err <= BLAS_RTOL * scale, f"off by {err:.3g}, scale {scale:.3g}"


def test_train_trace(want, same_build, trace_and_detect):
    got, ref = np.array(trace_and_detect[0]), np.array(want["trace"])
    assert got.shape == ref.shape == (golden.TRAIN_STEPS, 6)
    assert_exact(got[:, :2], ref[:, :2])   # step, lr
    assert_blas(golden.compared("trace", got), golden.compared("trace", ref), same_build)


def test_detect(want, same_build, trace_and_detect):
    got, ref = trace_and_detect[1], want["detect"]
    assert [len(s) for s in got] == [len(s) for s in ref]
    assert sum(map(len, ref)) > 0
    assert [r[0] for s in got for r in s] == [r[0] for s in ref for r in s]   # classes
    assert_blas(golden.compared("detect", got), golden.compared("detect", ref), same_build)


def test_block(want, same_build):
    got, ref = golden.block_outputs(), want["block"]
    assert_blas(golden.compared("block", got), golden.compared("block", ref), same_build)


def test_ap_cells(want):
    got, ref = golden.ap_cells(), want["ap"]
    assert list(got) == list(ref) and len(ref) == 54
    assert_exact(list(got.values()), list(ref.values()))
