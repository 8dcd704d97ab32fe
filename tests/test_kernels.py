import os
import subprocess
import sys

import numpy as np
import pytest

import pinset
from pinset import kernels
from pinset.rng import RngState


@pytest.fixture
def restore_backend():
    original = kernels.active_backend()
    yield
    kernels.set_backend(original)


def _random_factors(dims, rows, seed):
    gen = RngState(seed).generator()
    return [gen.uniform(-1, 1, size=(rows, c)) for c in dims]


def _brute_force(factors, dims):
    rows = factors[0].shape[0]
    out = np.zeros(dims)
    for idx in np.ndindex(*dims):
        out[idx] = sum(
            np.prod([factors[j][i, a] for j, a in enumerate(idx)]) for i in range(rows)
        )
    return out


@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 3, 2), (2, 2, 2, 3)])
def test_forward_matches_brute_force_on_both_backends(dims, restore_backend):
    factors = _random_factors(dims, 5, seed=1)
    expected = _brute_force(factors, dims)
    for backend in ("numpy", "numba"):
        kernels.set_backend(backend)
        out = kernels.sum_product_forward(factors).reshape(dims)
        np.testing.assert_allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("dims", [(4,), (3, 4), (2, 3, 4), (2, 2, 3, 2)])
def test_backward_backend_parity(dims, restore_backend):
    factors = _random_factors(dims, 6, seed=2)
    grad = RngState(3).generator().uniform(-1, 1, size=int(np.prod(dims)))
    results = {}
    for backend in ("numpy", "numba"):
        kernels.set_backend(backend)
        results[backend] = kernels.sum_product_backward(factors, grad)
    for a, b in zip(results["numpy"], results["numba"]):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_backward_matches_finite_differences(restore_backend):
    dims = (2, 3, 2)
    factors = _random_factors(dims, 4, seed=4)
    weights = RngState(5).generator().uniform(-1, 1, size=int(np.prod(dims)))
    grads = kernels.sum_product_backward(factors, weights)

    h = 1e-6
    for j, factor in enumerate(factors):
        for i in range(factor.shape[0]):
            for a in range(factor.shape[1]):
                bumped = [f.copy() for f in factors]
                bumped[j][i, a] += h
                up = float(kernels.sum_product_forward(bumped) @ weights)
                bumped[j][i, a] -= 2 * h
                down = float(kernels.sum_product_forward(bumped) @ weights)
                fd = (up - down) / (2 * h)
                assert abs(fd - grads[j][i, a]) < 1e-6


def test_row_count_mismatch_rejected():
    with pytest.raises(ValueError, match="rows"):
        kernels.pack_factors([np.ones((3, 2)), np.ones((4, 2))])


def test_set_backend_validation(restore_backend):
    with pytest.raises(ValueError, match="backend"):
        kernels.set_backend("fortran")


def test_env_flag_selects_numpy_backend():
    code = "from pinset import kernels; print(kernels.active_backend())"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(pinset.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir, "PINSET_BACKEND": "numpy"},
    )
    assert out.stdout.strip() == "numpy"
