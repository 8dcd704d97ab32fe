import numpy as np
import pytest

from pinset import kernels
from pinset.rng import RngState


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


def _brute_force_mttkrp(factors, weights, dims):
    """grad_j[i, a] = sum over entries with a_j = a of w * prod_{k != j} F_k[i, a_k]."""
    rows = factors[0].shape[0]
    w = weights.reshape(dims)
    grads = [np.zeros_like(f) for f in factors]
    for idx in np.ndindex(*dims):
        for i in range(rows):
            for j, a in enumerate(idx):
                others = [factors[k][i, b] for k, b in enumerate(idx) if k != j]
                grads[j][i, a] += w[idx] * np.prod(others)
    return grads


def _einsum_mttkrp(factors, weights, dims):
    """grad_j = G contracted with every factor but F_j, as one einsum; the
    column of ones carries the row axis when F_j is the only factor."""
    n = len(dims)
    grads = []
    for j in range(n):
        operands = [weights.reshape(dims), list(range(n)), np.ones(factors[0].shape[0]), [n]]
        for k, f in enumerate(factors):
            if k != j:
                operands += [f, [n, k]]
        grads.append(np.einsum(*operands, [n, j]))
    return grads


SHAPES = [(3,), (2, 3), (3, 1, 2), (2, 3, 2), (2, 2, 2, 3), (2, 1, 2, 2, 3), (2, 2, 1, 2, 2, 2)]

# the lab workload's widths, and the splits the passes take at each: how
# many factors go on the left of the one GEMM
SPLITS = [
    pytest.param((6, 6, 6), 2, id="6-6-6-one-factor-right"),
    pytest.param((16, 8, 8), 1, id="16-8-8-one-factor-left"),
    pytest.param((8, 8, 4, 4), 2, id="8-8-4-4-two-each-side"),
    pytest.param((8, 4, 4, 4, 2), 2, id="8-4-4-4-2-two-left-three-right"),
    pytest.param((4, 4, 4, 4, 2, 2), 3, id="4-4-4-4-2-2-three-each-side"),
    pytest.param((5,), 1, id="5-empty-right"),
    pytest.param((1, 1, 1), 3, id="1-1-1-empty-right"),
]


@pytest.mark.parametrize("dims", SHAPES)
def test_forward_matches_brute_force(dims):
    factors = _random_factors(dims, 5, seed=1)
    out = kernels.sum_product_forward(factors).reshape(dims)
    np.testing.assert_allclose(out, _brute_force(factors, dims), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dims", SHAPES)
def test_backward_matches_brute_force(dims):
    factors = _random_factors(dims, 6, seed=2)
    grad = RngState(3).generator().uniform(-1, 1, size=int(np.prod(dims)))
    grads = kernels.sum_product_backward(factors, grad)
    expected = _brute_force_mttkrp(factors, grad, dims)
    assert [g.shape for g in grads] == [f.shape for f in factors]
    for got, want in zip(grads, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dims, split", SPLITS)
def test_backward_matches_einsum_at_lab_widths(dims, split):
    assert kernels._split(dims) == split
    factors = _random_factors(dims, 7, seed=6)
    grad = RngState(7).generator().uniform(-1, 1, size=int(np.prod(dims)))
    grads = kernels.sum_product_backward(factors, grad)
    assert [g.shape for g in grads] == [f.shape for f in factors]
    for got, want in zip(grads, _einsum_mttkrp(factors, grad, dims)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_backward_matches_finite_differences():
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
        kernels.sum_product_forward([np.ones((3, 2)), np.ones((4, 2))])
    with pytest.raises(ValueError, match="rows"):
        kernels.sum_product_backward([np.ones((3, 2)), np.ones((4, 2))], np.ones(4))


@pytest.mark.parametrize("size", [0, 12])
def test_gradient_size_mismatch_rejected(size):
    with pytest.raises(ValueError, match=f"grad_flat has {size} entries, expected 6"):
        kernels.sum_product_backward([np.ones((3, 2)), np.ones((3, 3))], np.ones(size))
