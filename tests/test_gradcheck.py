"""Finite-difference checks for every differentiable primitive.

The analytic gradient of a scalar loss through each op is compared with
central finite differences (h = 1e-5) on random inputs in [-1, 1], 100
seeded trials per primitive, guarded relative error below 1e-6. Inputs
for the relu trial are kept a safe margin away from the kink, where the
derivative does not exist and finite differences are meaningless.
"""

import numpy as np
import pytest

from pinset.rng import RngState
from pinset.tensor import (
    BatchNormState,
    Tensor,
    add,
    backward,
    batchnorm,
    finite_difference_gradient,
    matmul,
    mul,
    pair_aggregate,
    relu,
    reshape,
    set_softmax,
    softmax_cross_entropy,
    squashing,
    sum_all,
    sum_over_set,
    sum_product,
    tile_rows,
    transpose,
)

TRIALS = 100
H = 1e-5
TOL = 1e-6


def _check(build_loss, x0: np.ndarray) -> float:
    """Max guarded relative error between analytic and FD gradients of the
    scalar loss built from a single input tensor."""
    t = Tensor(x0.copy(), requires_grad=True)
    grads = backward(build_loss(t))
    analytic = grads[t]

    def f(arr):
        return float(build_loss(Tensor(arr)).data)

    fd = finite_difference_gradient(f, x0.copy(), h=H)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1.0)
    return float(np.max(np.abs(fd - analytic) / denom))


def _weighted(gen, shape):
    # a fixed random weighting makes the scalar loss sensitive to every entry
    w = gen.uniform(-1.0, 1.0, size=shape)
    return lambda t: sum_all(mul(t, Tensor(w)))


@pytest.mark.parametrize("trial", range(TRIALS))
def test_primitive_gradients(trial):
    gen = RngState(1000 + trial).generator()
    worst = 0.0

    x = gen.uniform(-1, 1, size=(4, 3))
    w = gen.uniform(-1, 1, size=(3, 5))
    wl = _weighted(gen, (4, 5))
    worst = max(worst, _check(lambda t: wl(matmul(t, Tensor(w))), x))
    wr = _weighted(gen, (4, 5))
    worst = max(worst, _check(lambda t: wr(matmul(Tensor(x), t)), w))

    b = gen.uniform(-1, 1, size=5)
    base = gen.uniform(-1, 1, size=(4, 5))
    wa = _weighted(gen, (4, 5))
    worst = max(worst, _check(lambda t: wa(add(t, Tensor(b))), base))
    worst = max(worst, _check(lambda t: wa(add(Tensor(base), t)), b))

    ws = _weighted(gen, (6, 3))
    worst = max(worst, _check(lambda t: ws(set_softmax(t)), gen.uniform(-1, 1, size=(6, 3))))
    worst = max(worst, _check(lambda t: ws(squashing(t)), gen.uniform(-1, 1, size=(6, 3))))

    relu_in = gen.uniform(-1, 1, size=(6, 3))
    relu_in = np.where(np.abs(relu_in) < 1e-3, 0.5, relu_in)  # keep clear of the kink
    worst = max(worst, _check(lambda t: ws(relu(t)), relu_in))

    gamma = gen.uniform(0.5, 1.5, size=3)
    beta = gen.uniform(-0.5, 0.5, size=3)
    for mode in ("train", "eval"):
        def bn_loss(t, _mode=mode):
            state = BatchNormState(3)
            return ws(batchnorm(t, Tensor(gamma), Tensor(beta), state, _mode))

        worst = max(worst, _check(bn_loss, gen.uniform(-1, 1, size=(6, 3))))

    a3 = gen.uniform(-1, 1, size=(2, 5, 3))
    b3 = gen.uniform(-1, 1, size=(2, 5, 4))
    wp = _weighted(gen, (2, 3, 4))
    worst = max(worst, _check(lambda t: wp(pair_aggregate(t, Tensor(b3))), a3))
    wp2 = _weighted(gen, (2, 3, 4))
    worst = max(worst, _check(lambda t: wp2(pair_aggregate(Tensor(a3), t)), b3))

    f1 = gen.uniform(-1, 1, size=(5, 2))
    f2 = gen.uniform(-1, 1, size=(5, 3))
    f3 = gen.uniform(-1, 1, size=(5, 2))
    wsp = _weighted(gen, (2, 3, 2))
    worst = max(
        worst,
        _check(lambda t: wsp(sum_product([t, Tensor(f2), Tensor(f3)])), f1),
    )
    worst = max(
        worst,
        _check(lambda t: wsp(sum_product([Tensor(f1), Tensor(f2), t])), f3),
    )

    wt = _weighted(gen, (6, 3))
    worst = max(worst, _check(lambda t: wt(tile_rows(t, 3)), gen.uniform(-1, 1, size=(2, 3))))
    wo = _weighted(gen, (2, 3))
    worst = max(worst, _check(lambda t: wo(sum_over_set(t)), gen.uniform(-1, 1, size=(2, 4, 3))))
    wtr = _weighted(gen, (3, 4))
    worst = max(worst, _check(lambda t: wtr(transpose(t)), gen.uniform(-1, 1, size=(4, 3))))
    wre = _weighted(gen, (12,))
    worst = max(worst, _check(lambda t: wre(reshape(t, (12,))), gen.uniform(-1, 1, size=(3, 4))))

    labels = gen.integers(0, 4, size=5)
    worst = max(
        worst,
        _check(lambda t: softmax_cross_entropy(t, labels), gen.uniform(-1, 1, size=(5, 4))),
    )

    assert worst < TOL, f"worst primitive gradient error {worst:.3e}"


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_gradients_with_near_constant_column(mode):
    # a column with std ~1e-3 makes inv_std ~300 and the normalization
    # nearly singular, where cancellation in the gradient shows first
    gen = RngState(77).generator()
    x0 = gen.uniform(-1, 1, size=(64, 5))
    x0[:, 2] = 0.4 + 1e-3 * gen.standard_normal(64)
    gamma = gen.uniform(0.5, 1.5, size=5)
    beta = gen.uniform(-0.5, 0.5, size=5)
    state = BatchNormState(5)
    state.mean = x0.mean(axis=0)
    state.var = x0.var(axis=0)
    w = _weighted(gen, (64, 5))

    def bn_loss(x, g, b):
        return w(batchnorm(x, g, b, state.copy(), mode))

    assert _check(lambda t: bn_loss(t, Tensor(gamma), Tensor(beta)), x0) < TOL
    assert _check(lambda t: bn_loss(Tensor(x0), t, Tensor(beta)), gamma) < TOL
    assert _check(lambda t: bn_loss(Tensor(x0), Tensor(gamma), t), beta) < TOL
