import numpy as np
import pytest

from pinset.rng import RngState
from pinset.tensor import (
    BN_EPS,
    BatchNormState,
    DegenerateBatchError,
    ShapeError,
    Tensor,
    add,
    backward,
    batchnorm,
    dropout,
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
    transpose,
)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_associativity(self):
        gen = RngState(11).generator()
        for _ in range(20):
            a, b, c = (gen.uniform(-1, 1, size=(4, 4)) for _ in range(3))
            left = (a @ b) @ c
            right = a @ (b @ c)
            assert np.max(np.abs(left - right)) < 1e-10


class TestSetSoftmax:
    def test_uniform_on_zeros(self):
        out = set_softmax(Tensor(np.zeros((4, 2))))
        np.testing.assert_allclose(out.data, 0.25)

    def test_closed_form_column(self):
        x = np.array([[np.log(1.0)], [np.log(3.0)]])
        out = set_softmax(Tensor(x))
        np.testing.assert_allclose(out.data, [[0.25], [0.75]], atol=1e-15)

    def test_columns_sum_to_one_entries_in_open_interval(self):
        gen = RngState(3).generator()
        x = gen.uniform(-5, 5, size=(13, 7))
        out = set_softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(out > 0) and np.all(out < 1)

    def test_permutation_equivariance(self):
        gen = RngState(4).generator()
        for _ in range(20):
            x = gen.uniform(-2, 2, size=(10, 5))
            perm = gen.permutation(10)
            direct = set_softmax(Tensor(x[perm])).data
            permuted = set_softmax(Tensor(x)).data[perm]
            assert np.max(np.abs(direct - permuted)) < 1e-12

    def test_batched_normalizes_within_each_set(self):
        gen = RngState(5).generator()
        x = gen.uniform(-1, 1, size=(3, 6, 2))
        out = set_softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        single = set_softmax(Tensor(x[1])).data
        np.testing.assert_allclose(out[1], single, atol=1e-15)


class TestBatchnorm:
    def _layer(self, width):
        gamma = Tensor(np.ones(width), requires_grad=True)
        beta = Tensor(np.zeros(width), requires_grad=True)
        return gamma, beta, BatchNormState(width)

    def test_eval_with_unit_stats_is_near_identity(self):
        gamma, beta, state = self._layer(3)
        x = RngState(6).generator().uniform(-1, 1, size=(5, 3))
        out = batchnorm(Tensor(x), gamma, beta, state, "eval").data
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + BN_EPS), atol=1e-15)
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_train_two_point_column(self):
        gamma, beta, state = self._layer(1)
        out = batchnorm(Tensor([[1.0], [3.0]]), gamma, beta, state, "train").data
        expected = (np.array([[1.0], [3.0]]) - 2.0) / np.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_train_updates_running_stats(self):
        gamma, beta, state = self._layer(1)
        batchnorm(Tensor([[1.0], [3.0]]), gamma, beta, state, "train")
        np.testing.assert_allclose(state.mean, [0.2])  # 0.9*0 + 0.1*2
        np.testing.assert_allclose(state.var, [1.0])  # 0.9*1 + 0.1*1

    def test_single_row_train_rejected(self):
        gamma, beta, state = self._layer(2)
        with pytest.raises(DegenerateBatchError):
            batchnorm(Tensor(np.ones((1, 2))), gamma, beta, state, "train")

    def test_eval_permutation_equivariance(self):
        gamma, beta, state = self._layer(4)
        gen = RngState(7).generator()
        state.mean = gen.uniform(-1, 1, size=4)
        state.var = gen.uniform(0.5, 2, size=4)
        x = gen.uniform(-1, 1, size=(9, 4))
        perm = gen.permutation(9)
        a = batchnorm(Tensor(x[perm]), gamma, beta, state, "eval").data
        b = batchnorm(Tensor(x), gamma, beta, state, "eval").data[perm]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_never_writes_inputs_gradient_or_running_state(self, mode):
        gen = RngState(8).generator()
        x = Tensor(_read_only(gen.uniform(-1, 1, size=(6, 3))), requires_grad=True)
        gamma = Tensor(_read_only(gen.uniform(0.5, 1.5, size=3)), requires_grad=True)
        beta = Tensor(_read_only(gen.uniform(-0.5, 0.5, size=3)), requires_grad=True)
        state = BatchNormState(3)
        state.mean = _read_only(gen.uniform(-1, 1, size=3))
        state.var = _read_only(gen.uniform(0.5, 2, size=3))
        old_mean, old_var = state.mean, state.var
        saved = [a.copy() for a in (x.data, gamma.data, beta.data, old_mean, old_var)]
        g = _read_only(gen.uniform(-1, 1, size=(6, 3)))

        out = batchnorm(x, gamma, beta, state, mode)
        out._backward(g)

        rebound = mode == "train"
        assert (state.mean is not old_mean) == rebound
        assert (state.var is not old_var) == rebound
        for before, after in zip(saved, (x.data, gamma.data, beta.data, old_mean, old_var)):
            np.testing.assert_array_equal(before, after)


class TestPairAggregate:
    @pytest.mark.parametrize("batch,n,s,t", [(1, 5, 3, 4), (3, 1, 2, 5), (2, 7, 4, 3)])
    def test_matches_einsum_definition(self, batch, n, s, t):
        gen = RngState(16).generator()
        a = Tensor(gen.uniform(-1, 1, size=(batch, n, s)), requires_grad=True)
        b = Tensor(gen.uniform(-1, 1, size=(batch, n, t)), requires_grad=True)
        g = gen.uniform(-1, 1, size=(batch, s, t))
        out = pair_aggregate(a, b)
        np.testing.assert_allclose(
            out.data, np.einsum("bns,bnt->bst", a.data, b.data), rtol=0, atol=1e-12
        )
        grads = backward(sum_all(mul(out, Tensor(g))))
        np.testing.assert_allclose(
            grads[a], np.einsum("bst,bnt->bns", g, b.data), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            grads[b], np.einsum("bst,bns->bnt", g, a.data), rtol=0, atol=1e-12
        )

    def test_read_only_inputs_and_gradient(self):
        gen = RngState(17).generator()
        a, b, g = (
            _read_only(gen.uniform(-1, 1, size=shape)) for shape in ((2, 5, 3), (2, 5, 4), (2, 3, 4))
        )
        out = pair_aggregate(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        (_, ga), (_, gb) = out._backward(g)
        assert ga.shape == a.shape and gb.shape == b.shape


class TestSquashing:
    def test_zero_row_stays_zero(self):
        out = squashing(Tensor(np.zeros((2, 3)))).data
        np.testing.assert_array_equal(out, 0.0)

    def test_unit_norm_row_halves(self):
        v = np.array([[0.6, 0.8]])
        out = squashing(Tensor(v)).data
        np.testing.assert_allclose(out, 0.5 * v, atol=1e-15)

    def test_output_norms_below_one(self):
        gen = RngState(8).generator()
        x = gen.uniform(-10, 10, size=(50, 4))
        norms = np.linalg.norm(squashing(Tensor(x)).data, axis=1)
        assert np.all(norms < 1.0)

    def test_matches_closed_form(self):
        gen = RngState(9).generator()
        x = gen.uniform(-2, 2, size=(6, 3))
        r = np.linalg.norm(x, axis=1, keepdims=True)
        expected = x * r / (1.0 + r * r)
        np.testing.assert_allclose(squashing(Tensor(x)).data, expected, atol=1e-15)


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        grads = backward(sum_all(w))
        np.testing.assert_array_equal(grads[w], np.ones((2, 2)))

    def test_unused_parameter_gets_zero_gradient(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        grads = backward(sum_all(w), params=[w, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(mul(w, 2.0))

    def test_matmul_square_loss_matches_fd(self):
        gen = RngState(10).generator()
        x = gen.uniform(-1, 1, size=(3, 4))
        w = Tensor(gen.uniform(-1, 1, size=(4, 2)), requires_grad=True)

        def loss_np(warr):
            y = x @ warr
            return float((y * y).sum())

        y = matmul(Tensor(x), w)
        grads = backward(sum_all(mul(y, y)))
        fd = finite_difference_gradient(loss_np, w.data.copy())
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[w])), 1.0)
        assert np.max(np.abs(fd - grads[w]) / denom) < 1e-6

    def test_gradient_accumulates_over_reuse(self):
        w = Tensor(np.array([[2.0]]), requires_grad=True)
        y = mul(w, w)  # w^2, d/dw = 2w
        grads = backward(sum_all(y))
        np.testing.assert_allclose(grads[w], [[4.0]])

    def test_dropout_eval_is_identity_train_scales(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        assert dropout(x, 0.5, None, "eval") is x
        out = dropout(x, 0.5, RngState(1).generator(), "train")
        values = np.unique(out.data)
        assert set(values).issubset({0.0, 2.0})

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = softmax_cross_entropy(logits, np.array([1, 3]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), atol=1e-12)

    def test_add_bias_broadcast_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        grads = backward(sum_all(add(x, b)))
        np.testing.assert_array_equal(grads[b], [3.0, 3.0])

    def test_transpose_and_reshape_roundtrip(self):
        gen = RngState(12).generator()
        x = gen.uniform(-1, 1, size=(3, 5))
        t = Tensor(x, requires_grad=True)
        out = reshape(transpose(t), (15,))
        grads = backward(sum_all(out))
        np.testing.assert_array_equal(grads[t], np.ones((3, 5)))


class TestFiniteDifference:
    def test_sum_of_squares(self):
        fd = finite_difference_gradient(lambda v: float((v * v).sum()), np.array([1.0, 2.0]))
        np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-9)

    def test_constant_function(self):
        fd = finite_difference_gradient(lambda v: 3.5, np.ones((2, 2)))
        np.testing.assert_array_equal(fd, np.zeros((2, 2)))

    def test_softmax_loss_matches_analytic(self):
        gen = RngState(13).generator()
        x = gen.uniform(-1, 1, size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])

        def loss_np(arr):
            z = arr - arr.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-logp[np.arange(5), labels].mean())

        analytic = np.exp(x - x.max(axis=1, keepdims=True))
        analytic /= analytic.sum(axis=1, keepdims=True)
        analytic[np.arange(5), labels] -= 1.0
        analytic /= 5.0
        fd = finite_difference_gradient(loss_np, x.copy())
        assert np.max(np.abs(fd - analytic)) < 1e-6


def test_relu_permutation_equivariance_exact():
    gen = RngState(15).generator()
    x = gen.uniform(-1, 1, size=(12, 5))
    perm = gen.permutation(12)
    np.testing.assert_array_equal(
        relu(Tensor(x[perm])).data, relu(Tensor(x)).data[perm]
    )


def test_finite_values_preserved_by_public_ops():
    gen = RngState(14).generator()
    x = gen.uniform(-50.0, 50.0, size=(8, 4))
    outs = [
        set_softmax(Tensor(x)).data,
        squashing(Tensor(x)).data,
        relu(Tensor(x)).data,
    ]
    for out in outs:
        assert np.all(np.isfinite(out))
