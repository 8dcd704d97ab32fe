import types

import numpy as np
import pytest

from pinset import tensor as tensor_mod
from pinset.rng import RngState
from pinset.tensor import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    DegenerateBatchError,
    ShapeError,
    Tensor,
    add,
    affine,
    backward,
    batchnorm,
    dropout,
    finite_difference_gradient,
    matmul,
    mul,
    no_grad,
    pair_aggregate,
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


class TestAffine:
    def _operands(self, seed):
        gen = RngState(seed).generator()
        x = Tensor(gen.uniform(-1, 1, size=(7, 4)), requires_grad=True)
        w = Tensor(gen.uniform(-1, 1, size=(4, 5)), requires_grad=True)
        b = Tensor(gen.uniform(-1, 1, size=5), requires_grad=True)
        return x, w, b, gen.uniform(-1, 1, size=(7, 5))

    def test_bitwise_equals_matmul_then_add(self):
        x, w, b, g = self._operands(20)
        fused = affine(x, w, b)
        unfused = add(matmul(x, w), b)
        np.testing.assert_array_equal(fused.data, unfused.data)
        got = backward(sum_all(mul(fused, Tensor(g))))
        want = backward(sum_all(mul(unfused, Tensor(g))))
        for t in (x, w, b):
            np.testing.assert_array_equal(got[t], want[t])

    def test_without_bias_equals_matmul(self):
        x, w, _, g = self._operands(21)
        fused = affine(x, w, None)
        assert fused._parents == (x, w)
        np.testing.assert_array_equal(fused.data, matmul(x, w).data)
        got = backward(sum_all(mul(fused, Tensor(g))))
        want = backward(sum_all(mul(matmul(x, w), Tensor(g))))
        for t in (x, w):
            np.testing.assert_array_equal(got[t], want[t])

    @staticmethod
    def _reference(x, w, b, g, relu):
        """``x @ w + b`` and its relu in plain numpy, with the gradients of
        ``sum(out * g)`` for x, w and b (summed over rows for a bias row)."""
        pre = x @ w + b
        gm = g * (pre > 0) if relu else g
        gb = gm if b.ndim == 2 else gm.sum(axis=0)
        return np.maximum(pre, 0.0) if relu else pre, (gm @ w.T, x.T @ gm, gb)

    def test_relu_equals_relu_of_matmul_then_add(self):
        x, w, b, g = self._operands(22)
        fused = affine(x, w, b, relu=True)
        want, want_grads = self._reference(x.data, w.data, b.data, g, relu=True)
        assert np.any(fused.data == 0) and np.any(fused.data > 0)
        np.testing.assert_array_equal(fused.data, want)
        got = backward(sum_all(mul(fused, Tensor(g))))
        for t, want_grad in zip((x, w, b), want_grads):
            np.testing.assert_array_equal(got[t], want_grad)

    @pytest.mark.parametrize("use_relu", [False, True])
    def test_row_aligned_bias_equals_matmul_then_add(self, use_relu):
        x, w, _, g = self._operands(24)
        b = Tensor(RngState(25).generator().uniform(-1, 1, size=(7, 5)), requires_grad=True)
        fused = affine(x, w, b, relu=use_relu)
        want, want_grads = self._reference(x.data, w.data, b.data, g, use_relu)
        if use_relu:
            assert np.any(fused.data == 0) and np.any(fused.data > 0)
        np.testing.assert_array_equal(fused.data, want)
        got = backward(sum_all(mul(fused, Tensor(g))))
        for t, want_grad in zip((x, w, b), want_grads):
            np.testing.assert_array_equal(got[t], want_grad)
        with pytest.raises(ShapeError, match=r"\(6, 5\)"):
            affine(x, w, Tensor(np.zeros((6, 5))))

    def test_relu_propagates_nan(self):
        out = affine(Tensor([[np.nan, 1.0]]), Tensor(np.ones((2, 1))), None, relu=True)
        assert np.isnan(out.data[0, 0])

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), None)
        with pytest.raises(ShapeError, match=r"\(4,\)"):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("use_relu", [False, True])
    def test_never_writes_inputs_or_gradient(self, use_relu):
        gen = RngState(23).generator()
        arrays = [_read_only(gen.uniform(-1, 1, size=s)) for s in ((6, 3), (3, 4), (4,), (6, 4))]
        x, w, b = (Tensor(a, requires_grad=True) for a in arrays[:3])
        out = affine(x, w, b, relu=use_relu)
        grads = out._backward(arrays[3])
        assert [t.shape for _, t in grads] == [(6, 3), (3, 4), (4,)]


class TestMulBroadcast:
    def test_scales_each_column(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        v = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        out = mul(a, v)
        np.testing.assert_array_equal(out.data, np.arange(6.0).reshape(3, 2) * [2.0, -1.0])
        grads = backward(sum_all(out))
        np.testing.assert_array_equal(grads[a], np.tile([2.0, -1.0], (3, 1)))
        np.testing.assert_array_equal(grads[v], [6.0, 9.0])

    def test_leading_dim_vector_rejected(self):
        with pytest.raises(ShapeError, match=r"\(3, 2\).*\(3,\)"):
            mul(Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


class TestSetSoftmax:
    def test_uniform_on_zeros(self):
        out = set_softmax(Tensor(np.zeros((4, 2))))
        np.testing.assert_allclose(out.data, 0.25)

    def test_closed_form_column(self):
        x = np.array([[np.log(1.0)], [np.log(3.0)]])
        out = set_softmax(Tensor(x))
        np.testing.assert_allclose(out.data, [[0.25], [0.75]], rtol=0, atol=1e-15)

    def test_columns_sum_to_one_entries_in_open_interval(self):
        gen = RngState(3).generator()
        x = gen.uniform(-5, 5, size=(13, 7))
        out = set_softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert np.all(out > 0) and np.all(out < 1)

    def test_permutation_equivariance(self):
        gen = RngState(4).generator()
        for _ in range(20):
            x = gen.uniform(-2, 2, size=(10, 5))
            perm = gen.permutation(10)
            direct = set_softmax(Tensor(x[perm])).data
            permuted = set_softmax(Tensor(x)).data[perm]
            assert np.max(np.abs(direct - permuted)) < 1e-12

    def test_matches_two_step_formula_bitwise(self):
        gen = RngState(24).generator()
        x = gen.uniform(-5, 5, size=(2, 9, 4))
        e = np.exp(x - x.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(set_softmax(Tensor(x)).data, e / e.sum(axis=1, keepdims=True))

    def test_batched_normalizes_within_each_set(self):
        gen = RngState(5).generator()
        x = gen.uniform(-1, 1, size=(3, 6, 2))
        out = set_softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        single = set_softmax(Tensor(x[1])).data
        np.testing.assert_allclose(out[1], single, rtol=0, atol=1e-15)


def _bn_layer_reference(x, w, b, gamma, beta, relu, g):
    """relu(BN(x @ w + b)) in plain numpy, by batch statistics: the output,
    the batch mean and biased variance, and the gradients of
    ``sum(out * g)``, each column's through its explicit Jacobian
    ``gamma * inv_std * (I - 1/m - xhat xhat^T / m)``."""
    z = x @ w + (0.0 if b is None else b)
    m = z.shape[0]
    mean, var = z.mean(axis=0), z.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (z - mean) * inv_std
    pre = xhat * gamma + beta
    gp = g * (pre > 0) if relu else g
    gz = np.empty_like(z)
    for j in range(z.shape[1]):
        jac = np.eye(m) - 1.0 / m - np.outer(xhat[:, j], xhat[:, j]) / m
        gz[:, j] = gamma[j] * inv_std[j] * (jac @ gp[:, j])
    grads = {"x": gz @ w.T, "w": x.T @ gz, "gamma": (gp * xhat).sum(axis=0), "beta": gp.sum(axis=0)}
    if b is not None:
        grads["b"] = gz if b.ndim == 2 else gz.sum(axis=0)
    return np.maximum(pre, 0.0) if relu else pre, mean, var, grads


class TestBatchnorm:
    """Hand-computed cases of the fused layer with ``w`` the identity."""

    def _layer(self, width):
        gamma = Tensor(np.ones(width), requires_grad=True)
        beta = Tensor(np.zeros(width), requires_grad=True)
        return gamma, beta, BatchNormState(width), Tensor(np.eye(width))

    def test_train_two_point_column(self):
        gamma, beta, state, w = self._layer(1)
        out = batchnorm(Tensor([[1.0], [3.0]]), gamma, beta, state, w=w).data
        expected = (np.array([[1.0], [3.0]]) - 2.0) / np.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_train_updates_running_stats(self):
        gamma, beta, state, w = self._layer(1)
        batchnorm(Tensor([[1.0], [3.0]]), gamma, beta, state, w=w)
        np.testing.assert_allclose(state.mean, [0.2])  # 0.9*0 + 0.1*2
        np.testing.assert_allclose(state.var, [1.0])  # 0.9*1 + 0.1*1

    def test_single_row_train_rejected(self):
        gamma, beta, state, w = self._layer(2)
        with pytest.raises(DegenerateBatchError):
            batchnorm(Tensor(np.ones((1, 2))), gamma, beta, state, w=w)

    def test_permutation_equivariance(self):
        gamma, beta, _, w = self._layer(4)
        gen = RngState(7).generator()
        x = gen.uniform(-1, 1, size=(9, 4))
        perm = gen.permutation(9)
        a = batchnorm(Tensor(x[perm]), gamma, beta, BatchNormState(4), w=w, relu=True).data
        b = batchnorm(Tensor(x), gamma, beta, BatchNormState(4), w=w, relu=True).data[perm]
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def _bn_layer_reference(x, w, b, gamma, beta, relu, g):
    """relu(BN(x @ w + b)) in plain numpy, by batch statistics: the output,
    the batch mean and biased variance, and the gradients of
    ``sum(out * g)``, each column's through its explicit Jacobian
    ``gamma * inv_std * (I - 1/m - xhat xhat^T / m)``."""
    z = x @ w + (0.0 if b is None else b)
    m = z.shape[0]
    mean, var = z.mean(axis=0), z.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (z - mean) * inv_std
    pre = xhat * gamma + beta
    gp = g * (pre > 0) if relu else g
    gz = np.empty_like(z)
    for j in range(z.shape[1]):
        jac = np.eye(m) - 1.0 / m - np.outer(xhat[:, j], xhat[:, j]) / m
        gz[:, j] = gamma[j] * inv_std[j] * (jac @ gp[:, j])
    grads = {"x": gz @ w.T, "w": x.T @ gz, "gamma": (gp * xhat).sum(axis=0), "beta": gp.sum(axis=0)}
    if b is not None:
        grads["b"] = gz if b.ndim == 2 else gz.sum(axis=0)
    return np.maximum(pre, 0.0) if relu else pre, mean, var, grads


class TestBatchnormFused:
    """``batchnorm(x, ..., w=w, b=b, relu=...)`` against the unfused
    linear -> batchnorm -> relu chain in plain numpy."""

    def _operands(self, seed, use_bias=True):
        gen = RngState(seed).generator()
        x = Tensor(gen.uniform(-1, 1, size=(9, 4)), requires_grad=True)
        w = Tensor(gen.uniform(-1, 1, size=(4, 5)), requires_grad=True)
        b = Tensor(gen.uniform(-1, 1, size=5), requires_grad=True) if use_bias else None
        gamma = Tensor(gen.uniform(0.5, 1.5, size=5), requires_grad=True)
        beta = Tensor(gen.uniform(-0.5, 0.5, size=5), requires_grad=True)
        return x, w, b, gamma, beta, gen.uniform(-1, 1, size=(9, 5))

    def _check_forward(self, x, w, b, gamma, beta, g, use_relu):
        """Assert the output and running statistics match the reference;
        return the op's gradients, the reference's and their tensors."""
        state = BatchNormState(5)
        fused = batchnorm(x, gamma, beta, state, w=w, b=b, relu=use_relu)
        want, mean, var, want_grads = _bn_layer_reference(
            x.data, w.data, None if b is None else b.data, gamma.data, beta.data, use_relu, g
        )
        if use_relu:
            assert np.any(fused.data == 0) and np.any(fused.data > 0)
        np.testing.assert_allclose(fused.data, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(state.mean, BN_MOMENTUM * mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(state.var, (1.0 - BN_MOMENTUM) + BN_MOMENTUM * var, rtol=1e-12, atol=0)
        got = backward(sum_all(mul(fused, Tensor(g))))
        named = {"x": x, "w": w, "gamma": gamma, "beta": beta}
        if b is not None:
            named["b"] = b
        return got, want_grads, named

    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("use_relu", [True, False])
    def test_matches_unfused_reference(self, use_relu, use_bias):
        x, w, b, gamma, beta, g = self._operands(40, use_bias)
        got, want, named = self._check_forward(x, w, b, gamma, beta, g, use_relu)
        for name in ("x", "w", "gamma", "beta"):
            np.testing.assert_allclose(got[named[name]], want[name], rtol=1e-12, atol=0, err_msg=name)
        if use_bias:
            assert np.array_equal(got[b], np.zeros(5))
            assert np.max(np.abs(want["b"])) < 1e-12  # the reference's is zero up to rounding

    def test_row_aligned_bias_matches_unfused_reference(self):
        # a (rows, d) bias differs between rows, so it is not cancelled
        x, w, _, gamma, beta, g = self._operands(47)
        b = Tensor(RngState(48).generator().uniform(-1, 1, size=(9, 5)), requires_grad=True)
        got, want, named = self._check_forward(x, w, b, gamma, beta, g, True)
        for name, t in named.items():
            np.testing.assert_allclose(got[t], want[name], rtol=1e-12, atol=0, err_msg=name)

    def test_bias_moves_only_the_running_mean(self):
        x, w, b, gamma, beta, _ = self._operands(41)
        with_bias, without = BatchNormState(5), BatchNormState(5)
        a = batchnorm(x, gamma, beta, with_bias, w=w, b=b).data
        c = batchnorm(x, gamma, beta, without, w=w).data
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(with_bias.var, without.var)
        np.testing.assert_allclose(with_bias.mean - without.mean, BN_MOMENTUM * b.data, rtol=1e-12, atol=0)

    def test_propagates_nan(self):
        x, w, b, gamma, beta, _ = self._operands(42)
        x.data[0, 0] = np.nan
        out = batchnorm(x, gamma, beta, BatchNormState(5), w=w, b=b, relu=True)
        assert np.isnan(out.data).all()  # the NaN reaches every row through the batch mean

    @pytest.mark.parametrize("use_relu", [True, False])
    def test_never_writes_inputs_gradient_or_running_state(self, use_relu):
        gen = RngState(43).generator()
        shapes = ((6, 3), (3, 4), (4,), (4,), (4,), (6, 4), (4,), (4,))
        x, w, b, gamma, beta, g, mean, var = (_read_only(gen.uniform(0.5, 1.5, size=s)) for s in shapes)
        saved = [a.copy() for a in (x, w, b, gamma, beta, g, mean, var)]
        state = BatchNormState(4)
        state.mean, state.var = mean, var
        params = [Tensor(a, requires_grad=True) for a in (x, w, b, gamma, beta)]
        out = batchnorm(params[0], params[3], params[4], state, w=params[1], b=params[2], relu=use_relu)
        grads = out._backward(g)
        if use_relu:
            out._backward.preactivation()
        assert [t.shape for _, t in grads] == [(6, 3), (3, 4), (4,), (4,), (4,)]
        assert state.mean is not mean and state.var is not var  # rebound, not updated in place
        for before, after in zip(saved, (x, w, b, gamma, beta, g, mean, var)):
            np.testing.assert_array_equal(before, after)

    def test_single_row_rejected(self):
        x, w, b, gamma, beta, _ = self._operands(44)
        with pytest.raises(DegenerateBatchError):
            batchnorm(Tensor(x.data[:1]), gamma, beta, BatchNormState(5), w=w, b=b, relu=True)

    def test_shape_mismatches_rejected(self):
        x, w, b, gamma, beta, _ = self._operands(46)
        with pytest.raises(ShapeError, match=r"\(9, 4\).*\(5, 5\)"):
            batchnorm(x, gamma, beta, BatchNormState(5), w=Tensor(np.ones((5, 5))))
        with pytest.raises(ShapeError, match=r"\(4,\)"):
            batchnorm(x, gamma, beta, BatchNormState(5), w=w, b=Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match=r"\(8, 5\)"):
            batchnorm(x, gamma, beta, BatchNormState(5), w=w, b=Tensor(np.ones((8, 5))))


class TestNoGrad:
    def _operands(self):
        gen = RngState(50).generator()
        x = Tensor(gen.uniform(-1, 1, size=(4, 3)))
        w = Tensor(gen.uniform(-1, 1, size=(3, 2)), requires_grad=True)
        return x, w

    def _records(self) -> bool:
        x, w = self._operands()
        out = matmul(x, w)
        return out.requires_grad and out._parents == (x, w) and out._backward is not None

    def test_records_no_parents(self):
        x, w = self._operands()
        recorded = affine(x, w, None, relu=True)
        with no_grad():
            out = affine(x, w, None, relu=True)
            loss = sum_all(out)
        np.testing.assert_array_equal(out.data, recorded.data)
        for node in (out, loss):
            assert node._parents == () and node._backward is None and not node.requires_grad
        assert self._records()

    def test_recording_resumes_after_an_exception(self):
        with pytest.raises(ShapeError):
            with no_grad():
                _, w = self._operands()
                matmul(w, w)
        assert self._records()

    def test_nests(self):
        with no_grad():
            with no_grad():
                assert not self._records()
            assert not self._records()
        assert self._records()

    def test_as_decorator(self):
        @no_grad()
        def forward():
            return self._records()

        assert forward() is False and forward() is False
        assert self._records()


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
        np.testing.assert_allclose(out, 0.5 * v, rtol=0, atol=1e-15)

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
        np.testing.assert_allclose(squashing(Tensor(x)).data, expected, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("bad", [4, -1])
    def test_cross_entropy_rejects_out_of_range_labels(self, bad):
        with pytest.raises(ValueError, match=rf"^label {bad} is out of range for 4 classes$"):
            softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, bad]))

    def test_cross_entropy_rejects_non_integer_labels(self):
        with pytest.raises(ValueError, match=r"^labels must be integer class indices for 4 classes, got dtype float64$"):
            softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([0.0, 1.5]))

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = softmax_cross_entropy(logits, np.array([1, 3]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=0, atol=1e-12)

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
        np.testing.assert_allclose(fd, [2.0, 4.0], rtol=0, atol=1e-9)

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


def _relu(x: np.ndarray) -> Tensor:
    """The relu fused into ``affine``, applied to ``x`` itself: with the
    identity as weights every product adds only exact zeros."""
    return affine(Tensor(x), Tensor(np.eye(x.shape[1])), None, relu=True)


def test_relu_permutation_equivariance_exact():
    gen = RngState(15).generator()
    x = gen.uniform(-1, 1, size=(12, 5))
    perm = gen.permutation(12)
    np.testing.assert_array_equal(_relu(x[perm]).data, _relu(x).data[perm])


def test_relu_backward_masks_non_positive_inputs():
    x = Tensor(_read_only(np.array([[-1.0, 0.0, 2.0]])), requires_grad=True)
    out = affine(x, Tensor(np.eye(3)), None, relu=True)
    (_, gx), _ = out._backward(_read_only(np.array([[5.0, 6.0, 7.0]])))
    np.testing.assert_array_equal(gx, [[0.0, 0.0, 7.0]])


def test_finite_values_preserved_by_public_ops():
    gen = RngState(14).generator()
    x = gen.uniform(-50.0, 50.0, size=(8, 4))
    outs = [
        set_softmax(Tensor(x)).data,
        squashing(Tensor(x)).data,
        _relu(x).data,
    ]
    for out in outs:
        assert np.all(np.isfinite(out))


def _raiser(exc):
    def fail(*args):
        raise exc

    return fail


class TestKeepFreedMemory:
    """The import-time allocator setting: two exact mallopt calls on
    glibc, and nothing, silently, anywhere else."""

    @pytest.fixture
    def fake_glibc(self, monkeypatch):
        """Installs a fake glibc whose mallopt returns ``result`` and
        records its arguments in the list it returns."""

        def install(result=1):
            calls = []

            def mallopt(param, value):
                calls.append((param, value))
                return result

            monkeypatch.setattr(tensor_mod.os, "confstr", lambda name: "glibc 2.36")
            monkeypatch.setattr(tensor_mod.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
            return calls

        return install

    def test_glibc_gets_both_thresholds(self, fake_glibc):
        calls = fake_glibc()
        tensor_mod._keep_freed_memory()
        # M_TRIM_THRESHOLD, then M_MMAP_THRESHOLD, both 1 GiB
        assert calls == [(-1, 1 << 30), (-3, 1 << 30)]

    @pytest.mark.parametrize(
        "confstr",
        [lambda name: None, _raiser(ValueError("unrecognized configuration name")), _raiser(OSError(22, "EINVAL"))],
    )
    def test_no_glibc_version_leaves_malloc_alone(self, fake_glibc, monkeypatch, confstr):
        calls = fake_glibc()
        monkeypatch.setattr(tensor_mod.os, "confstr", confstr)
        tensor_mod._keep_freed_memory()
        assert calls == []

    def test_no_confstr_leaves_malloc_alone(self, fake_glibc, monkeypatch):
        calls = fake_glibc()
        monkeypatch.delattr(tensor_mod.os, "confstr")
        tensor_mod._keep_freed_memory()
        assert calls == []

    @pytest.mark.parametrize(
        "cdll", [lambda name: types.SimpleNamespace(), _raiser(OSError("cannot open shared object"))]
    )
    def test_libc_without_mallopt(self, fake_glibc, monkeypatch, cdll):
        calls = fake_glibc()
        monkeypatch.setattr(tensor_mod.ctypes, "CDLL", cdll)
        tensor_mod._keep_freed_memory()
        assert calls == []

    def test_refused_call_ends_the_setting(self, fake_glibc):
        calls = fake_glibc(result=0)
        tensor_mod._keep_freed_memory()
        assert calls == [(-1, 1 << 30)]
