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
    column_major,
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
    tile_rows,
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


def _is_column_major(a: np.ndarray) -> bool:
    # the rows of each (rows, width) matrix in the trailing axes contiguous
    return a.mT.flags.c_contiguous


def _preset_element_shapes() -> list[tuple[int, int]]:
    """(d_in, d) of every per-element product in the presets with at least
    16 output columns: each element layer's forward and its input
    gradient's."""
    from pinset.models import PRESETS, build_model

    shapes = set()
    for make in PRESETS.values():
        model = build_model(make(), RngState(0))
        aggregations = [b for b in (model.agg1, model.agg2) if b is not None]
        for mlp in [m for b in aggregations for m in (b.mlp1, b.mlp2)]:
            shapes |= {layer.weight.data.shape for layer in mlp.layers}
        shapes |= {block.w_x.data.shape for block in model.broadcast_layers}
    return sorted({s for a, b in shapes for s in ((a, b), (b, a)) if s[1] >= 16})


class TestProduct:
    ROWS = [*range(1, 41), *(196 * k for k in (1, 2, 3, 4, 5, 7, 8, 16, 21, 22)), 6272]

    @pytest.mark.parametrize("shape", _preset_element_shapes(), ids=str)
    def test_same_bits_as_numpy_and_column_major(self, shape):
        d_in, d = shape
        gen = RngState(100).child(*shape).generator()
        w = gen.uniform(-1, 1, size=shape)
        x = gen.uniform(-1, 1, size=(max(self.ROWS), d_in))
        for m in self.ROWS:
            want = x[:m] @ w
            for rows in (x[:m], np.asfortranarray(x[:m])):
                got = tensor_mod._product(rows, w)
                assert _is_column_major(got), (m, rows.flags.f_contiguous)
                assert np.array_equal(got, want), (m, rows.flags.f_contiguous)

    def test_the_presets_have_wide_element_shapes(self):
        # every preset's element widths reach the bit-for-bit rule above
        assert {(3, 64), (64, 128), (128, 32), (3, 256), (256, 256), (256, 64), (2, 16)} <= set(
            _preset_element_shapes()
        )


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
    """``set_softmax`` on stacked rows: each block of ``set_size``
    consecutive rows is one set."""

    def test_uniform_on_zeros(self):
        out = set_softmax(Tensor(np.zeros((8, 2))), 4)
        np.testing.assert_allclose(out.data, 0.25)

    def test_closed_form_column(self):
        x = np.log([[1.0], [3.0], [2.0], [2.0]])
        out = set_softmax(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[0.25], [0.75], [0.5], [0.5]], rtol=0, atol=1e-15)

    def test_columns_sum_to_one_entries_in_open_interval(self):
        gen = RngState(3).generator()
        x = gen.uniform(-5, 5, size=(3 * 13, 7))
        out = set_softmax(Tensor(x), 13).data
        np.testing.assert_allclose(out.reshape(3, 13, 7).sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(out > 0) and np.all(out < 1)

    def test_permutation_equivariance(self):
        gen = RngState(4).generator()
        for _ in range(20):
            x = gen.uniform(-2, 2, size=(2 * 10, 5))
            # a permutation within each of the two sets of 10 rows
            perm = np.concatenate([gen.permutation(10), 10 + gen.permutation(10)])
            direct = set_softmax(Tensor(x[perm]), 10).data
            permuted = set_softmax(Tensor(x), 10).data[perm]
            assert np.max(np.abs(direct - permuted)) < 1e-12

    def test_matches_two_step_formula_bitwise(self):
        gen = RngState(24).generator()
        x = gen.uniform(-5, 5, size=(2, 9, 4))
        e = np.exp(x - x.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(
            set_softmax(Tensor(x.reshape(18, 4)), 9).data, (e / e.sum(axis=1, keepdims=True)).reshape(18, 4)
        )

    def test_batched_normalizes_within_each_set(self):
        gen = RngState(5).generator()
        x = gen.uniform(-1, 1, size=(3 * 6, 2))
        out = set_softmax(Tensor(x), 6).data
        np.testing.assert_allclose(out.reshape(3, 6, 2).sum(axis=1), 1.0, rtol=0, atol=1e-12)
        single = set_softmax(Tensor(x[6:12]), 6).data
        np.testing.assert_allclose(out[6:12], single, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("width", [1, 6, 16, 32])
    @pytest.mark.parametrize("set_size", [1, 2, 3, 7, 31, 32, 33, 40, 41, 49, 196])
    def test_matches_one_pass_formula_bitwise_around_the_halving_rule(self, set_size, width, order):
        # set counts with sets * width just below and at the floor of the
        # halved maxima, and past one block of them; NaN, +-inf and -0.0
        # entries, a set column of signed zeros and one of -inf alone
        gen = RngState(set_size * 100 + width).generator()
        floor, block = tensor_mod._HALVED_MIN_COLUMNS, tensor_mod._HALVED_BLOCK
        for sets in sorted({max(1, (floor - 1) // width), -(-floor // width), block // width + 3}):
            x = gen.uniform(-30, 30, size=(sets, set_size, width))
            for value in (np.nan, np.inf, -np.inf, -0.0):
                x[gen.integers(sets), gen.integers(set_size), gen.integers(width)] = value
            x[-1, :, 0] = np.where(gen.random(set_size) < 0.5, -0.0, 0.0)
            x[0, :, -1] = -np.inf
            rows = x.reshape(sets * set_size, width)
            rows = np.asfortranarray(rows) if order == "F" else np.ascontiguousarray(rows)
            with np.errstate(invalid="ignore"):
                got = set_softmax(Tensor(rows), set_size).data
                x = rows.reshape(sets, set_size, width)
                e = np.exp(x - x.max(axis=1, keepdims=True))
                want = (e / e.sum(axis=1, keepdims=True)).reshape(rows.shape)
            assert np.array_equal(got, want, equal_nan=True), sets

    @pytest.mark.parametrize(
        "set_size, sets, width, order, halved",
        [
            (32, 16, 16, "F", True),  # sets * width at the floor
            (40, 200, 16, "F", True),
            (2, 128, 2, "F", True),
            (32, 15, 17, "F", False),  # 255 pairs, below the floor
            (41, 200, 16, "F", False),  # longer sets
            (32, 16, 16, "C", False),  # row-major rows
        ],
    )
    def test_halves_only_short_column_major_sets_with_enough_pairs(
        self, monkeypatch, set_size, sets, width, order, halved
    ):
        calls = []
        halve = tensor_mod._halved_set_maxima

        def recording(a, n):
            calls.append(a.shape)
            return halve(a, n)

        monkeypatch.setattr(tensor_mod, "_halved_set_maxima", recording)
        rows = np.zeros((sets * set_size, width), order=order)
        set_softmax(Tensor(rows), set_size)
        assert calls == ([rows.shape] if halved else [])

    @pytest.mark.parametrize("rows, set_size", [(7, 3), (6, 4), (6, 0)])
    def test_rows_that_do_not_divide_into_sets_rejected(self, rows, set_size):
        with pytest.raises(ShapeError, match=f"^{rows} rows do not divide into sets of {set_size}$"):
            set_softmax(Tensor(np.zeros((rows, 2))), set_size)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 2)])
    def test_rank_other_than_two_rejected(self, shape):
        with pytest.raises(ShapeError, match="needs rank-2 rows"):
            set_softmax(Tensor(np.zeros(shape)), 3)


class TestBatchnorm:
    """Hand-computed cases of the fused layer with ``w`` the identity."""

    def _layer(self, width):
        gamma = Tensor(np.ones(width), requires_grad=True)
        beta = Tensor(np.zeros(width), requires_grad=True)
        return gamma, beta, BatchNormState(width), Tensor(np.eye(width))

    def test_train_two_point_column(self):
        gamma, beta, state, w = self._layer(1)
        out = batchnorm(Tensor([[1.0], [3.0]]), gamma, beta, state, w=w).data
        expected = [[0.0], [1.0 / np.sqrt(1.0 + BN_EPS)]]  # the relu zeroes the row below the mean
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
        a = batchnorm(Tensor(x[perm]), gamma, beta, BatchNormState(4), w=w).data
        b = batchnorm(Tensor(x), gamma, beta, BatchNormState(4), w=w).data[perm]
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def _bn_layer_reference(x, w, b, gamma, beta, g):
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
    gp = g * (pre > 0)
    gz = np.empty_like(z)
    for j in range(z.shape[1]):
        jac = np.eye(m) - 1.0 / m - np.outer(xhat[:, j], xhat[:, j]) / m
        gz[:, j] = gamma[j] * inv_std[j] * (jac @ gp[:, j])
    grads = {"x": gz @ w.T, "w": x.T @ gz, "gamma": (gp * xhat).sum(axis=0), "beta": gp.sum(axis=0)}
    if b is not None:
        grads["b"] = gz if b.ndim == 2 else gz.sum(axis=0)
    return np.maximum(pre, 0.0), mean, var, grads


class TestBatchnormFused:
    """``batchnorm(x, ..., w=w, b=b)`` against the unfused
    linear -> batchnorm -> relu chain in plain numpy."""

    def _operands(self, seed, use_bias=True):
        gen = RngState(seed).generator()
        x = Tensor(gen.uniform(-1, 1, size=(9, 4)), requires_grad=True)
        w = Tensor(gen.uniform(-1, 1, size=(4, 5)), requires_grad=True)
        b = Tensor(gen.uniform(-1, 1, size=5), requires_grad=True) if use_bias else None
        gamma = Tensor(gen.uniform(0.5, 1.5, size=5), requires_grad=True)
        beta = Tensor(gen.uniform(-0.5, 0.5, size=5), requires_grad=True)
        return x, w, b, gamma, beta, gen.uniform(-1, 1, size=(9, 5))

    def _check_forward(self, x, w, b, gamma, beta, g):
        """Assert the output and running statistics match the reference;
        return the op's gradients, the reference's and their tensors."""
        state = BatchNormState(5)
        fused = batchnorm(x, gamma, beta, state, w=w, b=b)
        want, mean, var, want_grads = _bn_layer_reference(
            x.data, w.data, None if b is None else b.data, gamma.data, beta.data, g
        )
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
    def test_matches_unfused_reference(self, use_bias):
        x, w, b, gamma, beta, g = self._operands(40, use_bias)
        got, want, named = self._check_forward(x, w, b, gamma, beta, g)
        for name in ("x", "w", "gamma", "beta"):
            np.testing.assert_allclose(got[named[name]], want[name], rtol=1e-12, atol=0, err_msg=name)
        if use_bias:
            assert np.array_equal(got[b], np.zeros(5))
            assert np.max(np.abs(want["b"])) < 1e-12  # the reference's is zero up to rounding

    def test_row_aligned_bias_matches_unfused_reference(self):
        # a (rows, d) bias differs between rows, so it is not cancelled
        x, w, _, gamma, beta, g = self._operands(47)
        b = Tensor(RngState(48).generator().uniform(-1, 1, size=(9, 5)), requires_grad=True)
        got, want, named = self._check_forward(x, w, b, gamma, beta, g)
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
        out = batchnorm(x, gamma, beta, BatchNormState(5), w=w, b=b)
        assert np.isnan(out.data).all()  # the NaN reaches every row through the batch mean

    def test_never_writes_inputs_gradient_or_running_state(self):
        gen = RngState(43).generator()
        shapes = ((6, 3), (3, 4), (4,), (4,), (4,), (6, 4), (4,), (4,))
        x, w, b, gamma, beta, g, mean, var = (_read_only(gen.uniform(0.5, 1.5, size=s)) for s in shapes)
        saved = [a.copy() for a in (x, w, b, gamma, beta, g, mean, var)]
        state = BatchNormState(4)
        state.mean, state.var = mean, var
        params = [Tensor(a, requires_grad=True) for a in (x, w, b, gamma, beta)]
        out = batchnorm(params[0], params[3], params[4], state, w=params[1], b=params[2])
        grads = out._backward(g)
        out._backward.preactivation()
        assert [t.shape for _, t in grads] == [(6, 3), (3, 4), (4,), (4,), (4,)]
        assert state.mean is not mean and state.var is not var  # rebound, not updated in place
        for before, after in zip(saved, (x, w, b, gamma, beta, g, mean, var)):
            np.testing.assert_array_equal(before, after)

    def test_single_row_rejected(self):
        x, w, b, gamma, beta, _ = self._operands(44)
        with pytest.raises(DegenerateBatchError):
            batchnorm(Tensor(x.data[:1]), gamma, beta, BatchNormState(5), w=w, b=b)

    def test_shape_mismatches_rejected(self):
        x, w, b, gamma, beta, _ = self._operands(46)
        with pytest.raises(ShapeError, match=r"\(9, 4\).*\(5, 5\)"):
            batchnorm(x, gamma, beta, BatchNormState(5), w=Tensor(np.ones((5, 5))))
        with pytest.raises(ShapeError, match=r"\(4,\)"):
            batchnorm(x, gamma, beta, BatchNormState(5), w=w, b=Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match=r"\(8, 5\)"):
            batchnorm(x, gamma, beta, BatchNormState(5), w=w, b=Tensor(np.ones((8, 5))))
        with pytest.raises(ShapeError, match=r"gamma and beta must have shape \(5,\), got \(4,\)"):
            batchnorm(x, Tensor(np.ones(4)), beta, BatchNormState(5), w=w)
        with pytest.raises(ShapeError, match=r"gamma and beta must have shape \(5,\), got \(1, 5\)"):
            batchnorm(x, gamma, Tensor(np.ones((1, 5))), BatchNormState(5), w=w)
        with pytest.raises(ShapeError, match=r"cannot multiply shapes \(1, 9, 4\)"):
            batchnorm(Tensor(x.data[None]), gamma, beta, BatchNormState(5), w=w)


def _near_constant_column_draw():
    """The draw of ``test_batchnorm_gradients_with_near_constant_column``:
    a column of ``x @ w`` with std 1e-3."""
    gen = RngState(77).generator()
    x = gen.uniform(-1, 1, size=(64, 4))
    w = gen.uniform(-1, 1, size=(4, 5))
    w[:, 2] *= 1e-3 / (x @ w[:, 2]).std()
    return x, w, gen


def _collinear_draw():
    """Nearly collinear inputs under a large weight column: x1 = x0 +
    1e-6 noise and a column 1000 (e0 - e1), whose w^T cov w cancels."""
    gen = RngState(88).generator()
    x = gen.uniform(-1, 1, size=(64, 3))
    x[:, 1] = x[:, 0] + 1e-6 * gen.uniform(-1, 1, size=64)
    w = gen.uniform(-1, 1, size=(3, 6))
    w[:, 0] = [1000.0, -1000.0, 0.0]
    return x, w, gen


class TestBatchnormWidening:
    """A layer that widens (d_in < d) is computed from the input's mean
    and covariance; against the unfused reference it gives the same
    values, and its guard runs the direct formula where ``w^T cov w``
    cancels."""

    @staticmethod
    def _widening(seed, rows, d_in, d, offset):
        # relu'd, offset inputs as a hidden layer sees them, or raw ones
        gen = RngState(seed).generator()
        x = gen.uniform(-1, 1, size=(rows, d_in))
        if offset:
            x = np.maximum(x, 0.0) + offset
        return x, gen.uniform(-1, 1, size=(d_in, d)) / np.sqrt(d_in), gen

    def _operands(self, case):
        if case == "near-constant":
            return _near_constant_column_draw()
        if case == "collinear":
            return _collinear_draw()
        rows, d_in, d, offset = case
        return self._widening(sum(case[:3]), rows, d_in, d, offset)

    @staticmethod
    def _assert_close(got, want, name=""):
        # relative to the array's largest entry: outputs near the relu kink
        # and gradients near zero are differences of larger terms
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"{name}: relative error {err:.2e}"

    def _check(self, case, use_bias, monkeypatch, path):
        """Output, gradients and running statistics against the reference,
        with the path the op must take asserted."""
        x0, w0, gen = self._operands(case)
        rows, d = x0.shape[0], w0.shape[1]
        gamma0, beta0 = gen.uniform(0.5, 1.5, size=d), gen.uniform(-0.5, 0.5, size=d)
        b0 = gen.uniform(-1, 1, size=d) if use_bias else None
        g = gen.uniform(-1, 1, size=(rows, d))
        assert bool(tensor_mod._input_statistics(x0, w0)[-1]) == (path == "covariance")
        taken = []
        direct = tensor_mod._normalize_product
        monkeypatch.setattr(tensor_mod, "_normalize_product", lambda *a: taken.append(1) or direct(*a))

        x, w, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, gamma0, beta0))
        b = None if b0 is None else Tensor(b0, requires_grad=True)
        state = BatchNormState(d)
        out = batchnorm(x, gamma, beta, state, w=w, b=b)
        assert bool(taken) == (path == "direct")
        want, mean, var, want_grads = _bn_layer_reference(x0, w0, None, gamma0, beta0, g)
        assert np.any(out.data == 0) and np.any(out.data > 0)
        self._assert_close(out.data, want, "y")
        batch_mean = mean if b0 is None else mean + b0
        self._assert_close(state.mean, BN_MOMENTUM * batch_mean, "running mean")
        self._assert_close(state.var, (1.0 - BN_MOMENTUM) + BN_MOMENTUM * var, "running var")
        got = backward(sum_all(mul(out, Tensor(g))))
        for name, t in {"x": x, "w": w, "gamma": gamma, "beta": beta}.items():
            self._assert_close(got[t], want_grads[name], name)
        if use_bias:
            assert np.array_equal(got[b], np.zeros(d))

    @pytest.mark.parametrize("use_bias", [False, True], ids=["no-bias", "bias-row"])
    @pytest.mark.parametrize(
        "case",
        ["near-constant", (96, 3, 16, 0.0), (128, 8, 24, 0.3), (160, 2, 16, 5.0)],
        ids=["near-constant-column", "raw-3-16", "hidden-8-24", "offset-2-16"],
    )
    def test_matches_unfused_reference(self, case, use_bias, monkeypatch):
        self._check(case, use_bias, monkeypatch, "covariance")

    def test_collinear_inputs_under_large_weights_take_the_direct_formula(self, monkeypatch):
        # from the covariance, this column's variance is off by about
        # 3.5e-6 relative; the guard's bound sees the cancellation
        self._check("collinear", False, monkeypatch, "direct")

    def test_preactivation_is_positive_exactly_where_the_output_is(self):
        x, w, gen = self._widening(90, 96, 8, 24, 0.3)
        gamma, beta = gen.uniform(0.5, 1.5, size=24), gen.uniform(-0.5, 0.5, size=24)
        params = [Tensor(a, requires_grad=True) for a in (x, w, gamma, beta)]
        out = batchnorm(params[0], params[2], params[3], BatchNormState(24), w=params[1])
        pre = out._backward.preactivation()
        assert np.array_equal(pre > 0, out.data > 0)
        assert np.array_equal(np.maximum(pre, 0.0), out.data)

    def test_backward_leaves_its_operands_and_gradient_byte_identical(self):
        x, w, gen = self._widening(91, 96, 8, 24, 0.3)
        gamma, beta, b = (gen.uniform(-1, 1, size=24) for _ in range(3))
        g = gen.uniform(-1, 1, size=(96, 24))
        arrays = (x, w, gamma, beta, b, g)
        before = [a.tobytes() for a in arrays]
        params = [Tensor(a, requires_grad=True) for a in (x, w, gamma, beta, b)]
        out = batchnorm(params[0], params[2], params[3], BatchNormState(24), w=params[1], b=params[4])
        grads = out._backward(g)
        out._backward.preactivation()
        assert [t.shape for _, t in grads] == [(96, 8), (8, 24), (24,), (24,), (24,)]
        assert all(p.data is a for p, a in zip(params, arrays))
        assert [a.tobytes() for a in arrays] == before

def _per_set_reference(x, w, c, gamma, beta, g):
    """relu(BN(x @ w + E c)) in long double, E the indicator of the
    ``len(c)`` sets of consecutive rows: the output, the batch mean and
    biased variance, and the gradients of ``sum(out * g)`` by the closed
    form of Ioffe & Szegedy (2015)."""
    x, w, c, gamma, beta, g = (np.asarray(a, dtype=np.longdouble) for a in (x, w, c, gamma, beta, g))
    (m, d), sets = g.shape, c.shape[0]
    z = x @ w + np.repeat(c, m // sets, axis=0)
    mean = z.mean(axis=0)
    var = ((z - mean) ** 2).mean(axis=0)
    inv_std = 1.0 / np.sqrt(var + np.longdouble(BN_EPS))
    xhat = (z - mean) * inv_std
    pre = gamma * xhat + beta
    gp = g * (pre > 0)
    gz = gamma * inv_std / m * (m * gp - gp.sum(axis=0) - xhat * (gp * xhat).sum(axis=0))
    grads = {
        "x": gz @ w.T,
        "w": x.T @ gz,
        "b": gz.reshape(sets, -1, d).sum(axis=1),
        "gamma": (gp * xhat).sum(axis=0),
        "beta": gp.sum(axis=0),
    }
    return np.maximum(pre, 0.0), mean, var, grads


class TestPerSetBias:
    """An ``(S, d)`` bias shared by each block of ``rows / S`` consecutive
    rows, as a broadcast block's per-set row ``y W_y + b`` arrives."""

    @staticmethod
    def _operands(seed, sets, n, d_in, d):
        # column-major rows, as the model holds them
        gen = RngState(seed).generator()
        x = column_major(gen.uniform(-1, 1, size=(sets * n, d_in)))
        w = gen.uniform(-1, 1, size=(d_in, d)) / np.sqrt(d_in)
        c = gen.uniform(-1, 1, size=(sets, d))
        gamma, beta = gen.uniform(0.5, 1.5, size=d), gen.uniform(-0.5, 0.5, size=d)
        return x, w, c, gamma, beta, gen.uniform(-1, 1, size=(sets * n, d))

    @staticmethod
    def _run(x0, w0, c0, gamma0, beta0, g, tile=None):
        """The layer's output, running statistics and gradients, by name;
        with ``tile``, the bias goes in as ``tile_rows(c, tile)``."""
        x, w, c, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, c0, gamma0, beta0))
        state = BatchNormState(w0.shape[1])
        out = batchnorm(x, gamma, beta, state, w=w, b=c if tile is None else tile_rows(c, tile))
        got = backward(sum_all(mul(out, Tensor(g))))
        grads = {name: got[t] for name, t in {"x": x, "w": w, "b": c, "gamma": gamma, "beta": beta}.items()}
        return out.data, state, grads

    @staticmethod
    def _error(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    @staticmethod
    def _count_direct(monkeypatch) -> list:
        taken = []
        direct = tensor_mod._normalize_product
        monkeypatch.setattr(tensor_mod, "_normalize_product", lambda *a: taken.append(1) or direct(*a))
        return taken

    @pytest.mark.parametrize("shape", [(4, 6, 5, 5), (3, 8, 6, 4)], ids=["square", "narrowing"])
    def test_direct_formula_equals_the_tiled_bias(self, shape):
        # d_in + S >= d: the direct formula adds the per-set row through a
        # (S, N, d) view, the same add per element as the tiled copy, and
        # sums the gradient per set as tile_rows' backward does
        sets, n, d_in, d = shape
        operands = self._operands(100 + d_in, sets, n, d_in, d)
        y, state, grads = self._run(*operands)
        y_tiled, state_tiled, grads_tiled = self._run(*operands, tile=n)
        assert np.any(y == 0) and np.any(y > 0)
        assert np.array_equal(y, y_tiled)
        assert np.array_equal(state.mean, state_tiled.mean) and np.array_equal(state.var, state_tiled.var)
        for name, grad in grads.items():
            assert np.array_equal(grad, grads_tiled[name]), name

    def test_affine_equals_the_tiled_bias(self):
        x, w, c, *_, g = self._operands(104, 3, 5, 4, 6)
        outs = []
        for tile in (None, 5):
            xt, wt, ct = (Tensor(a, requires_grad=True) for a in (x, w, c))
            out = affine(xt, wt, ct if tile is None else tile_rows(ct, tile), relu=True)
            got = backward(sum_all(mul(out, Tensor(g))))
            outs.append([out.data] + [got[t] for t in (xt, wt, ct)])
        for name, a, b in zip(("y", "x", "w", "b"), *outs):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize(
        "shape", [(8, 98, 3, 64), (32, 196, 3, 256), (16, 49, 8, 128)], ids=["3-64", "bc0", "8-128"]
    )
    def test_covariance_formula_is_as_accurate_as_the_direct_one(self, shape, monkeypatch):
        # against long double, as the covariance formula without a bias was
        # measured: its worst error over the output and the gradients is no
        # larger than the direct formula's, and no single error is more than
        # twice the direct formula's (the two round differently)
        sets, n, d_in, d = shape
        operands = self._operands(110 + d, sets, n, d_in, d)
        want, mean, var, want_grads = _per_set_reference(*operands)
        errors = {}
        for formula in ("covariance", "direct"):
            if formula == "direct":
                monkeypatch.setattr(tensor_mod, "BN_COV_RTOL", -1.0)  # the guard refuses every call
            taken = self._count_direct(monkeypatch)
            y, state, grads = self._run(*operands)
            assert bool(taken) == (formula == "direct")
            errors[formula] = {
                "y": self._error(y, want),
                "mean": self._error(state.mean / BN_MOMENTUM, mean),
                "var": self._error((state.var - (1.0 - BN_MOMENTUM)) / BN_MOMENTUM, var),
                **{name: self._error(grad, want_grads[name]) for name, grad in grads.items()},
            }
        cov, direct = errors["covariance"], errors["direct"]
        assert max(cov.values()) <= max(direct.values()) <= 1e-14, errors
        assert all(cov[k] <= 2.0 * direct[k] for k in cov), errors

    def test_covariance_formula_matches_the_explicit_indicator_oracle(self, monkeypatch):
        # the layer x @ w + E c is the bias-free layer [x | E] @ [w; c],
        # which the covariance formula takes as a plain widening layer
        sets, n = 5, 12
        x0, w0, c0, gamma0, beta0, g = self._operands(120, sets, n, 3, 24)
        taken = self._count_direct(monkeypatch)
        y, state, grads = self._run(x0, w0, c0, gamma0, beta0, g)
        indicator = np.repeat(np.eye(sets), n, axis=0)
        xe, we, gamma, beta = (
            Tensor(a, requires_grad=True)
            for a in (np.hstack([x0, indicator]), np.vstack([w0, c0]), gamma0, beta0)
        )
        oracle_state = BatchNormState(24)
        out = batchnorm(xe, gamma, beta, oracle_state, w=we)
        got = backward(sum_all(mul(out, Tensor(g))))
        assert not taken
        want = {"x": got[xe][:, :3], "w": got[we][:3], "b": got[we][3:], "gamma": got[gamma], "beta": got[beta]}
        TestBatchnormWidening._assert_close(y, out.data, "y")
        TestBatchnormWidening._assert_close(state.mean, oracle_state.mean, "running mean")
        TestBatchnormWidening._assert_close(state.var, oracle_state.var, "running var")
        for name, grad in grads.items():
            TestBatchnormWidening._assert_close(grad, want[name], name)

    @pytest.mark.parametrize(
        "case", [(96, 3, 16, 0.0), (128, 8, 24, 0.3), (160, 2, 16, 5.0)], ids=["raw-3-16", "hidden-8-24", "offset-2-16"]
    )
    def test_widening_layers_match_the_unfused_reference(self, case, monkeypatch):
        rows, d_in, d, offset = case
        x0, w0, gen = TestBatchnormWidening._widening(sum(case[:3]), rows, d_in, d, offset)
        c0 = gen.uniform(-1, 1, size=(4, d))
        gamma0, beta0 = gen.uniform(0.5, 1.5, size=d), gen.uniform(-0.5, 0.5, size=d)
        g = gen.uniform(-1, 1, size=(rows, d))
        taken = self._count_direct(monkeypatch)
        y, state, grads = self._run(x0, w0, c0, gamma0, beta0, g)
        assert not taken
        want, mean, var, want_grads = _bn_layer_reference(
            x0, w0, np.repeat(c0, rows // 4, axis=0), gamma0, beta0, g
        )
        want_grads["b"] = want_grads["b"].reshape(4, -1, d).sum(axis=1)
        TestBatchnormWidening._assert_close(y, want, "y")
        TestBatchnormWidening._assert_close(state.mean, BN_MOMENTUM * mean, "running mean")
        TestBatchnormWidening._assert_close(state.var, (1.0 - BN_MOMENTUM) + BN_MOMENTUM * var, "running var")
        for name, grad in grads.items():
            TestBatchnormWidening._assert_close(grad, want_grads[name], name)

    def test_collinear_inputs_under_large_weights_take_the_direct_formula(self, monkeypatch):
        x0, w0, gen = _collinear_draw()  # 64 rows, 3 -> 6
        c0 = gen.uniform(-1, 1, size=(2, 6))  # 3 + 2 < 6: a widening layer
        gamma0, beta0 = gen.uniform(0.5, 1.5, size=6), gen.uniform(-0.5, 0.5, size=6)
        g = gen.uniform(-1, 1, size=(64, 6))
        assert not tensor_mod._input_statistics(x0, w0, c0)[-1]
        taken = self._count_direct(monkeypatch)
        y, _, grads = self._run(x0, w0, c0, gamma0, beta0, g)
        assert taken
        want, _, _, want_grads = _bn_layer_reference(x0, w0, np.repeat(c0, 32, axis=0), gamma0, beta0, g)
        want_grads["b"] = want_grads["b"].reshape(2, -1, 6).sum(axis=1)
        TestBatchnormWidening._assert_close(y, want, "y")
        for name, grad in grads.items():
            TestBatchnormWidening._assert_close(grad, want_grads[name], name)

    @pytest.mark.parametrize("sets", [0, 5, 24], ids=["none", "five", "more-than-rows"])
    def test_sets_that_do_not_divide_the_rows_are_refused(self, sets):
        x, w, *_ = self._operands(130, 3, 4, 3, 8)  # 12 rows
        gamma, beta, bias = Tensor(np.ones(8)), Tensor(np.zeros(8)), Tensor(np.zeros((sets, 8)))
        with pytest.raises(ShapeError, match=rf"\({sets}, 8\).*12 rows"):
            affine(Tensor(x), Tensor(w), bias)
        with pytest.raises(ShapeError, match=rf"\({sets}, 8\).*12 rows"):
            batchnorm(Tensor(x), gamma, beta, BatchNormState(8), w=Tensor(w), b=bias)


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
            backward(mul(w, w))

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

    @pytest.mark.parametrize("logits, labels", [((3, 2, 4), (2,)), ((2, 4), (3,))], ids=["rank-3", "labels"])
    def test_cross_entropy_rejects_other_shapes(self, logits, labels):
        with pytest.raises(ShapeError, match=r"^expected \(batch, classes\) logits with \(batch,\) labels"):
            softmax_cross_entropy(Tensor(np.zeros(logits)), np.zeros(labels, dtype=int))

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = softmax_cross_entropy(logits, np.array([1, 3]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=0, atol=1e-12)

    def test_add_bias_broadcast_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        grads = backward(sum_all(add(x, b)))
        np.testing.assert_array_equal(grads[b], [3.0, 3.0])

    def test_reshape_roundtrip(self):
        gen = RngState(12).generator()
        x = gen.uniform(-1, 1, size=(3, 5))
        t = Tensor(x, requires_grad=True)
        out = reshape(t, (15,))
        grads = backward(sum_all(out))
        np.testing.assert_array_equal(grads[t], np.ones((3, 5)))

    def test_second_backward_through_a_differentiated_graph_raises(self):
        w = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
        y = mul(w, w)
        loss = sum_all(y)
        np.testing.assert_array_equal(backward(loss)[w], [[4.0, -2.0]])
        # freed nodes would otherwise read as leaves, and w would get zeros
        with pytest.raises(RuntimeError, match="^this graph was already differentiated"):
            backward(loss)
        with pytest.raises(RuntimeError, match="^this graph was already differentiated"):
            backward(sum_all(y), params=[w])


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

    @pytest.mark.parametrize(
        "view",
        [
            lambda: np.arange(6.0).reshape(2, 3).T,
            lambda: np.arange(12.0).reshape(3, 4)[::2, 1::2],
        ],
        ids=["transposed", "strided"],
    )
    def test_views_are_perturbed_in_place(self, view):
        x = view()
        assert not x.flags.c_contiguous
        before = x.copy()
        fd = finite_difference_gradient(lambda a: float((a**2).sum()), x)
        np.testing.assert_allclose(fd, 2.0 * before, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize(
        "bad",
        [[1.0, 2.0], np.arange(3), np.ones(2, dtype=np.float32), _read_only(np.ones(2))],
        ids=["list", "int64", "float32", "read-only"],
    )
    def test_refuses_what_it_cannot_perturb_in_place(self, bad):
        with pytest.raises(TypeError, match="writeable float64 ndarray"):
            finite_difference_gradient(lambda a: 0.0, bad)



def test_plain_calls_with_a_row_aligned_bias_are_unchanged():
    # (rows, d) biases, one set per row, are added row by row and move
    # the running mean
    gen = RngState(69).generator()
    x, w = Tensor(gen.uniform(-1, 1, size=(6, 3))), Tensor(gen.uniform(-1, 1, size=(3, 4)))
    gamma, beta = Tensor(gen.uniform(0.5, 1.5, size=4)), Tensor(gen.uniform(-0.5, 0.5, size=4))
    rows = RngState(70).generator().uniform(-1, 1, size=(6, 4))
    out = affine(x, w, Tensor(rows))
    np.testing.assert_array_equal(out.data, x.data @ w.data + rows)
    state = BatchNormState(4)
    batchnorm(x, gamma, beta, state, w=w, b=Tensor(rows))
    z = x.data @ w.data + rows
    np.testing.assert_allclose(state.mean, BN_MOMENTUM * z.mean(axis=0), rtol=1e-15, atol=0)


@pytest.mark.parametrize("shape", [(4, 4), (1, 6, 4), (6, 5)], ids=["sets-not-dividing", "rank-3", "width"])
def test_a_bias_is_a_row_or_one_row_per_set(shape):
    gen = RngState(68).generator()
    x, w = Tensor(gen.uniform(-1, 1, size=(6, 3))), Tensor(gen.uniform(-1, 1, size=(3, 4)))
    with pytest.raises(ShapeError, match=r"is neither a row \(4,\) nor \(S, 4\) with S dividing 6 rows"):
        affine(x, w, Tensor(np.zeros(shape)))


@pytest.mark.parametrize("op", [matmul, affine], ids=["matmul", "affine"])
@pytest.mark.parametrize("x_shape, w_shape", [((2, 6, 3), (3, 4)), ((6, 3), (2, 3, 4))], ids=["x", "w"])
def test_dense_ops_take_rank_2_operands(op, x_shape, w_shape):
    args = (Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))
    with pytest.raises(ShapeError, match="cannot multiply shapes"):
        op(*args) if op is matmul else op(*args, None)


def _layer(name: str, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    if name == "matmul":
        return matmul(x, w)
    if name == "affine":
        return affine(x, w, b, relu=True)
    gamma, beta = (Tensor(np.full(4, v), requires_grad=True) for v in (1.5, 0.2))
    return batchnorm(x, gamma, beta, BatchNormState(4), w=w, b=b)


@pytest.mark.parametrize(
    "name, d_in, bias_shape",
    [
        ("matmul", 3, (4,)),
        ("affine", 3, (4,)),
        ("batchnorm", 3, (4,)),  # widening: the covariance formula
        ("batchnorm", 5, (4,)),  # narrowing: the direct formula
        ("batchnorm", 3, (6, 4)),  # one bias row per row, 3 + 6 >= 4: the direct formula
        ("batchnorm", 1, (2, 4)),  # per-set bias, 1 + 2 < 4: the covariance formula
    ],
    ids=["matmul", "affine", "batchnorm", "batchnorm-narrowing", "batchnorm-row-aligned-bias", "batchnorm-per-set-bias"],
)
def test_input_gradient_only_for_an_input_that_requires_grad(name, d_in, bias_shape):
    """The backward leaves out the input gradient ``g @ w.T`` when the
    input needs none; every other gradient is the same either way."""
    gen = RngState(60).generator()
    x, w, b, g = (gen.uniform(-1, 1, size=s) for s in ((6, d_in), (d_in, 4), bias_shape, (6, 4)))
    others = {}
    for wanted in (True, False):
        xt = Tensor(x, requires_grad=wanted)
        pairs = _layer(name, xt, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))._backward(g)
        assert any(t is xt for t, _ in pairs) == wanted
        others[wanted] = [grad for t, grad in pairs if t is not xt]
    assert len(others[True]) == len(others[False]) >= 1
    for with_x, without_x in zip(others[True], others[False]):
        np.testing.assert_array_equal(with_x, without_x)


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
        set_softmax(Tensor(x), 4).data,
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
