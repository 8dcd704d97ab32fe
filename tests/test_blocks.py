import numpy as np
import pytest

from pinset.blocks import (
    AggregationBlock,
    ExpressivenessWarning,
    Mlp,
    MlpSpec,
    aggregate,
    aggregate_order_n,
    broadcast_batched,
    make_broadcast_block,
    per_element_contribution,
)
from pinset.decomp import numeric_rank
from pinset.rng import RngState
from pinset.tensor import BN_EPS, Tensor


def _block(act1="softmax_set", act2="softmax_set", dims1=None, dims2=None, seed=0, **kw):
    dims1 = dims1 or [3, 16, 12]
    dims2 = dims2 or [3, 16, 16]
    rng = RngState(seed)
    return AggregationBlock(
        mlp1=Mlp(MlpSpec(dims1, final_activation=act1, **kw), rng.child(0)),
        mlp2=Mlp(MlpSpec(dims2, final_activation=act2, **kw), rng.child(1)),
        dropout_ratio=0.0,
    )


class TestMlpSpec:
    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            MlpSpec([5])

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            MlpSpec([3, 4], final_activation="tanh")


class TestMlpForward:
    def test_identity_linear_layer(self):
        mlp = Mlp(
            MlpSpec([3, 3], final_activation="none", use_batchnorm=False),
            RngState(0),
        )
        mlp.weights[0].data = np.eye(3)
        mlp.biases[0].data = np.zeros(3)
        x = RngState(1).generator().uniform(-1, 1, size=(5, 3))
        np.testing.assert_array_equal(mlp.forward(Tensor(x), "eval").data, x)

    def test_ablation_template_output_shape(self):
        mlp = Mlp(MlpSpec([3, 32, 128, 32], final_activation="softmax_set"), RngState(2))
        out = mlp.forward(Tensor(np.ones((7, 3))), "eval", set_size=7)
        assert out.data.shape == (7, 32)

    def test_permutation_equivariance(self):
        mlp = Mlp(MlpSpec([3, 8, 5], final_activation="softmax_set"), RngState(3))
        gen = RngState(4).generator()
        for _ in range(50):
            x = gen.uniform(-1, 1, size=(11, 3))
            perm = gen.permutation(11)
            a = mlp.forward(Tensor(x[perm]), "eval", set_size=11).data
            b = mlp.forward(Tensor(x), "eval", set_size=11).data[perm]
            assert np.max(np.abs(a - b)) < 1e-12

    def test_width_mismatch(self):
        mlp = Mlp(MlpSpec([3, 4]), RngState(5))
        with pytest.raises(ValueError, match="width"):
            mlp.forward(Tensor(np.ones((2, 5))), "eval")


def _with_running_stats(mlp: Mlp, seed: int) -> Mlp:
    gen = RngState(seed).generator()
    for state, gamma, beta in zip(mlp.bn_states, mlp.bn_gamma, mlp.bn_beta):
        if state is not None:
            width = state.mean.shape[0]
            state.mean = gen.uniform(-0.5, 0.5, size=width)
            state.var = gen.uniform(0.2, 2.0, size=width)
            gamma.data = gen.uniform(0.5, 1.5, size=width)
            beta.data = gen.uniform(-0.5, 0.5, size=width)
    return mlp


def _unfused_eval(mlp: Mlp, x: np.ndarray, set_size: int) -> np.ndarray:
    """Eval-mode forward in plain numpy, one step at a time per layer:
    linear map, batchnorm by the stored statistics, activation."""
    h = x
    for i in range(mlp.n_layers):
        h = h @ mlp.weights[i].data
        if mlp.biases[i] is not None:
            h = h + mlp.biases[i].data
        state = mlp.bn_states[i]
        if state is not None:
            h = (h - state.mean) / np.sqrt(state.var + BN_EPS) * mlp.bn_gamma[i].data + mlp.bn_beta[i].data
        kind = mlp._layer_activation(i)
        if kind == "relu":
            h = np.maximum(h, 0.0)
        elif kind == "softmax_set":
            sets = h.reshape(-1, set_size, h.shape[1])
            e = np.exp(sets - sets.max(axis=1, keepdims=True))
            h = (e / e.sum(axis=1, keepdims=True)).reshape(h.shape)
    return h


class TestMlpEvalFold:
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("kind", ["relu", "softmax_set", "none"])
    def test_matches_unfused_reference(self, kind, use_bias):
        spec = MlpSpec([3, 8, 6, 5], hidden_activation=kind, final_activation=kind, use_bias=use_bias)
        mlp = _with_running_stats(Mlp(spec, RngState(30)), 31)
        x = Tensor(RngState(32).generator().uniform(-1, 1, size=(4 * 9, 3)))
        got = mlp.forward(x, "eval", set_size=9).data
        want = _unfused_eval(mlp, x.data, 9)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_eval_does_not_touch_running_stats(self):
        mlp = _with_running_stats(Mlp(MlpSpec([3, 8, 5]), RngState(33)), 34)
        before = [(s.mean.copy(), s.var.copy()) for s in mlp.bn_states if s is not None]
        mlp.forward(Tensor(np.ones((4, 3))), "eval")
        after = [(s.mean, s.var) for s in mlp.bn_states if s is not None]
        for (m0, v0), (m1, v1) in zip(before, after):
            np.testing.assert_array_equal(m0, m1)
            np.testing.assert_array_equal(v0, v1)

    @pytest.mark.parametrize("use_batchnorm", [True, False])
    def test_invalid_mode_rejected(self, use_batchnorm):
        mlp = Mlp(MlpSpec([3, 4, 2], use_batchnorm=use_batchnorm), RngState(35))
        with pytest.raises(ValueError, match="mode"):
            mlp.forward(Tensor(np.ones((4, 3))), "Eval")


class TestAggregate:
    def test_single_element_set_is_outer_product(self):
        block = _block(act1="none", act2="none", use_batchnorm=False)
        x = RngState(6).generator().uniform(-1, 1, size=(1, 3))
        with pytest.warns(ExpressivenessWarning):
            out = aggregate(block, Tensor(x[None]), "eval")
        h1 = block.mlp1.forward(Tensor(x), "eval").data
        h2 = block.mlp2.forward(Tensor(x), "eval").data
        np.testing.assert_allclose(out.data.reshape(12, 16), h1.T @ h2, rtol=0, atol=1e-12)
        assert numeric_rank(out.data.reshape(12, 16)) <= 1

    def test_permutation_invariance(self):
        gen = RngState(7).generator()
        block = _block()
        for _ in range(100):
            x = gen.uniform(-1, 1, size=(64, 3))
            perm = gen.permutation(64)
            a = aggregate(block, Tensor(x[None]), "eval").data
            b = aggregate(block, Tensor(x[perm][None]), "eval").data
            assert np.max(np.abs(a - b)) < 1e-12

    def test_orthogonal_mixing_collapse_without_activations(self):
        block = _block(
            act1="none", act2="none", dims1=[3, 8], dims2=[3, 8],
            use_batchnorm=False, use_bias=False,
        )
        gen = RngState(8).generator()
        for _ in range(20):
            x = gen.uniform(-1, 1, size=(16, 3))
            q, _ = np.linalg.qr(gen.standard_normal((16, 16)))
            a = aggregate(block, Tensor(x[None]), "eval").data
            b = aggregate(block, Tensor((q @ x)[None]), "eval").data
            assert np.max(np.abs(a - b)) < 1e-10

    def test_batched_matches_per_set(self):
        block = _block()
        gen = RngState(9).generator()
        sets = gen.uniform(-1, 1, size=(4, 20, 3))
        batch_out = aggregate(block, Tensor(sets), "eval").data
        for i in range(4):
            alone = aggregate(block, Tensor(sets[i : i + 1]), "eval").data
            np.testing.assert_allclose(batch_out[i : i + 1], alone, rtol=0, atol=1e-13)

    def test_small_set_warns_not_rejects(self):
        block = _block()
        x = np.ones((2, 4, 3))  # min(s, t) = 12 > 4
        with pytest.warns(ExpressivenessWarning):
            out = aggregate(block, Tensor(x), "eval")
        assert out.data.shape == (2, 12 * 16)

    def test_single_set_needs_batch_axis(self):
        with pytest.raises(ValueError, match=r"\(B, N, p\)"):
            aggregate(_block(), Tensor(np.ones((20, 3))), "eval")


class TestAggregateOrderN:
    def test_order_one_identity_mlp_sums_columns(self):
        mlp = Mlp(MlpSpec([3, 3], final_activation="none", use_batchnorm=False), RngState(10))
        mlp.weights[0].data = np.eye(3)
        mlp.biases[0].data = np.zeros(3)
        x = RngState(11).generator().uniform(-1, 1, size=(9, 3))
        out = aggregate_order_n([mlp], Tensor(x), "eval")
        np.testing.assert_allclose(out.data, x.sum(axis=0), rtol=0, atol=1e-14)

    def test_order_two_matches_aggregate_exactly(self):
        block = _block()
        x = RngState(12).generator().uniform(-1, 1, size=(30, 3))
        via_block = aggregate(block, Tensor(x[None]), "eval").data.reshape(12, 16)
        via_order = aggregate_order_n([block.mlp1, block.mlp2], Tensor(x), "eval").data
        np.testing.assert_array_equal(via_block, via_order)

    def test_order_three_matches_brute_force(self):
        rng = RngState(13)
        mlps = [
            Mlp(MlpSpec([3, 4, 2], final_activation="none"), rng.child(j)) for j in range(3)
        ]
        x = rng.child("x").generator().uniform(-1, 1, size=(4, 3))
        out = aggregate_order_n(mlps, Tensor(x), "eval").data
        outs = [m.forward(Tensor(x), "eval", set_size=4).data for m in mlps]
        brute = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    brute[a, b, c] = sum(
                        outs[0][i, a] * outs[1][i, b] * outs[2][i, c] for i in range(4)
                    )
        assert np.max(np.abs(out - brute)) < 1e-12

    def test_multiple_set_softmax_rejected_above_order_two(self):
        rng = RngState(14)
        mlps = [
            Mlp(MlpSpec([3, 2], final_activation="softmax_set"), rng.child(j))
            for j in range(3)
        ]
        with pytest.raises(ValueError, match="softmax"):
            aggregate_order_n(mlps, Tensor(np.ones((5, 3))), "eval")

    def test_order_n_permutation_invariance(self):
        rng = RngState(15)
        mlps = [
            Mlp(
                MlpSpec([3, 4, 2], final_activation="softmax_set" if j == 0 else "none"),
                rng.child(j),
            )
            for j in range(3)
        ]
        gen = rng.child("data").generator()
        for _ in range(20):
            x = gen.uniform(-1, 1, size=(8, 3))
            perm = gen.permutation(8)
            a = aggregate_order_n(mlps, Tensor(x), "eval").data
            b = aggregate_order_n(mlps, Tensor(x[perm]), "eval").data
            assert np.max(np.abs(a - b)) < 1e-12


def _broadcast_block(d_x, d_y, d_z, seed):
    return make_broadcast_block(d_x, d_y, d_z, RngState(seed))


def _randomize_normalization(block, seed):
    """Random running statistics, gamma and beta, so eval mode is no
    near-identity."""
    gen = RngState(seed).generator()
    d_z = block.gamma.data.shape[0]
    block.state.mean = gen.uniform(-0.5, 0.5, size=d_z)
    block.state.var = gen.uniform(0.5, 2.0, size=d_z)
    block.gamma.data = gen.uniform(0.5, 1.5, size=d_z)
    block.beta.data = gen.uniform(-0.5, 0.5, size=d_z)


def _broadcast_preactivation(block, sets, feats):
    """x W_x^T + y W_y^T + b in plain numpy for sets (B, N, d_x) and
    features (B, d_y), stacked to (B*N, d_z)."""
    w_x, w_y, bias = block.w_x.data, block.w_y.data, block.bias.data
    return np.concatenate([s @ w_x.T + f @ w_y.T + bias for s, f in zip(sets, feats)])


def _broadcast_reference(block, sets, feats, mode):
    """relu(BN(x W_x^T + y W_y^T + b)) in plain numpy. Train mode
    normalizes by the batch's biased statistics, eval mode by the stored
    ones."""
    z = _broadcast_preactivation(block, sets, feats)
    if mode == "train":
        mean, var = z.mean(axis=0), z.var(axis=0)
    else:
        mean, var = block.state.mean, block.state.var
    return np.maximum((z - mean) / np.sqrt(var + BN_EPS) * block.gamma.data + block.beta.data, 0.0)


def _broadcast(block, sets, feats, mode):
    """broadcast_batched on sets (B, N, d_x) with their features (B, d_y)."""
    b, n, d_x = sets.shape
    return broadcast_batched(block, Tensor(sets.reshape(b * n, d_x)), Tensor(feats), n, mode).data


MODES = ("eval", "train")


def _assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=0, atol=1e-14)


class TestBroadcast:
    def test_identity_on_elements(self):
        block = _broadcast_block(3, 2, 3, 16)
        block.w_x.data = np.eye(3)
        block.w_y.data = np.zeros((3, 2))
        block.bias.data = np.zeros(3)
        sets = RngState(17).generator().uniform(-1, 1, size=(2, 5, 3))
        feats = np.ones((2, 2))
        # with the initial statistics eval mode only divides by sqrt(1 + eps)
        out = _broadcast(block, sets, feats, "eval")
        expected = np.maximum(sets.reshape(10, 3), 0.0) / np.sqrt(1.0 + BN_EPS)
        _assert_close(out, expected)
        for mode in MODES:
            out = _broadcast(block, sets, feats, mode)
            _assert_close(out, _broadcast_reference(block, sets, feats, mode))

    def test_pure_set_feature(self):
        block = _broadcast_block(3, 2, 2, 18)
        block.w_x.data = np.zeros((2, 3))
        block.w_y.data = np.eye(2)
        block.bias.data = np.zeros(2)
        _randomize_normalization(block, 19)
        feats = np.array([[0.5, -1.5], [-0.25, 1.0], [2.0, 0.75]])
        sets = RngState(20).generator().uniform(-1, 1, size=(3, 4, 3))
        for mode in MODES:
            out = _broadcast(block, sets, feats, mode)
            _assert_close(out, _broadcast_reference(block, sets, feats, mode))
            # every element of a set gets the same row
            for i in range(3):
                np.testing.assert_array_equal(out[4 * i : 4 * (i + 1)], np.tile(out[4 * i], (4, 1)))

    def test_permutation_equivariance(self):
        block = _broadcast_block(3, 4, 5, 19)
        _randomize_normalization(block, 21)
        gen = RngState(20).generator()
        feats = gen.uniform(-1, 1, size=(1, 4))
        for _ in range(20):
            sets = gen.uniform(-1, 1, size=(1, 7, 3))
            perm = gen.permutation(7)
            for mode in MODES:
                a = _broadcast(block, sets[:, perm], feats, mode)
                b = _broadcast(block, sets, feats, mode)
                _assert_close(b, _broadcast_reference(block, sets, feats, mode))
                if mode == "eval":
                    np.testing.assert_array_equal(a, b[perm])
                else:  # the batch mean sums the rows in another order
                    _assert_close(a, b[perm])

    def test_batched_matches_per_set(self):
        block = _broadcast_block(3, 4, 5, 21)
        block.bias.data = RngState(24).generator().uniform(-1, 1, size=5)
        _randomize_normalization(block, 23)
        gen = RngState(22).generator()
        sets = gen.uniform(-1, 1, size=(3, 6, 3))
        feats = gen.uniform(-1, 1, size=(3, 4))
        # eval mode acts row by row, so each set can be checked on its own
        flat = _broadcast(block, sets, feats, "eval")
        for i in range(3):
            expected = _broadcast_reference(block, sets[i : i + 1], feats[i : i + 1], "eval")
            _assert_close(flat[6 * i : 6 * (i + 1)], expected)
        # train mode normalizes over the whole batch and moves the running
        # statistics by the batch's mean (bias included) and variance
        mean, var = block.state.mean.copy(), block.state.var.copy()
        flat = _broadcast(block, sets, feats, "train")
        _assert_close(flat, _broadcast_reference(block, sets, feats, "train"))
        z = _broadcast_preactivation(block, sets, feats)
        np.testing.assert_allclose(block.state.mean, 0.9 * mean + 0.1 * z.mean(axis=0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(block.state.var, 0.9 * var + 0.1 * z.var(axis=0), rtol=0, atol=1e-15)

    def test_width_mismatch(self):
        block = _broadcast_block(3, 2, 4, 23)
        for mode in MODES:
            with pytest.raises(ValueError, match="width"):
                broadcast_batched(block, Tensor(np.ones((5, 7))), Tensor(np.ones((1, 2))), 5, mode)
            with pytest.raises(ValueError, match="width"):
                broadcast_batched(block, Tensor(np.ones((5, 3))), Tensor(np.ones((1, 3))), 5, mode)
        with pytest.raises(ValueError, match="mode"):
            broadcast_batched(block, Tensor(np.ones((5, 3))), Tensor(np.ones((1, 2))), 5, "test")

    def test_block_owns_normalization(self):
        block = _broadcast_block(3, 2, 4, 25)
        assert list(block.parameters("bc0.")) == [
            "bc0.w_x", "bc0.w_y", "bc0.bias", "bc0.bn_gamma", "bc0.bn_beta"
        ]
        np.testing.assert_array_equal(block.gamma.data, np.ones(4))
        np.testing.assert_array_equal(block.beta.data, np.zeros(4))
        assert list(block.norm_states("bc0.")) == ["bc0.bn"]


class TestPerElementContribution:
    def _element_block(self):
        return _block(act1="none", act2="none", dims1=[3, 8, 6], dims2=[3, 8, 5], seed=24)

    def test_rank_at_most_one(self):
        block = self._element_block()
        gen = RngState(25).generator()
        for _ in range(20):
            h = per_element_contribution(block, gen.uniform(-1, 1, size=3))
            assert numeric_rank(h) <= 1

    def test_contributions_sum_to_aggregate(self):
        block = self._element_block()
        gen = RngState(26).generator()
        x = gen.uniform(-1, 1, size=(16, 3))
        total = aggregate(block, Tensor(x[None]), "eval").data.reshape(6, 5)
        acc = np.zeros((6, 5))
        for row in x:
            acc += per_element_contribution(block, row)
        assert np.max(np.abs(acc - total)) < 1e-10

    def test_set_softmax_rejected(self):
        block = _block(act1="softmax_set", act2="none", seed=27)
        with pytest.raises(ValueError, match="softmax"):
            per_element_contribution(block, np.zeros(3))
