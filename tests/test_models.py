import dataclasses
import functools
import math
import os
import struct

import numpy as np
import pytest

from pinset.blocks import MlpSpec
from pinset.data import pixel_set_batch
from pinset.models import (
    PRESETS,
    TABLE_FACTORIZATIONS,
    AggregationSpec,
    ModelConfig,
    build_model,
    config_from_flat,
    config_to_flat,
    digits_config,
    gradcheck_config,
    param_count,
    pixel_l_config,
    pixel_s_config,
    point_ablation_config,
    quadrant_config,
)
from pinset import tensor as tensor_mod
from pinset import train as train_mod
from pinset.rng import RngState
from pinset.tensor import Tensor, _reachable, backward, no_grad, softmax_cross_entropy
from pinset.train import OptimizerState, TrainConfig, load_checkpoint, save_checkpoint, train

# published totals (in thousands) for the factorization sweep
TABLE_TOTALS_K = {
    (1, 1024): 143.8,
    (2, 512): 76.9,
    (4, 256): 43.6,
    (8, 128): 27.4,
    (16, 64): 20.0,
    (32, 32): 17.9,
}


class TestBuildModel:
    def test_pixel_s_logits_shape(self):
        model = build_model(pixel_s_config(), RngState(0))
        x = RngState(1).generator().uniform(-1, 1, size=(1, 784, 3))
        logits = model.forward(x, "eval")
        assert logits.data.shape == (1, 10)

    def test_point_config_feature_length(self):
        model = build_model(point_ablation_config(32, 32), RngState(2))
        x = RngState(3).generator().uniform(-1, 1, size=(1, 1024, 6))
        feature = model.forward(x, "eval")
        assert feature.data.shape == (1, 1024)

    def test_pixel_l_runs_forward(self):
        model = build_model(pixel_l_config(), RngState(4))
        x = RngState(5).generator().uniform(-1, 1, size=(2, 50, 3))
        logits = model.forward(x, "eval")
        assert logits.data.shape == (2, 10)

    def test_walk_order_is_pinned(self):
        # checkpoints store tensors in this order, so a reordered walk
        # changes their bytes; pixel-l has every block kind
        def mlp(prefix, bn_layers, layers):
            names = []
            for i in range(layers):
                names += [f"{prefix}layer{i}.weight", f"{prefix}layer{i}.bias"]
                if i < bn_layers:
                    names += [f"{prefix}layer{i}.bn_gamma", f"{prefix}layer{i}.bn_beta"]
            return names

        model = build_model(pixel_l_config(), RngState(0))
        assert list(model.parameters()) == [
            *mlp("agg1.mlp1.", 2, 3),
            *mlp("agg1.mlp2.", 2, 3),
            "bc0.w_x", "bc0.w_y", "bc0.bias", "bc0.bn_gamma", "bc0.bn_beta",
            "bc1.w_x", "bc1.w_y", "bc1.bias", "bc1.bn_gamma", "bc1.bn_beta",
            *mlp("agg2.mlp1.", 2, 3),
            *mlp("agg2.mlp2.", 2, 3),
            *mlp("head.", 1, 2),
        ]
        assert len(model.parameters()) == 56
        assert mlp("head.", 1, 2) == [
            "head.layer0.weight", "head.layer0.bias", "head.layer0.bn_gamma", "head.layer0.bn_beta",
            "head.layer1.weight", "head.layer1.bias",
        ]
        assert list(model.norm_states()) == [
            "agg1.mlp1.layer0.bn", "agg1.mlp1.layer1.bn",
            "agg1.mlp2.layer0.bn", "agg1.mlp2.layer1.bn",
            "bc0.bn", "bc1.bn",
            "agg2.mlp1.layer0.bn", "agg2.mlp1.layer1.bn",
            "agg2.mlp2.layer0.bn", "agg2.mlp2.layer1.bn",
            "head.layer0.bn",
        ]

    def test_same_seed_bitwise_identical(self):
        a = build_model(pixel_s_config(), RngState(42))
        b = build_model(pixel_s_config(), RngState(42))
        for (name_a, pa), (name_b, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_model(pixel_s_config(), RngState(42))
        b = build_model(pixel_s_config(), RngState(43))
        same = all(
            np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters().values(), b.parameters().values())
        )
        assert not same


class TestParamCount:
    def test_single_linear_layer(self):
        from pinset.blocks import MlpSpec
        from pinset.models import AggregationSpec, ModelConfig

        cfg = ModelConfig(
            input_width=3,
            class_count=0,
            aggregation=AggregationSpec(
                mlp1=MlpSpec([3, 10], final_activation="none", use_batchnorm=False),
                mlp2=MlpSpec([3, 10], final_activation="none", use_batchnorm=False),
            ),
        )
        report = param_count(cfg)
        assert dict(report.rows)["agg1.mlp1.layer0.linear"] == 40  # 3*10 + 10

    def test_counts_match_built_parameters(self):
        for name, fn in PRESETS.items():
            cfg = fn()
            computed = param_count(cfg).total
            actual = sum(p.data.size for p in build_model(cfg, RngState(0)).parameters().values())
            assert computed == actual, name

    def test_factorization_totals_within_two_percent(self):
        for pair in TABLE_FACTORIZATIONS:
            report = param_count(point_ablation_config(*pair))
            expected = TABLE_TOTALS_K[pair] * 1000
            assert abs(report.total / expected - 1) < 0.02, pair

    def test_alternate_convention_matches_published_rounding(self):
        # counting scale/shift on the final layers reproduces the published
        # thousands-rounded totals exactly
        for pair in TABLE_FACTORIZATIONS:
            report = param_count(point_ablation_config(*pair))
            assert round(report.total_with_final_norm / 1000, 1) == TABLE_TOTALS_K[pair], pair

    def test_totals_strictly_decreasing_across_sweep(self):
        totals = [param_count(point_ablation_config(*pair)).total for pair in TABLE_FACTORIZATIONS]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_square_factorization_value(self):
        assert param_count(point_ablation_config(32, 32)).total == 17_792

    def test_preset_size_targets(self):
        assert abs(param_count(pixel_s_config()).total / 280_000 - 1) < 0.10
        assert abs(param_count(pixel_l_config()).total / 1_130_000 - 1) < 0.10

    def test_gradcheck_preset_under_1k(self):
        assert param_count(gradcheck_config()).total <= 1000


class TestEndToEndInvariance:
    @pytest.mark.parametrize("cfg_fn", [pixel_s_config, quadrant_config, digits_config])
    def test_logits_invariant_under_permutation(self, cfg_fn):
        cfg = cfg_fn()
        model = build_model(cfg, RngState(6))
        gen = RngState(7).generator()
        for _ in range(20):
            x = gen.uniform(-1, 1, size=(48, cfg.input_width))
            perm = gen.permutation(48)
            a = model.forward(x[None], "eval").data
            b = model.forward(x[perm][None], "eval").data
            assert np.max(np.abs(a - b)) < 1e-12


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg_fn", list(PRESETS.values()))
    def test_flat_round_trip(self, cfg_fn):
        cfg = cfg_fn()
        restored = config_from_flat(config_to_flat(cfg))
        assert config_to_flat(restored) == config_to_flat(cfg)

    def test_every_field_survives_round_trip(self):
        # each spec differs from the others, so a value written once for
        # several blocks shows up as a difference
        def mlp(dims, final, batchnorm=True, bias=True):
            return MlpSpec(dims, final, use_batchnorm=batchnorm, use_bias=bias)

        cfg = ModelConfig(
            input_width=3,
            class_count=4,
            aggregation=AggregationSpec(
                mlp([3, 5, 2], "softmax_set", batchnorm=False),
                mlp([3, 6, 3], "relu", bias=False),
                dropout_ratio=0.25,
            ),
            broadcasts=[5, 7],
            aggregation2=AggregationSpec(
                mlp([7, 4, 2], "squashing"),
                mlp([7, 3, 3], "none", batchnorm=False, bias=False),
                dropout_ratio=0.5,
            ),
            head=mlp([6, 8, 4], "none", bias=False),
        )
        aggs = [cfg.aggregation, cfg.aggregation2]
        specs = [cfg, cfg.head, *aggs] + [m for a in aggs for m in (a.mlp1, a.mlp2)]
        for kind in (ModelConfig, AggregationSpec, MlpSpec):
            for f in dataclasses.fields(kind):
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                    continue
                default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
                values = [getattr(s, f.name) for s in specs if isinstance(s, kind)]
                assert any(v != default for v in values), f"{kind.__name__}.{f.name} left at default"
        assert config_from_flat(config_to_flat(cfg)) == cfg

    @pytest.mark.parametrize("activation", ["squashing", "rleu"])
    def test_bad_broadcast_activation_rejected(self, activation):
        flat = config_to_flat(pixel_l_config())
        flat["model.broadcasts.activation"] = activation
        with pytest.raises(ValueError, match="model.broadcasts.activation"):
            config_from_flat(flat)

    def test_second_aggregation_comes_only_with_broadcasts(self):
        cfg = pixel_l_config()
        for changes in ({"broadcasts": []}, {"aggregation2": None}):
            with pytest.raises(ValueError, match="come only together"):
                dataclasses.replace(cfg, **changes)
        flat = config_to_flat(cfg)
        del flat["model.broadcasts.widths"]
        with pytest.raises(ValueError, match="come only together"):
            config_from_flat(flat)

    def test_second_aggregation_reads_the_last_broadcast_width(self):
        with pytest.raises(ValueError, match="expects width 256, broadcast chain emits 128"):
            dataclasses.replace(pixel_l_config(), broadcasts=[256, 128])


class TestCheckpointRebuild:
    def test_forward_outputs_bitwise_identical(self, tmp_path):
        cfg = quadrant_config()
        model = build_model(cfg, RngState(8))
        # make running stats nontrivial before saving
        x = RngState(9).generator().uniform(-1, 1, size=(4, 32, 2))
        model.forward(x, "train", RngState(10).generator())
        state = OptimizerState()
        state.buffers = {name: np.ones_like(p.data) for name, p in model.parameters().items()}
        path = os.path.join(tmp_path, "model.dmpp")
        save_checkpoint(path, model, state, epoch=3, rng=RngState(8))

        restored, opt, epoch, meta = load_checkpoint(path)
        assert epoch == 3
        probe = RngState(11).generator().uniform(-1, 1, size=(2, 32, 2))
        a = model.forward(probe, "eval").data
        b = restored.forward(probe, "eval").data
        np.testing.assert_array_equal(a, b)
        for name, buf in state.buffers.items():
            np.testing.assert_array_equal(opt.buffers[name], buf)


def _records(raw: bytes) -> dict:
    """Every tensor record of a checkpoint, by name, read by the
    documented layout."""
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    pos = 16 + meta_len
    (count,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    out = {}
    for _ in range(count):
        (length,) = struct.unpack_from("<Q", raw, pos)
        name = raw[pos + 8 : pos + 8 + length].decode()
        pos += 8 + length
        (rank,) = struct.unpack_from("<Q", raw, pos)
        shape = struct.unpack_from(f"<{rank}Q", raw, pos + 8)
        pos += 8 + 8 * rank
        out[name] = np.frombuffer(raw, dtype="<f8", count=math.prod(shape), offset=pos).reshape(shape)
        pos += 8 * math.prod(shape)
    return out


def _op(node: Tensor) -> str:
    """The tape op that made ``node``: its backward's enclosing function."""
    return node._backward.__qualname__.split(".")[0]


class TestBroadcastWeights:
    """Broadcast weights are held (in, out), like every dense layer, and
    their checkpoint records hold them as the model does."""

    def test_checkpoint_records_are_stored_as_held(self, tmp_path):
        images = RngState(1).generator().integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
        batch = pixel_set_batch(images, np.array([0, 1, 2, 3]), None, downsample=4)
        model = build_model(pixel_l_config(), RngState(0).child("model"))
        train(model, batch, batch, TrainConfig(epochs=1, batch_size=4), RngState(2), out_dir=tmp_path)
        raw = (tmp_path / "checkpoint.dmpp").read_bytes()
        records = _records(raw)
        restored, optimizer, epoch, _ = load_checkpoint(tmp_path / "checkpoint.dmpp")

        trained, params = model.parameters(), restored.parameters()
        for name, shape in (("bc0.w_x", (3, 256)), ("bc0.w_y", (1024, 256)), ("bc1.w_x", (256, 256))):
            held = trained[name].data
            assert held.shape == shape and held.flags.c_contiguous, name
            assert records[f"param.{name}"].tobytes() == held.tobytes(), name
            assert records[f"momentum.{name}"].tobytes() == optimizer.buffers[name].tobytes(), name
            assert records[f"momentum.{name}"].shape == records[f"param.{name}"].shape == shape, name
            np.testing.assert_array_equal(params[name].data, held)

        again = tmp_path / "again.dmpp"
        save_checkpoint(again, restored, optimizer, epoch, RngState(2))
        assert again.read_bytes() == raw

    def test_weights_reach_their_gemm_without_a_copy(self):
        model = build_model(pixel_l_config(), RngState(3))
        gen = RngState(4).generator()
        logits = model.forward(gen.uniform(-1, 1, size=(4, 49, 3)), "train", gen)
        nodes = [n for n in _reachable(logits) if n._backward is not None]
        assert len(model.broadcast_layers) == 2
        for block in model.broadcast_layers:
            (bn_node,) = [n for n in nodes if any(p is block.bn.gamma for p in n._parents)]
            assert _op(bn_node) == "batchnorm"
            assert any(p is block.w_x for p in bn_node._parents)
            assert any(_op(n) == "matmul" and any(p is block.w_y for p in n._parents) for n in nodes)


@pytest.mark.parametrize(
    "config, total, reshapes",
    [(quadrant_config, 14, 3), (pixel_s_config, 16, 3), (pixel_l_config, 35, 6), (gradcheck_config, 13, 3)],
    ids=["quadrant", "pixel-s", "pixel-l", "gradcheck"],
)
def test_train_step_tape_nodes_by_op(config, total, reshapes):
    # each aggregation reshapes its two MLP outputs into sets and flattens
    # the joined feature; on pixel-l, agg2 reads the broadcast rows as
    # they are stacked
    cfg = config()
    model = build_model(cfg, RngState(5))
    gen = RngState(6).generator()
    sets = gen.uniform(-1, 1, size=(2, 32, cfg.input_width))
    loss = softmax_cross_entropy(model.forward(sets, "train", gen), gen.integers(0, cfg.class_count, size=2))
    ops = [_op(n) for n in _reachable(loss) if n._backward is not None]
    assert (len(ops), ops.count("reshape")) == (total, reshapes), sorted(ops)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_element_array_is_column_major(preset, monkeypatch):
    # one train step and one blocked eval chunk: every (rows, width) array
    # an op makes from the elements, and every gradient the train step's
    # backward hands on for one, keeps the rows of each column contiguous.
    # The raw sets' flattening is a reshape, a view that the model copies
    # column-major once, so reshape outputs are left out
    b, n = 3, 33
    made = []
    result = tensor_mod._result

    def recording(data, parents, backward_fn):
        if "reshape" not in backward_fn.__qualname__:
            made.append(data)
        return result(data, parents, backward_fn)

    monkeypatch.setattr(tensor_mod, "_result", recording)
    monkeypatch.setattr(train_mod, "EVAL_BLOCK_ROWS", 2 * n)  # two blocks of whole sets
    cfg = PRESETS[preset]()
    model = build_model(cfg, RngState(7))
    gen = RngState(8).generator()
    sets = gen.uniform(-1, 1, size=(b, n, cfg.input_width))
    loss = softmax_cross_entropy(model.forward(sets, "train", gen), gen.integers(0, cfg.class_count, size=b))
    handed_on = []

    def keeping(g, own):
        contributions = list(own(g))
        handed_on.extend(grad for _, grad in contributions)
        return contributions

    for node in _reachable(loss):
        if node._backward is not None:
            node._backward = functools.partial(keeping, own=node._backward)
    backward(loss, list(model.parameters().values()))
    with no_grad():
        train_mod._chunk_logits(model, sets)
    element = [a for a in made + handed_on if a.ndim == 2 and a.shape[0] % n == 0]
    assert len(element) > 10
    assert all(a.mT.flags.c_contiguous for a in element), [(a.shape, a.strides) for a in element]
