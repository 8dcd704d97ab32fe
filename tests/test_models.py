import dataclasses
import os
import struct

import numpy as np
import pytest

from pinset.blocks import MlpSpec
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
from pinset.rng import RngState
from pinset.tensor import Tensor
from pinset.train import OptimizerState, load_checkpoint, save_checkpoint

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
            task="synthetic",
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
        def mlp(dims, hidden, final, batchnorm=True, bias=True):
            return MlpSpec(dims, hidden, final, use_batchnorm=batchnorm, use_bias=bias)

        cfg = ModelConfig(
            task="point-classification",
            input_width=3,
            class_count=4,
            aggregation=AggregationSpec(
                mlp([3, 5, 2], "squashing", "softmax_set", batchnorm=False),
                mlp([3, 6, 3], "none", "relu", bias=False),
                dropout_ratio=0.25,
            ),
            broadcasts=[5, 7],
            aggregation2=AggregationSpec(
                mlp([7, 4, 2], "softmax_set", "squashing"),
                mlp([7, 3, 3], "relu", "none", batchnorm=False, bias=False),
                dropout_ratio=0.5,
            ),
            head=mlp([6, 8, 4], "squashing", "none", bias=False),
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model.agg.mlp1.batchnorm_final", "true"),
            ("model.agg.mlp1.classifier_tail", "true"),  # final_act is softmax_set
            ("model.broadcasts.batchnorm", "false"),
            ("model.broadcasts.activation", "none"),
        ],
    )
    def test_retired_option_values_refused(self, key, value):
        flat = config_to_flat(pixel_l_config())
        flat[key] = value
        with pytest.raises(ValueError, match="retired option"):
            config_from_flat(flat)


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

    def test_retired_metadata_keys_load_bit_identical(self, tmp_path):
        def mlp(width):
            return MlpSpec([width, 5, 3], final_activation="softmax_set")

        cfg = ModelConfig(
            task="synthetic",
            input_width=3,
            class_count=3,
            aggregation=AggregationSpec(mlp(3), mlp(3)),
            broadcasts=[4],
            aggregation2=AggregationSpec(mlp(4), mlp(4)),
            head=MlpSpec([9, 6, 3]),
        )
        model = build_model(cfg, RngState(12))
        x = RngState(13).generator().uniform(-1, 1, size=(4, 20, 3))
        model.forward(x, "train", RngState(14).generator())
        path = os.path.join(tmp_path, "model.dmpp")
        save_checkpoint(path, model, epoch=1, rng=RngState(12))

        # the keys earlier versions also wrote, at the values they held
        retired = {"model.broadcasts.batchnorm": "true", "model.broadcasts.activation": "relu"}
        for prefix in ("model.agg.mlp1", "model.agg.mlp2", "model.agg2.mlp1", "model.agg2.mlp2"):
            retired[f"{prefix}.batchnorm_final"] = "false"
            retired[f"{prefix}.classifier_tail"] = "false"
        retired["model.head.batchnorm_final"] = "false"
        retired["model.head.classifier_tail"] = "true"
        raw = open(path, "rb").read()
        (meta_len,) = struct.unpack("<Q", raw[8:16])
        meta = dict(line.split(" = ", 1) for line in raw[16 : 16 + meta_len].decode().splitlines())
        text = "".join(f"{k} = {v}\n" for k, v in sorted({**meta, **retired}.items())).encode()
        old_path = os.path.join(tmp_path, "old.dmpp")
        with open(old_path, "wb") as f:
            f.write(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + meta_len :])

        restored, _, _, old_meta = load_checkpoint(old_path)
        assert retired.items() <= old_meta.items()
        assert restored.config == cfg
        for (name, p), q in zip(model.parameters().items(), restored.parameters().values()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        for st, st2 in zip(model.norm_states().values(), restored.norm_states().values()):
            np.testing.assert_array_equal(st.mean, st2.mean)
            np.testing.assert_array_equal(st.var, st2.var)
        probe = RngState(15).generator().uniform(-1, 1, size=(3, 20, 3))
        np.testing.assert_array_equal(
            model.forward(probe, "eval").data, restored.forward(probe, "eval").data
        )
