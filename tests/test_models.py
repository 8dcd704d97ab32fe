import os

import numpy as np
import pytest

from pinset.models import (
    PRESETS,
    TABLE_FACTORIZATIONS,
    BroadcastSpec,
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
        x = RngState(1).generator().uniform(-1, 1, size=(784, 3))
        logits = model.forward(x, "eval")
        assert logits.data.shape == (10,)

    def test_point_config_feature_length(self):
        model = build_model(point_ablation_config(32, 32), RngState(2))
        x = RngState(3).generator().uniform(-1, 1, size=(1024, 6))
        feature = model.forward(x, "eval")
        assert feature.data.shape == (1024,)

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
            a = model.forward(x, "eval").data
            b = model.forward(x[perm], "eval").data
            assert np.max(np.abs(a - b)) < 1e-12


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cfg_fn", list(PRESETS.values()))
    def test_flat_round_trip(self, cfg_fn):
        cfg = cfg_fn()
        restored = config_from_flat(config_to_flat(cfg))
        assert config_to_flat(restored) == config_to_flat(cfg)

    @pytest.mark.parametrize("activation", ["squashing", "rleu"])
    def test_bad_broadcast_activation_rejected(self, activation):
        with pytest.raises(ValueError, match="broadcast activation"):
            BroadcastSpec(256, activation=activation)
        flat = config_to_flat(pixel_l_config())
        flat["model.broadcasts.activation"] = activation
        with pytest.raises(ValueError, match="broadcast activation"):
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
