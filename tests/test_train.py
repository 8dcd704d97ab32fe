import gc
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from pinset import cli
from pinset import models as models_mod
from pinset import tensor as tensor_mod
from pinset import train as train_mod
from pinset.config import ConfigError, validate
from pinset.data import SetBatch, SyntheticTaskSpec, make_synthetic_task
from pinset.models import build_model, gradcheck_config, quadrant_config
from pinset.rng import RngState
from pinset.tensor import Tensor, backward, softmax_cross_entropy
from pinset.train import (
    CONFIG_KEYS,
    CheckpointError,
    DivergenceError,
    OptimizerState,
    TrainConfig,
    evaluate,
    load_checkpoint,
    metrics_csv,
    save_checkpoint,
    sgd_step,
    train,
)


def _scalar_param(value):
    return {"w": Tensor(np.array([[value]]), requires_grad=True)}


class TestSgdStep:
    def test_zero_gradient_zero_decay_is_noop(self):
        params = _scalar_param(1.5)
        state = OptimizerState(weight_decay=0.0, lr=0.1)
        sgd_step(params, {"w": np.zeros((1, 1))}, state)
        np.testing.assert_array_equal(params["w"].data, [[1.5]])

    def test_hand_step(self):
        params = _scalar_param(1.0)
        state = OptimizerState(weight_decay=0.0, lr=0.1)
        sgd_step(params, {"w": np.array([[1.0]])}, state)
        np.testing.assert_allclose(params["w"].data, [[0.9]])

    def test_momentum_accumulates(self):
        params = _scalar_param(1.0)
        state = OptimizerState(weight_decay=0.0, lr=0.1, momentum=0.9)
        sgd_step(params, {"w": np.array([[1.0]])}, state)
        first = 1.0 - params["w"].data[0, 0]
        before = params["w"].data[0, 0]
        sgd_step(params, {"w": np.array([[1.0]])}, state)
        second = before - params["w"].data[0, 0]
        assert second > first  # buffer: 1.0 then 1.9
        np.testing.assert_allclose(second, 0.19)

    def test_updates_in_place_and_leaves_gradients_alone(self):
        params = _scalar_param(1.0)
        weights = params["w"].data
        state = OptimizerState(weight_decay=0.0, lr=0.1, momentum=0.9)
        grad = np.array([[1.0]])
        sgd_step(params, {"w": grad}, state)
        buffer = state.buffers["w"]
        sgd_step(params, {"w": grad}, state)
        assert params["w"].data is weights and state.buffers["w"] is buffer
        np.testing.assert_array_equal(grad, [[1.0]])
        np.testing.assert_allclose(buffer, [[1.9]])

    def test_weight_decay_enters_gradient(self):
        params = _scalar_param(2.0)
        state = OptimizerState(weight_decay=0.5, lr=0.1)
        sgd_step(params, {"w": np.zeros((1, 1))}, state)
        np.testing.assert_allclose(params["w"].data, [[2.0 - 0.1 * 1.0]])

    def test_decay_shrinks_norms_monotonically(self):
        gen = RngState(0).generator()
        params = {"w": Tensor(gen.uniform(-1, 1, size=(4, 3)), requires_grad=True)}
        state = OptimizerState(weight_decay=0.1, lr=0.1)
        zeros = {"w": np.zeros((4, 3))}
        norms = [np.linalg.norm(params["w"].data)]
        for _ in range(20):
            sgd_step(params, zeros, state)
            norms.append(np.linalg.norm(params["w"].data))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_shape_mismatch(self):
        params = _scalar_param(1.0)
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, {"w": np.zeros(3)}, OptimizerState())


class TestLrSchedule:
    def test_single_drop(self):
        cfg = TrainConfig(lr=0.01, lr_drop_epoch=200)
        assert cfg.lr_at(0) == 0.01
        assert cfg.lr_at(199) == 0.01
        assert cfg.lr_at(200) == pytest.approx(0.001)
        assert cfg.lr_at(500) == pytest.approx(0.001)

    def test_optional_warmup(self):
        cfg = TrainConfig(lr=0.01, lr_drop_epoch=220, warmup_epochs=20)
        assert cfg.lr_at(0) == pytest.approx(0.0005)
        assert cfg.lr_at(19) == pytest.approx(0.01)
        assert cfg.lr_at(21) == pytest.approx(0.01)


def _tiny_task(train_size=64, test_size=32, seed=5):
    return make_synthetic_task(
        SyntheticTaskSpec(train_size=train_size, test_size=test_size, seed=seed)
    )


class TestTrainLoop:
    def test_zero_epochs_returns_unchanged_model(self):
        train_b, test_b = _tiny_task()
        model = build_model(quadrant_config(), RngState(1))
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        history = train(model, train_b, test_b, TrainConfig(epochs=0), RngState(2))
        assert history == []
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    @pytest.mark.parametrize("field, value", [("batch_size", 1), ("batch_size", 0), ("batch_size", -4), ("epochs", -1)])
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^train\.{field} must be >= (2|0), got {value}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("optimizer.lr", -1.0),
            ("optimizer.lr", 0.0),
            ("optimizer.lr", float("nan")),
            ("optimizer.momentum", 1.0),
            ("optimizer.momentum", float("inf")),
            ("optimizer.weight_decay", -1e-4),
            ("optimizer.weight_decay", float("inf")),
        ],
    )
    def test_bad_optimizer_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got {value}$") as info:
            TrainConfig(**{CONFIG_KEYS[key]: value})
        assert info.value.key == key

    def test_schema_defaults_are_the_record_defaults(self):
        cfg = validate({"task": "quadrant", "model.preset": "quadrant"}, cli.TRAIN_SCHEMA)
        assert TrainConfig(**{name: cfg[key] for key, name in CONFIG_KEYS.items()}) == TrainConfig()
        optimizer = {key: cfg[f"optimizer.{key}"] for key in ("lr", "momentum", "weight_decay")}
        assert OptimizerState() == OptimizerState(**optimizer)

    def test_divergence_in_the_last_step_is_caught_by_the_evaluation(self, tmp_path):
        # one step per epoch: its loss is finite, its update is not
        train_b, test_b = _tiny_task(train_size=32)
        model = build_model(quadrant_config(), RngState(6))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0, evaluation"):
            train(model, train_b, test_b, TrainConfig(epochs=1, lr=1e300), RngState(7), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("train_size, test_size", [(1, 32), (0, 32), (64, 0)])
    def test_too_few_sets_rejected_before_training(self, train_size, test_size):
        train_b, test_b = _tiny_task(train_size=train_size, test_size=test_size)
        model = build_model(quadrant_config(), RngState(1))
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        with pytest.raises(ValueError, match="at least 2 sets|gives no test sets"):
            train(model, train_b, test_b, TrainConfig(epochs=1), RngState(2))
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_a_last_batch_of_one_set_is_skipped(self, monkeypatch):
        # 5 sets in batches of 2: the last batch holds one set, which the
        # head's normalization cannot take, so the epoch steps on 4 sets
        train_b, test_b = _tiny_task(train_size=5)
        model = build_model(quadrant_config(), RngState(1))
        steps, losses = [], []
        real_step, real_loss = train_mod.sgd_step, train_mod.softmax_cross_entropy

        def counting_step(*args):
            steps.append(len(losses))
            real_step(*args)

        def recording_loss(logits, labels):
            loss = real_loss(logits, labels)
            losses.append((float(loss.data), labels.size))
            return loss

        monkeypatch.setattr(train_mod, "sgd_step", counting_step)
        monkeypatch.setattr(train_mod, "softmax_cross_entropy", recording_loss)
        history = train(model, train_b, test_b, TrainConfig(epochs=1, batch_size=2), RngState(2))
        # each step follows its own loss; the evaluation's loss comes after both
        assert steps == [1, 2]
        (row,) = [row for row in history if row["split"] == "train"]
        assert [size for _, size in losses[:2]] == [2, 2]
        assert row["loss"] == pytest.approx((losses[0][0] + losses[1][0]) / 2, rel=1e-12)
        assert (row["accuracy"] * 4).is_integer()

    def test_same_seed_bitwise_identical_history(self):
        train_b, test_b = _tiny_task()
        histories = []
        for _ in range(2):
            model = build_model(quadrant_config(), RngState(3))
            histories.append(
                train(model, train_b, test_b, TrainConfig(epochs=3), RngState(4))
            )
        assert histories[0] == histories[1] or all(
            {k: v for k, v in a.items() if k != "wall_seconds"}
            == {k: v for k, v in b.items() if k != "wall_seconds"}
            for a, b in zip(histories[0], histories[1])
        )

    def test_descent_after_one_small_step(self):
        # first-order check: a single small-lr step on a fixed batch does
        # not increase that batch's loss
        failures = 0
        for trial in range(100):
            rng = RngState(100 + trial)
            cfg = quadrant_config()
            cfg.aggregation.dropout_ratio = 0.0  # keep the fixed-batch loss deterministic
            model = build_model(cfg, rng.child("model"))
            gen = rng.child("data").generator()
            sets = gen.uniform(-1, 1, size=(8, 32, 2))
            labels = gen.integers(0, 4, size=8)
            params = model.parameters()

            def batch_loss(mode):
                logits = model.forward(sets, mode)
                return softmax_cross_entropy(logits, labels)

            loss = batch_loss("train")
            grad_map = backward(loss, list(params.values()))
            grads = {name: grad_map[p] for name, p in params.items()}
            state = OptimizerState(lr=1e-3)
            sgd_step(params, grads, state)
            after = batch_loss("train")
            failures += float(after.data) > float(loss.data)
        assert failures == 0

    def test_divergence_aborts_with_location(self):
        train_b, test_b = _tiny_task()
        model = build_model(quadrant_config(), RngState(6))
        poisoned = next(iter(model.parameters().values()))
        poisoned.data = np.full_like(poisoned.data, np.nan)
        with pytest.raises(DivergenceError, match="epoch 0, batch 0"):
            train(model, train_b, test_b, TrainConfig(epochs=1), RngState(7))

    def test_checkpoint_written_and_roundtrips(self, tmp_path):
        train_b, test_b = _tiny_task()
        model = build_model(quadrant_config(), RngState(8))
        train(
            model,
            train_b,
            test_b,
            TrainConfig(epochs=2, checkpoint_every=1),
            RngState(9),
            out_dir=str(tmp_path),
        )
        assert (tmp_path / "checkpoint_epoch1.dmpp").exists()
        assert (tmp_path / "checkpoint_epoch2.dmpp").exists()
        restored, _, epoch, _ = load_checkpoint(tmp_path / "checkpoint.dmpp")
        assert epoch == 2
        a = evaluate(model, test_b)
        b = evaluate(restored, test_b)
        assert a == b


def _count_tape_nodes(monkeypatch) -> list:
    """Wrap ``tensor._result``; the returned list collects every node that
    records a backward."""
    taped = []
    result = tensor_mod._result

    def counting_result(*args):
        node = result(*args)
        if node._backward is not None:
            taped.append(node)
        return node

    monkeypatch.setattr(tensor_mod, "_result", counting_result)
    return taped


def _live_taped_tensors() -> int:
    """Tensors that still hold a tape: parents, and a backward function
    with the arrays its op saved. ``backward`` drops both as it passes a
    node."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._parents)


def _pixel_l_step(batch: int, set_size: int):
    """A fresh ``pixel-l`` model's train-mode loss on seeded sets, with
    its logits and parameters."""
    cfg = models_mod.pixel_l_config()
    model = build_model(cfg, RngState(40))
    gen = RngState(41).generator()
    sets = gen.uniform(-1, 1, size=(batch, set_size, cfg.input_width))
    labels = gen.integers(0, cfg.class_count, size=batch)
    logits = model.forward(sets, "train", gen)
    return softmax_cross_entropy(logits, labels), logits, list(model.parameters().values())


# the traced bytes that one pixel-l step at B=8, N=49 allocates in
# backward beyond what its forward holds: 13.9 MB while every saved array
# lived until backward returned, 5.7 MB freeing each node as it is passed
BACKWARD_PEAK_BOUND = 10e6


class TestTapeLifetime:
    def test_no_tape_alive_when_a_forward_or_evaluate_starts(self, monkeypatch):
        train_b, test_b = _tiny_task()
        model = build_model(models_mod.pixel_l_config(input_width=2, class_count=4), RngState(30))
        live = []  # (what was entered, taped tensors alive at entry)
        forward = models_mod.Model.forward
        evaluate_ = train_mod.evaluate

        def spying_forward(self, sets, mode="eval", gen=None):
            live.append((f"forward {mode}", _live_taped_tensors()))
            return forward(self, sets, mode, gen)

        def spying_evaluate(*args, **kwargs):
            live.append(("evaluate", _live_taped_tensors()))
            return evaluate_(*args, **kwargs)

        monkeypatch.setattr(models_mod.Model, "forward", spying_forward)
        monkeypatch.setattr(train_mod, "evaluate", spying_evaluate)
        train(model, train_b, test_b, TrainConfig(epochs=2, batch_size=16), RngState(31))
        entered = [what for what, _ in live]
        assert entered.count("forward train") == 2 * 4 and entered.count("evaluate") == 2
        assert [(what, n) for what, n in live if n] == []

    def test_backward_leaves_no_tape_while_the_caller_holds_loss_and_logits(self):
        loss, logits, params = _pixel_l_step(4, 32)
        assert _live_taped_tensors() > 0
        backward(loss, params)
        assert _live_taped_tensors() == 0
        assert logits.data.shape == (4, 10) and loss._parents == ()

    def test_backward_frees_every_saved_relu_mask(self):
        loss, _, params = _pixel_l_step(4, 32)
        masks = []  # weak references to the mask each batchnorm's backward closes over
        for node in tensor_mod._reachable(loss):
            names = node._backward.__code__.co_freevars if node._backward is not None else ()
            if "mask" in names:
                masks.append(weakref.ref(node._backward.__closure__[names.index("mask")].cell_contents))
        assert len(masks) == 11  # one per train-mode batchnorm
        backward(loss, params)
        gc.collect()
        assert [mask for mask in masks if mask() is not None] == []

    def test_backward_peak_above_the_forward_stays_under_bound(self):
        loss, _, params = _pixel_l_step(8, 49)
        backward(loss, params)  # keeps first-call allocations out of the count
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            loss, _, params = _pixel_l_step(8, 49)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - held < BACKWARD_PEAK_BOUND, f"{(peak - held) / 1e6:.1f} MB above the forward"


class TestEvaluate:
    def test_builds_no_tape(self, monkeypatch):
        train_b, test_b = _tiny_task()
        model = build_model(quadrant_config(), RngState(32))
        train(model, train_b, test_b, TrainConfig(epochs=1), RngState(33))
        taped = _count_tape_nodes(monkeypatch)
        # the same evaluate records a tape once eval_logits loses its no_grad decorator
        eval_logits = models_mod.Model.eval_logits
        monkeypatch.setattr(models_mod.Model, "eval_logits", eval_logits.__wrapped__)
        recording = evaluate(model, test_b, chunk=16)
        assert len(taped) > 0
        del taped[:]
        monkeypatch.setattr(models_mod.Model, "eval_logits", eval_logits)
        assert evaluate(model, test_b, chunk=16) == recording
        assert len(taped) == 0, f"evaluate recorded {len(taped)} tape nodes"

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected_before_any_forward(self, monkeypatch, chunk):
        # chunk=-1 used to skip every chunk and report accuracy 0 over the
        # whole batch; chunk=0 ended in range()'s own error
        model = build_model(quadrant_config(), RngState(36))
        sets = RngState(37).generator().uniform(-1, 1, size=(8, 16, 2))
        calls = []
        monkeypatch.setattr(model, "features", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="chunk must be at least 1"):
            evaluate(model, SetBatch(sets=sets, labels=np.zeros(8, dtype=int)), chunk=chunk)
        assert calls == []

    def test_recording_resumes_after_a_rejected_label(self):
        model = build_model(quadrant_config(), RngState(34))
        sets = RngState(35).generator().uniform(-1, 1, size=(3, 16, 2))
        with pytest.raises(ValueError, match="out of range"):
            evaluate(model, SetBatch(sets=sets, labels=[0, 7, 3]))
        logits = model.forward(sets, "eval")
        assert logits._backward is not None and logits.requires_grad

    def test_constant_predictor_on_balanced_ten_classes(self):
        from pinset.models import digits_config

        gen = RngState(10).generator()
        sets = gen.uniform(-1, 1, size=(50, 32, 3))
        labels = np.repeat(np.arange(10), 5)
        batch = SetBatch(sets=sets, labels=labels)
        model = build_model(digits_config(), RngState(11))
        for p in model.parameters().values():
            p.data = np.zeros_like(p.data)  # constant logits -> argmax 0
        metrics = evaluate(model, batch)
        assert metrics["accuracy"] == 0.1
        assert metrics["error_rate"] == 0.9
        assert metrics["per_class_accuracy"][0] == 1.0
        assert metrics["per_class_accuracy"][1] == 0.0

    def test_class_without_test_sets_has_no_accuracy(self):
        # None, not NaN, so that `pinset eval` prints strict JSON
        from pinset.models import digits_config

        gen = RngState(12).generator()
        batch = SetBatch(sets=gen.uniform(-1, 1, size=(4, 32, 3)), labels=np.array([0, 1, 1, 3]))
        metrics = evaluate(build_model(digits_config(), RngState(11)), batch)
        per_class = metrics["per_class_accuracy"]
        assert [c for c, v in enumerate(per_class) if v is None] == [2, 4, 5, 6, 7, 8, 9]
        json.dumps(metrics, allow_nan=False)

    def test_perfect_oracle_stub(self):
        class Oracle:
            # evaluate runs the model's eval_logits, which reads the
            # features of each block, and the head on them
            head = None
            eval_logits = models_mod.Model.eval_logits

            class config:
                class_count = 4

            def features(self, sets, mode, gen=None):
                data = sets.data if isinstance(sets, Tensor) else sets
                logits = np.zeros((data.shape[0], 4))
                labels = data[:, 0, 0].astype(int)
                logits[np.arange(data.shape[0]), labels] = 1.0
                return Tensor(logits)

        gen = RngState(12).generator()
        labels = gen.integers(0, 4, size=30)
        sets = gen.uniform(-1, 1, size=(30, 5, 2))
        sets[:, 0, 0] = labels
        metrics = evaluate(Oracle(), SetBatch(sets=sets, labels=labels))
        assert metrics["accuracy"] == 1.0
        assert metrics["correct"] == 30

    @pytest.mark.parametrize("bad", [4, 9, -1])
    def test_label_outside_class_range_rejected(self, bad):
        model = build_model(quadrant_config(), RngState(17))
        sets = RngState(18).generator().uniform(-1, 1, size=(3, 16, 2))
        batch = SetBatch(sets=sets, labels=[0, bad, 3])
        with pytest.raises(ValueError, match=rf"^label {bad} is out of range for 4 classes$"):
            evaluate(model, batch)

    def test_empty_dataset_rejected(self):
        model = build_model(quadrant_config(), RngState(13))
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, SetBatch(sets=np.zeros((0, 4, 2)), labels=np.zeros(0)))

    def test_accuracy_invariant_under_set_permutation(self):
        train_b, test_b = _tiny_task()
        model = build_model(quadrant_config(), RngState(14))
        train(model, train_b, test_b, TrainConfig(epochs=1), RngState(15))
        gen = RngState(16).generator()
        permuted = test_b.sets.copy()
        for i in range(permuted.shape[0]):
            permuted[i] = permuted[i][gen.permutation(permuted.shape[1])]
        a = evaluate(model, test_b)
        b = evaluate(model, SetBatch(sets=permuted, labels=test_b.labels.copy()))
        assert a["accuracy"] == b["accuracy"]
        assert a["correct"] == b["correct"]


def _random_statistics(model, gen) -> None:
    """Running statistics far from the initial (0, 1), so the eval-mode
    fold changes every element layer."""
    for st in model.norm_states().values():
        st.mean = gen.normal(0.0, 0.3, st.mean.shape)
        st.var = gen.uniform(0.5, 2.0, st.var.shape)


def _count_features_calls(monkeypatch) -> list:
    """Wrap ``Model.features``; the returned list collects the set count
    of every call."""
    seen = []
    features = models_mod.Model.features

    def counting_features(self, sets, mode="eval", gen=None):
        seen.append(len(sets))
        return features(self, sets, mode, gen)

    monkeypatch.setattr(models_mod.Model, "features", counting_features)
    return seen


class TestBlockedEvaluate:
    @pytest.mark.parametrize(
        "make_config, size, chunk",
        [
            # chunks of 256 sets (7 blocks of 36-37) and 44 (2 blocks of 22)
            (models_mod.pixel_s_config, 300, 256),
            # chunks of 64 sets (2 blocks of 32) and 43 (2 blocks of 22 and 21)
            (models_mod.pixel_l_config, 107, 64),
        ],
    )
    def test_same_bits_as_one_forward_per_chunk(self, make_config, size, chunk, monkeypatch):
        model = build_model(make_config(), RngState(50))
        gen = RngState(51).generator()
        _random_statistics(model, gen)
        batch = SetBatch(sets=gen.uniform(-1, 1, size=(size, 196, 3)), labels=gen.integers(0, 10, size=size))
        for start in range(0, size, chunk):
            sets = batch.sets[start : start + chunk]
            assert sets.shape[0] * 196 > train_mod.EVAL_BLOCK_ROWS
            with tensor_mod.no_grad():
                blocked = model.eval_logits(sets, train_mod.EVAL_BLOCK_ROWS).data
                whole = model.forward(sets, "eval").data
            np.testing.assert_array_equal(blocked, whole)
        taped = _count_tape_nodes(monkeypatch)
        metrics = evaluate(model, batch, chunk=chunk)
        assert taped == []
        # the same function with every chunk one forward and one loss
        monkeypatch.setattr(train_mod, "EVAL_BLOCK_ROWS", size * 196)
        assert metrics == evaluate(model, batch, chunk=chunk)

    @pytest.mark.parametrize("size, calls", [(256, 1), (257, 2)])
    def test_a_chunk_of_block_rows_is_one_features_call(self, size, calls, monkeypatch):
        # quadrant sets of 32 points: 256 sets are exactly EVAL_BLOCK_ROWS rows
        model = build_model(quadrant_config(), RngState(52))
        gen = RngState(53).generator()
        batch = SetBatch(sets=gen.uniform(-1, 1, size=(size, 32, 2)), labels=gen.integers(0, 4, size=size))
        seen = _count_features_calls(monkeypatch)
        evaluate(model, batch, chunk=size)
        assert 256 * 32 == train_mod.EVAL_BLOCK_ROWS and len(seen) == calls and sum(seen) == size

    def test_sets_longer_than_a_block_are_one_features_call_each(self, monkeypatch):
        # 2 sets of 10,000 points are 20,000 rows, about 3 blocks' worth,
        # but blocks are whole sets: 2 calls of one set, none empty
        model = build_model(quadrant_config(), RngState(54))
        gen = RngState(55).generator()
        batch = SetBatch(sets=gen.uniform(-1, 1, size=(2, 10_000, 2)), labels=gen.integers(0, 4, size=2))
        seen = _count_features_calls(monkeypatch)
        evaluate(model, batch)
        assert seen == [1, 1]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


# Runs in a fresh process: in this one, earlier tests have already grown
# glibc's dynamic thresholds, which hides the faults the setting removes.
_FAULT_PROBE = """
import resource

from pinset.data import SyntheticTaskSpec, make_synthetic_task
from pinset.models import build_model, quadrant_config
from pinset.rng import RngState
from pinset.tensor import backward, softmax_cross_entropy
from pinset.train import OptimizerState, evaluate, sgd_step

train_b, test_b = make_synthetic_task(SyntheticTaskSpec(set_size=32, train_size=128, test_size=256, seed=40))
model = build_model(quadrant_config(), RngState(41))
params = model.parameters()
param_list = list(params.values())
state = OptimizerState()
gen = RngState(42).generator()


def steps_and_evaluate():
    for start in range(0, train_b.size, 32):
        logits = model.forward(train_b.sets[start : start + 32], "train", gen)
        grad_map = backward(softmax_cross_entropy(logits, train_b.labels[start : start + 32]), param_list)
        sgd_step(params, {name: grad_map[p] for name, p in params.items()}, state)
    evaluate(model, test_b)


steps_and_evaluate()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps_and_evaluate()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator setting in pinset.tensor applies only to glibc")
def test_warm_steps_and_evaluate_fault_in_no_fresh_pages():
    """Freed arrays stay in the heap (``tensor._keep_freed_memory``), so
    warm train steps and eval chunks reuse their pages. Without the
    setting, 4 quadrant steps and a 256-set evaluate take about 480
    minor faults."""
    src = os.path.dirname(os.path.dirname(tensor_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    faults = int(result.stdout)
    assert faults < 64, f"4 warm train steps and a 256-set evaluate took {faults} minor page faults"


class TestMetricsCsv:
    def test_header_and_roundtrip_floats(self):
        rows = [
            {
                "epoch": 0,
                "split": "train",
                "loss": 1.2345678901234567,
                "accuracy": 0.5,
                "error_rate": 0.5,
                "lr": 0.01,
                "wall_seconds": 0.25,
            }
        ]
        text = metrics_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,split,loss,accuracy,error_rate,lr,wall_seconds"
        loss_field = lines[1].split(",")[2]
        assert float(loss_field) == rows[0]["loss"]


def _checkpoint_parts(tmp_path, momentum=True):
    """Metadata bytes and named tensors of a saved gradcheck-preset model
    with non-trivial running statistics, plus the saved file's bytes."""
    model = build_model(gradcheck_config(), RngState(20))
    model.forward(RngState(21).generator().uniform(-1, 1, size=(4, 12, 3)), "train")
    state = OptimizerState()
    if momentum:
        state.buffers = {name: np.full_like(p.data, 0.5) for name, p in model.parameters().items()}
    path = tmp_path / "gradcheck.dmpp"
    save_checkpoint(path, model, state, epoch=2, rng=RngState(20))
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    tensors = [(f"param.{name}", p.data) for name, p in model.parameters().items()]
    for name, st in model.norm_states().items():
        tensors += [(f"norm.{name}.mean", st.mean), (f"norm.{name}.var", st.var)]
    tensors += [(f"momentum.{name}", buf) for name, buf in state.buffers.items()]
    return raw[16 : 16 + meta_len], tensors, raw


def _container(meta: bytes, tensors, version=train_mod.CHECKPOINT_VERSION) -> bytes:
    """A checkpoint file in the documented layout, built independently of
    save_checkpoint."""
    buf = io.BytesIO()
    buf.write(b"DMPP" + struct.pack("<IQ", version, len(meta)) + meta + struct.pack("<Q", len(tensors)))
    for name, arr in tensors:
        encoded = name.encode()
        buf.write(struct.pack("<Q", len(encoded)) + encoded)
        buf.write(struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape))
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return buf.getvalue()


class TestCheckpointFile:
    def test_layout_matches_the_documented_format(self, tmp_path):
        meta, tensors, raw = _checkpoint_parts(tmp_path)
        assert raw == _container(meta, tensors)

    def test_save_leaves_only_the_target(self, tmp_path):
        _checkpoint_parts(tmp_path)
        assert os.listdir(tmp_path) == ["gradcheck.dmpp"]

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_save_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch, failing):
        _, _, before = _checkpoint_parts(tmp_path)

        def fail(*args):
            raise OSError(f"{failing} failed")

        monkeypatch.setattr(train_mod.os, failing, fail)
        with pytest.raises(OSError, match=f"{failing} failed"):
            save_checkpoint(tmp_path / "gradcheck.dmpp", build_model(gradcheck_config(), RngState(22)))
        assert os.listdir(tmp_path) == ["gradcheck.dmpp"]
        assert (tmp_path / "gradcheck.dmpp").read_bytes() == before


class TestCheckpointErrors:
    """Every malformed checkpoint raises one CheckpointError, before any
    array is built from it."""

    def _load(self, tmp_path, payload: bytes, match: str):
        path = tmp_path / "damaged.dmpp"
        path.write_bytes(payload)
        with pytest.raises(CheckpointError, match=match) as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_intact_container_loads(self, tmp_path):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        path = tmp_path / "rebuilt.dmpp"
        path.write_bytes(_container(meta, tensors))
        model, optimizer, epoch, _ = load_checkpoint(path)
        assert epoch == 2 and len(optimizer.buffers) == len(model.parameters())

    def test_missing_optimizer_values_take_the_defaults(self, tmp_path):
        path = tmp_path / "no-optimizer.dmpp"
        save_checkpoint(path, build_model(gradcheck_config(), RngState(20)))
        _, optimizer, _, meta = load_checkpoint(path)
        assert not any(key.startswith("optimizer.") for key in meta)
        assert optimizer == OptimizerState()

    def test_text_file_and_wrong_version(self, tmp_path):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        self._load(tmp_path, b"hello, world\n", r"not a checkpoint \(magic b'hell'\)")
        for version in (1, 3):
            match = f"checkpoint version {version}, this pinset reads version 2"
            self._load(tmp_path, _container(meta, tensors, version=version), match)

    def test_length_fields_beyond_the_file(self, tmp_path):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        raw = _container(meta, tensors)
        huge = struct.pack("<Q", 2**63)
        self._load(tmp_path, raw[:8] + huge + raw[16:], "truncated: metadata needs 9223372036854775808 bytes")
        start = 16 + len(meta)
        self._load(tmp_path, raw[:start] + huge + raw[start + 8 :], "truncated: 9223372036854775808 tensors")
        name_len = start + 8
        self._load(tmp_path, raw[:name_len] + huge + raw[name_len + 8 :], "truncated: tensor name needs")
        rank = name_len + 8 + len(tensors[0][0])
        self._load(tmp_path, raw[:rank] + huge + raw[rank + 8 :], "truncated: shape of")
        self._load(tmp_path, raw[: rank + 8] + struct.pack("<Q", 2**40) + raw[rank + 16 :], "truncated: data of")

    def test_undecodable_or_unusable_metadata(self, tmp_path):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        self._load(tmp_path, _container(b"\xff" + meta, tensors), "metadata is not utf-8")
        self._load(tmp_path, _container(meta + b"no separator\n", tensors), "malformed metadata line 'no separator'")
        lines = meta.decode().splitlines(keepends=True)
        no_width = "".join(line for line in lines if not line.startswith("model.input_width "))
        self._load(tmp_path, _container(no_width.encode(), tensors), "metadata lacks key 'model.input_width'")
        bad_dims = meta.replace(b"model.agg.mlp1.dims = 3,", b"model.agg.mlp1.dims = x,")
        assert bad_dims != meta
        self._load(tmp_path, _container(bad_dims, tensors), "metadata does not describe a model")
        self._load(tmp_path, _container(meta + b"train.epoch = 7\n", tensors), "metadata key train.epoch appears twice")

    @pytest.mark.parametrize("line", ["model.broadcasts.activation = relu", "format.init = fanin_uniform"])
    def test_unread_metadata_key(self, tmp_path, line):
        # model.* keys are refused by config_from_flat, the rest by the reader
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        key = line.partition(" = ")[0]
        self._load(tmp_path, _container(meta + f"{line}\n".encode(), tensors), f"unknown (metadata )?key {key}$")

    def test_missing_extra_duplicate_and_trailing(self, tmp_path):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        self._load(tmp_path, _container(meta, tensors[1:]), f"1 tensors missing, first {tensors[0][0]}")
        self._load(tmp_path, _container(meta, tensors + [("param.spare", np.ones(2))]), "unexpected tensor param.spare")
        self._load(tmp_path, _container(meta, tensors + tensors[:1]), f"tensor {tensors[0][0]} appears twice")
        self._load(tmp_path, _container(meta, tensors) + b"\0", "1 unexpected bytes after the last tensor")

    @pytest.mark.parametrize("prefix", ["param.", "norm.", "momentum."])
    def test_shape_that_disagrees_with_the_config(self, tmp_path, prefix):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        i = next(i for i, (name, _) in enumerate(tensors) if name.startswith(prefix))
        name, arr = tensors[i]
        tensors[i] = (name, np.append(arr, 1.0))
        self._load(tmp_path, _container(meta, tensors), f"tensor {name} has shape \\({arr.size + 1},\\)")
