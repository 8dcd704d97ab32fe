import gc
import io
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from pinset import models as models_mod
from pinset import tensor as tensor_mod
from pinset import train as train_mod
from pinset.data import SetBatch, SyntheticTaskSpec, make_synthetic_task
from pinset.models import build_model, gradcheck_config, quadrant_config
from pinset.rng import RngState
from pinset.tensor import Tensor, backward, softmax_cross_entropy
from pinset.train import (
    CheckpointError,
    DivergenceError,
    LrSchedule,
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
        sched = LrSchedule(0.01, drop_epoch=200)
        assert sched.rate(0) == 0.01
        assert sched.rate(199) == 0.01
        assert sched.rate(200) == pytest.approx(0.001)
        assert sched.rate(500) == pytest.approx(0.001)

    def test_optional_warmup(self):
        sched = LrSchedule(0.01, drop_epoch=220, warmup_epochs=20)
        assert sched.rate(0) == pytest.approx(0.0005)
        assert sched.rate(19) == pytest.approx(0.01)
        assert sched.rate(21) == pytest.approx(0.01)


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

    @pytest.mark.parametrize("train_size, test_size", [(1, 32), (0, 32), (64, 0)])
    def test_too_few_sets_rejected_before_training(self, train_size, test_size):
        train_b, test_b = _tiny_task(train_size=train_size, test_size=test_size)
        model = build_model(quadrant_config(), RngState(1))
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        with pytest.raises(ValueError, match="at least 2 sets|gives no test sets"):
            train(model, train_b, test_b, TrainConfig(epochs=1), RngState(2))
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

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
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._backward is not None)


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


class TestEvaluate:
    def test_builds_no_tape(self, monkeypatch):
        train_b, test_b = _tiny_task()
        model = build_model(quadrant_config(), RngState(32))
        train(model, train_b, test_b, TrainConfig(epochs=1), RngState(33))
        taped = _count_tape_nodes(monkeypatch)
        # the same function without its no_grad decorator records a tape
        recording = getattr(evaluate, "__wrapped__", evaluate)(model, test_b, chunk=16)
        assert len(taped) > 0
        del taped[:]
        assert evaluate(model, test_b, chunk=16) == recording
        assert len(taped) == 0, f"evaluate recorded {len(taped)} tape nodes"

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

    def test_perfect_oracle_stub(self):
        class Oracle:
            class config:
                class_count = 4

            def forward(self, sets, mode, gen=None):
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


def _container(meta: bytes, tensors, version=1) -> bytes:
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

    def test_text_file_and_wrong_version(self, tmp_path):
        meta, tensors, _ = _checkpoint_parts(tmp_path)
        self._load(tmp_path, b"hello, world\n", r"not a checkpoint \(magic b'hell'\)")
        self._load(tmp_path, _container(meta, tensors, version=2), "unsupported checkpoint version 2")

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
        no_task = "".join(line for line in lines if not line.startswith("model.task "))
        self._load(tmp_path, _container(no_task.encode(), tensors), "metadata lacks key 'model.task'")
        bad_dims = meta.replace(b"model.agg.mlp1.dims = 3,", b"model.agg.mlp1.dims = x,")
        assert bad_dims != meta
        self._load(tmp_path, _container(bad_dims, tensors), "metadata does not describe a model")

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
