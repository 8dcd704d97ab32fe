"""Training loop, optimizer, evaluation, checkpoints, metrics.

The optimizer is plain SGD with momentum and L2 weight decay folded into
the gradient. Checkpoints are a small versioned binary container that
round-trips parameters, normalization statistics, and optimizer buffers
bit-exactly.
"""

from __future__ import annotations

import io
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import models as models_mod
from .data import SetBatch
from .models import Model, ModelConfig, build_model
from .rng import RngState
from .tensor import Tensor, backward, softmax_cross_entropy

LR_DROP_FACTOR = 10.0

CHECKPOINT_MAGIC = b"DMPP"
CHECKPOINT_VERSION = 1

METRIC_FIELDS = ("epoch", "split", "loss", "accuracy", "error_rate", "lr", "wall_seconds")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(
            f"non-finite loss {value!r} at epoch {epoch}, batch {batch}"
        )
        self.epoch = epoch
        self.batch = batch


@dataclass
class LrSchedule:
    """Constant rate with a single drop by :data:`LR_DROP_FACTOR` at
    ``drop_epoch``, plus an optional linear warmup (off by default)."""

    initial: float
    drop_epoch: int
    warmup_epochs: int = 0

    def rate(self, epoch: int) -> float:
        if self.warmup_epochs > 0 and epoch < self.warmup_epochs:
            return self.initial * (epoch + 1) / self.warmup_epochs
        if epoch < self.drop_epoch:
            return self.initial
        return self.initial / LR_DROP_FACTOR


@dataclass
class OptimizerState:
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr: float = 0.01
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: OptimizerState) -> None:
    """One momentum-SGD update in place on the parameter arrays.

    Weight decay is added to the gradient (g + wd * w), the buffer tracks
    momentum * buffer + g, and parameters move by -lr * buffer.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} of shape {p.data.shape}"
            )
        if state.weight_decay != 0.0:
            g = g + state.weight_decay * p.data
        buf = state.buffers.get(name)
        buf = g if buf is None else state.momentum * buf + g
        state.buffers[name] = buf
        p.data = p.data - state.lr * buf


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drop_epoch: int = 200
    warmup_epochs: int = 0
    checkpoint_every: int = 0  # 0: only at the end


def evaluate(model: Model, batch: SetBatch, chunk: int = 256) -> dict:
    """Accuracy, error rate, mean loss, and exact per-class counts."""
    if batch.size == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    classes = model.config.class_count
    correct = np.zeros(classes, dtype=np.int64)
    totals = np.zeros(classes, dtype=np.int64)
    loss_sum = 0.0
    for start in range(0, batch.size, chunk):
        sets = batch.sets[start : start + chunk]
        labels = batch.labels[start : start + chunk]
        logits = model.forward(sets, "eval")
        loss = softmax_cross_entropy(logits, labels)
        loss_sum += float(loss.data) * sets.shape[0]
        pred = logits.data.argmax(axis=1)
        for cls in range(classes):
            mask = labels == cls
            totals[cls] += int(mask.sum())
            correct[cls] += int((pred[mask] == cls).sum())
    accuracy = float(correct.sum()) / batch.size
    per_class = [
        float(correct[c]) / totals[c] if totals[c] else float("nan") for c in range(classes)
    ]
    return {
        "accuracy": accuracy,
        "error_rate": 1.0 - accuracy,
        "loss": loss_sum / batch.size,
        "per_class_accuracy": per_class,
        "correct": int(correct.sum()),
        "count": int(batch.size),
    }


def train(
    model: Model,
    train_batch: SetBatch,
    test_batch: SetBatch,
    cfg: TrainConfig,
    rng: RngState,
    out_dir=None,
) -> list[dict]:
    """Run the supervised loop; returns per-epoch metric rows.

    Deterministic given the seed: shuffling and dropout draw from streams
    derived per epoch. Writes checkpoints under ``out_dir`` when given.
    """
    params = model.parameters()
    state = OptimizerState(momentum=cfg.momentum, weight_decay=cfg.weight_decay, lr=cfg.lr)
    schedule = LrSchedule(cfg.lr, cfg.lr_drop_epoch, warmup_epochs=cfg.warmup_epochs)
    history: list[dict] = []
    param_list = list(params.values())
    names_by_id = {id(p): name for name, p in params.items()}

    for epoch in range(cfg.epochs):
        state.lr = schedule.rate(epoch)
        t0 = time.perf_counter()
        order = rng.child("shuffle", epoch).generator().permutation(train_batch.size)
        dropout_gen = rng.child("dropout", epoch).generator()
        loss_sum = 0.0
        hit = 0
        seen = 0
        for bi, start in enumerate(range(0, train_batch.size, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue  # a singleton batch starves the head's normalization
            sets = train_batch.sets[idx]
            labels = train_batch.labels[idx]
            logits = model.forward(sets, "train", dropout_gen)
            loss = softmax_cross_entropy(logits, labels)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergenceError(epoch, bi, value)
            grad_map = backward(loss, param_list)
            grads = {names_by_id[id(p)]: g for p, g in grad_map.items() if id(p) in names_by_id}
            sgd_step(params, grads, state)
            loss_sum += value * idx.size
            hit += int((logits.data.argmax(axis=1) == labels).sum())
            seen += idx.size
        train_time = time.perf_counter() - t0
        history.append(
            {
                "epoch": epoch,
                "split": "train",
                "loss": loss_sum / seen,
                "accuracy": hit / seen,
                "error_rate": 1.0 - hit / seen,
                "lr": state.lr,
                "wall_seconds": train_time,
            }
        )
        t1 = time.perf_counter()
        metrics = evaluate(model, test_batch)
        history.append(
            {
                "epoch": epoch,
                "split": "eval",
                "loss": metrics["loss"],
                "accuracy": metrics["accuracy"],
                "error_rate": metrics["error_rate"],
                "lr": state.lr,
                "wall_seconds": time.perf_counter() - t1,
            }
        )
        if out_dir is not None and cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(
                f"{out_dir}/checkpoint_epoch{epoch + 1}.dmpp", model, state, epoch + 1, rng
            )
    if out_dir is not None:
        save_checkpoint(f"{out_dir}/checkpoint.dmpp", model, state, cfg.epochs, rng)
    return history


# ---------------------------------------------------------------------------
# metrics CSV


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)  # shortest round-trip decimal
    return str(v)


def metrics_csv(history: list[dict]) -> str:
    lines = [",".join(METRIC_FIELDS)]
    for row in history:
        lines.append(",".join(_format_value(row[f]) for f in METRIC_FIELDS))
    return "\n".join(lines) + "\n"


def write_metrics(path, history: list[dict]) -> None:
    with open(path, "w") as f:
        f.write(metrics_csv(history))


# ---------------------------------------------------------------------------
# checkpoints
#
# layout: magic "DMPP" | version u32 LE | metadata length u64 LE |
# metadata utf-8 key=value lines | tensor count u64 LE | per tensor:
# name length u64 LE, name bytes, rank u64 LE, extents u64 LE each,
# payload raw little-endian f64.


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode()
    f.write(struct.pack("<Q", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<Q", arr.ndim))
    for extent in arr.shape:
        f.write(struct.pack("<Q", extent))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_tensor(f) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<Q", f.read(8))
    name = f.read(name_len).decode()
    (rank,) = struct.unpack("<Q", f.read(8))
    shape = tuple(struct.unpack("<Q", f.read(8))[0] for _ in range(rank))
    count = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(shape).copy()
    return name, arr


def save_checkpoint(
    path,
    model: Model,
    optimizer: OptimizerState | None = None,
    epoch: int = 0,
    rng: RngState | None = None,
) -> None:
    meta = models_mod.config_to_flat(model.config)
    meta["format.flatten_order"] = "row_major"
    meta["format.init"] = "fanin_uniform"
    meta["train.epoch"] = str(epoch)
    if rng is not None:
        meta["train.seed"] = str(rng.seed)
    if optimizer is not None:
        meta["optimizer.momentum"] = repr(optimizer.momentum)
        meta["optimizer.weight_decay"] = repr(optimizer.weight_decay)
        meta["optimizer.lr"] = repr(optimizer.lr)
    meta_text = "".join(f"{k} = {v}\n" for k, v in sorted(meta.items()))

    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    encoded = meta_text.encode()
    buf.write(struct.pack("<Q", len(encoded)))
    buf.write(encoded)

    tensors: list[tuple[str, np.ndarray]] = []
    for name, p in model.parameters().items():
        tensors.append((f"param.{name}", p.data))
    for name, st in model.norm_states().items():
        tensors.append((f"norm.{name}.mean", st.mean))
        tensors.append((f"norm.{name}.var", st.var))
    if optimizer is not None:
        for name, arr in optimizer.buffers.items():
            tensors.append((f"momentum.{name}", arr))

    buf.write(struct.pack("<Q", len(tensors)))
    for name, arr in tensors:
        _write_tensor(buf, name, arr)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> tuple[Model, OptimizerState, int, dict]:
    """Rebuild the model (bit-exact parameters), optimizer state, and
    epoch counter from a checkpoint file."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (magic {magic!r})")
        (version,) = struct.unpack("<I", f.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<Q", f.read(8))
        meta: dict[str, str] = {}
        for line in f.read(meta_len).decode().splitlines():
            key, _, value = line.partition(" = ")
            meta[key] = value
        (count,) = struct.unpack("<Q", f.read(8))
        tensors = dict(_read_tensor(f) for _ in range(count))

    config = models_mod.config_from_flat(meta)
    seed = int(meta.get("train.seed", "0"))
    model = build_model(config, RngState(seed))
    for name, p in model.parameters().items():
        p.data = tensors[f"param.{name}"]
    for name, st in model.norm_states().items():
        st.mean = tensors[f"norm.{name}.mean"]
        st.var = tensors[f"norm.{name}.var"]

    optimizer = OptimizerState(
        momentum=float(meta.get("optimizer.momentum", "0.9")),
        weight_decay=float(meta.get("optimizer.weight_decay", "0.0001")),
        lr=float(meta.get("optimizer.lr", "0.01")),
    )
    for name, arr in tensors.items():
        if name.startswith("momentum."):
            optimizer.buffers[name[len("momentum.") :]] = arr
    epoch = int(meta.get("train.epoch", "0"))
    return model, optimizer, epoch, meta
