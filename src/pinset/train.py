"""Training loop, optimizer, evaluation, checkpoints, metrics.

The optimizer is plain SGD with momentum and L2 weight decay folded into
the gradient. Checkpoints are a small versioned binary container that
round-trips parameters, normalization statistics, and optimizer buffers
bit-exactly. They are written atomically and checked on load: a damaged
file raises :class:`CheckpointError`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import secrets
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import models as models_mod
from .config import ConfigError
from .data import SetBatch
from .models import Model, ModelConfig, build_model
from .rng import RngState
from .tensor import Tensor, backward, no_grad, softmax_cross_entropy

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


class CheckpointError(ValueError):
    """Checkpoint file that is truncated or malformed, or whose tensors
    disagree with the model its own metadata describes."""


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

    def __post_init__(self):
        # ConfigError is a ValueError that names the run-config key at fault
        if self.epochs < 0:
            raise ConfigError(f"train.epochs must be >= 0, got {self.epochs}", key="train.epochs")
        if self.batch_size < 2:
            raise ConfigError(
                f"train.batch_size must be >= 2, got {self.batch_size}: batch normalization "
                "needs two sets per batch",
                key="train.batch_size",
            )
        # a negative value would silently act as 0
        for key in ("lr_drop_epoch", "warmup_epochs", "checkpoint_every"):
            value = getattr(self, key)
            if value < 0:
                raise ConfigError(f"train.{key} must be >= 0, got {value}", key=f"train.{key}")


def check_sizes(train_batch: SetBatch, test_batch: SetBatch) -> None:
    """Training needs at least two training sets, because batch
    normalization needs two rows, and one test set, because every epoch
    ends with an evaluation. Raises ConfigError naming the size at fault."""
    if train_batch.size < 2:
        raise ConfigError(
            f"training needs at least 2 sets, data.train_size gives {train_batch.size}",
            key="data.train_size",
        )
    if test_batch.size < 1:
        raise ConfigError(
            "every epoch ends with an evaluation, but data.test_size gives no test sets",
            key="data.test_size",
        )


@no_grad()
def evaluate(model: Model, batch: SetBatch, chunk: int = 256) -> dict:
    """Accuracy, error rate, mean loss, and exact per-class counts.
    Runs under ``no_grad``: nothing differentiates these forwards."""
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
    The data sizes are checked by ``check_sizes`` before any epoch runs.
    """
    check_sizes(train_batch, test_batch)
    params = model.parameters()
    param_list = list(params.values())
    state = OptimizerState(momentum=cfg.momentum, weight_decay=cfg.weight_decay, lr=cfg.lr)
    schedule = LrSchedule(cfg.lr, cfg.lr_drop_epoch, warmup_epochs=cfg.warmup_epochs)
    history: list[dict] = []

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
            labels = train_batch.labels[idx]
            logits = model.forward(train_batch.sets[idx], "train", dropout_gen)
            loss = softmax_cross_entropy(logits, labels)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergenceError(epoch, bi, value)
            grad_map = backward(loss, param_list)
            sgd_step(params, {name: grad_map[p] for name, p in params.items()}, state)
            loss_sum += value * idx.size
            hit += int((logits.data.argmax(axis=1) == labels).sum())
            seen += idx.size
            # free this step's tape before the next forward and the evaluation
            del logits, loss, grad_map
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


class _Reader:
    """Cursor over a checkpoint's bytes. Every length is checked against
    the bytes left before anything is read or allocated."""

    def __init__(self, raw: bytes, path):
        self.raw = memoryview(raw)
        self.pos = 0
        self.path = path

    def left(self) -> int:
        return len(self.raw) - self.pos

    def take(self, n: int, what: str) -> memoryview:
        start, self.pos = self.pos, self.pos + n
        if self.pos > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated: {what} needs {n} bytes, {len(self.raw) - start} left")
        return self.raw[start : self.pos]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not utf-8: {exc}") from None


def _read_tensor(r: _Reader) -> tuple[str, tuple[int, ...], memoryview]:
    """One tensor record: name, shape and raw payload. Arrays are made
    only once the whole file has been checked."""
    name = r.text(r.u64("tensor name length"), "tensor name")
    rank = r.u64(f"rank of {name}")
    shape = struct.unpack(f"<{rank}Q", r.take(8 * rank, f"shape of {name}"))
    return name, shape, r.take(8 * math.prod(shape), f"data of {name}")


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
    _write_atomic(path, buf.getvalue())


def _write_atomic(path, payload: bytes) -> None:
    """Write through a temp file in the target's directory, then rename it
    over the target: readers see the old file or the new one, never part
    of one. The temp file is removed when anything fails."""
    directory, base = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{base}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[Model, OptimizerState, int, dict]:
    """Rebuild the model (bit-exact parameters), optimizer state, and
    epoch counter from a checkpoint file.

    Raises :class:`CheckpointError` for a truncated or malformed file and
    for tensors that are missing, unexpected or of the wrong shape for
    the model the metadata describes.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    magic = bytes(r.take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (magic {magic!r})")
    (version,) = struct.unpack("<I", r.take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    meta: dict[str, str] = {}
    for line in r.text(r.u64("metadata length"), "metadata").splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckpointError(f"{path}: malformed metadata line {line!r}")
        meta[key] = value
    count = r.u64("tensor count")
    if count > r.left() // 16:  # a tensor takes at least its name length and rank
        raise CheckpointError(f"{path}: truncated: {count} tensors cannot fit in {r.left()} bytes")
    records: dict[str, tuple[tuple[int, ...], memoryview]] = {}
    for _ in range(count):
        name, shape, payload = _read_tensor(r)
        if name in records:
            raise CheckpointError(f"{path}: tensor {name} appears twice")
        records[name] = shape, payload
    if r.left():
        raise CheckpointError(f"{path}: {r.left()} unexpected bytes after the last tensor")

    try:
        config = models_mod.config_from_flat(meta)
        model = build_model(config, RngState(int(meta.get("train.seed", "0"))))
        optimizer = OptimizerState(
            momentum=float(meta.get("optimizer.momentum", "0.9")),
            weight_decay=float(meta.get("optimizer.weight_decay", "0.0001")),
            lr=float(meta.get("optimizer.lr", "0.01")),
        )
        epoch = int(meta.get("train.epoch", "0"))
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks key {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: metadata does not describe a model: {exc}") from None

    params = model.parameters()
    required = {f"param.{name}": p.data.shape for name, p in params.items()}
    for name, st in model.norm_states().items():
        required[f"norm.{name}.mean"] = required[f"norm.{name}.var"] = st.mean.shape
    allowed = {**required, **{f"momentum.{name}": p.data.shape for name, p in params.items()}}
    missing = sorted(required.keys() - records.keys())
    if missing:
        raise CheckpointError(f"{path}: {len(missing)} tensors missing, first {missing[0]}")
    for name, (shape, _) in records.items():
        if name not in allowed:
            raise CheckpointError(f"{path}: unexpected tensor {name}")
        if shape != allowed[name]:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape}, the stored config gives {allowed[name]}"
            )
    tensors = {
        name: np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        for name, (shape, payload) in records.items()
    }

    for name, p in params.items():
        p.data = tensors[f"param.{name}"]
    for name, st in model.norm_states().items():
        st.mean = tensors[f"norm.{name}.mean"]
        st.var = tensors[f"norm.{name}.var"]
    for name, arr in tensors.items():
        if name.startswith("momentum."):
            optimizer.buffers[name[len("momentum.") :]] = arr
    return model, optimizer, epoch, meta
