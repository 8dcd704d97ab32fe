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
from dataclasses import dataclass, field, replace

import numpy as np

from . import models as models_mod
from .config import ConfigError
from .data import SetBatch
from .models import Model, ModelConfig, build_model
from .rng import RngState
from .tensor import Tensor, backward, softmax_cross_entropy

LR_DROP_FACTOR = 10.0

CHECKPOINT_MAGIC = b"DMPP"
CHECKPOINT_VERSION = 2
CHECKPOINT_NAME = "checkpoint.dmpp"

METRIC_FIELDS = ("epoch", "split", "loss", "accuracy", "error_rate", "lr", "wall_seconds")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; the message names the epoch and
    its train step ``batch``, or its evaluation when ``batch`` is None."""

    def __init__(self, epoch: int, batch: int | None, value: float):
        where = "evaluation" if batch is None else f"batch {batch}"
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, {where}")


class CheckpointError(ValueError):
    """Checkpoint file that is truncated or malformed, or whose tensors
    disagree with the model its own metadata describes."""


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
        if buf is None:
            state.buffers[name] = buf = g.copy()
        else:
            buf *= state.momentum
            buf += g
        # in place, so that parameters and buffers keep their memory: new
        # arrays each step would be scattered between the step's temporaries
        p.data -= state.lr * buf


# the run-config key of each TrainConfig field
CONFIG_KEYS = {
    "optimizer.lr": "lr",
    "optimizer.momentum": "momentum",
    "optimizer.weight_decay": "weight_decay",
    "train.epochs": "epochs",
    "train.batch_size": "batch_size",
    "train.lr_drop_epoch": "lr_drop_epoch",
    "train.warmup_epochs": "warmup_epochs",
    "train.checkpoint_every": "checkpoint_every",
}
_KEY_OF = {name: key for key, name in CONFIG_KEYS.items()}
# the OptimizerState field of each optimizer.* key a checkpoint stores
_OPTIMIZER_KEYS = {key: name for key, name in CONFIG_KEYS.items() if key.startswith("optimizer.")}


# the test and the wording of each TrainConfig field's rule, which a
# checkpoint's stored values keep too: a negative count would silently act
# as 0, batch normalization needs two sets per batch, a negative rate
# ascends the loss, and momentum >= 1 lets the buffer grow without bound
_RULES = {
    "epochs": (lambda v: v >= 0, ">= 0"),
    "batch_size": (lambda v: v >= 2, ">= 2"),
    "lr_drop_epoch": (lambda v: v >= 0, ">= 0"),
    "warmup_epochs": (lambda v: v >= 0, ">= 0"),
    "checkpoint_every": (lambda v: v >= 0, ">= 0"),
    "lr": (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "weight_decay": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
}


def _broken_rule(name: str, value) -> str | None:
    """The wording of the rule of TrainConfig field ``name`` when ``value``
    breaks it, else None."""
    ok, rule = _RULES[name]
    return None if ok(value) else rule


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
        for name in _RULES:
            value = getattr(self, name)
            if rule := _broken_rule(name, value):
                # ConfigError is a ValueError that names the run-config key at fault
                raise ConfigError(f"{_KEY_OF[name]} must be {rule}, got {value}")

    def lr_at(self, epoch: int) -> float:
        """``lr``, dropped once by :data:`LR_DROP_FACTOR` at
        ``lr_drop_epoch``, after an optional linear warmup (off by default)."""
        if epoch < self.warmup_epochs:
            return self.lr * (epoch + 1) / self.warmup_epochs
        if epoch < self.lr_drop_epoch:
            return self.lr
        return self.lr / LR_DROP_FACTOR


@dataclass
class OptimizerState:
    """The SGD hyperparameters a step trains with, defaults from
    :class:`TrainConfig`, and the per-parameter momentum buffers. A run's
    state, the one its checkpoints store, holds the base ``lr`` that
    :meth:`TrainConfig.lr_at` schedules."""

    momentum: float = TrainConfig.momentum
    weight_decay: float = TrainConfig.weight_decay
    lr: float = TrainConfig.lr
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def check_sizes(train_batch: SetBatch, test_batch: SetBatch) -> None:
    """Training needs at least two training sets, because batch
    normalization needs two rows, and one test set, because every epoch
    ends with an evaluation. Raises ConfigError naming the size at fault."""
    if train_batch.size < 2:
        raise ConfigError(f"training needs at least 2 sets, data.train_size gives {train_batch.size}")
    if test_batch.size < 1:
        raise ConfigError("every epoch ends with an evaluation, but data.test_size gives no test sets")


# Rows of one block of whole sets in evaluate's per-element stage. The
# widest element layer (128 columns) then makes 8 MB per block, against
# 51 MB for a whole 256-set pixel-s chunk of 50,176 rows; the bias, relu
# and softmax passes after each GEMM stay in cache. 8192 is also exactly a
# 256-set quadrant chunk of 32-point sets, which stays one block: its
# arrays already fit in cache, and 4096-row blocks made it slower.
EVAL_BLOCK_ROWS = 8192


def evaluate(model: Model, batch: SetBatch, chunk: int = 256) -> dict:
    """Accuracy, error rate, mean loss, and exact per-class counts. Each
    chunk of ``chunk`` sets runs through ``Model.eval_logits`` (no tape) in
    blocks of about :data:`EVAL_BLOCK_ROWS` rows, and its loss is taken
    once; that method says which bits the blocks keep."""
    if batch.size == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    classes = model.config.class_count
    correct = np.zeros(classes, dtype=np.int64)
    totals = np.zeros(classes, dtype=np.int64)
    loss_sum = 0.0
    for start in range(0, batch.size, chunk):
        sets = batch.sets[start : start + chunk]
        labels = batch.labels[start : start + chunk]
        logits = model.eval_logits(sets, EVAL_BLOCK_ROWS)
        loss = softmax_cross_entropy(logits, labels)
        loss_sum += float(loss.data) * sets.shape[0]
        pred = logits.data.argmax(axis=1)
        # softmax_cross_entropy has range-checked the labels
        totals += np.bincount(labels, minlength=classes)
        correct += np.bincount(labels[pred == labels], minlength=classes)
    accuracy = float(correct.sum()) / batch.size
    # None for a class without test sets: strict JSON has no NaN
    per_class = [float(correct[c]) / totals[c] if totals[c] else None for c in range(classes)]
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
    history: list[dict] = []

    for epoch in range(cfg.epochs):
        # the epoch's scheduled rate, on the run's momentum buffers
        step_state = replace(state, lr=cfg.lr_at(epoch))
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
            sgd_step(params, {name: grad_map[p] for name, p in params.items()}, step_state)
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
                "lr": step_state.lr,
                "wall_seconds": train_time,
            }
        )
        t1 = time.perf_counter()
        metrics = evaluate(model, test_batch)
        # an update in the epoch's last step is first seen here
        if not np.isfinite(metrics["loss"]):
            raise DivergenceError(epoch, None, metrics["loss"])
        history.append(
            {
                "epoch": epoch,
                "split": "eval",
                "loss": metrics["loss"],
                "accuracy": metrics["accuracy"],
                "error_rate": metrics["error_rate"],
                "lr": step_state.lr,
                "wall_seconds": time.perf_counter() - t1,
            }
        )
        if out_dir is not None and cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(
                f"{out_dir}/checkpoint_epoch{epoch + 1}.dmpp", model, state, epoch + 1, rng
            )
    if out_dir is not None:
        save_checkpoint(f"{out_dir}/{CHECKPOINT_NAME}", model, state, cfg.epochs, rng)
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
    _write_atomic({path: metrics_csv(history).encode()})


# ---------------------------------------------------------------------------
# checkpoints
#
# layout: magic "DMPP" | version u32 LE | metadata length u64 LE |
# metadata utf-8 "key = value" lines: the model config (config_to_flat),
# train.epoch, train.seed and optimizer.* | tensor count u64 LE | per
# tensor: name length u64 LE, name bytes, rank u64 LE, extents u64 LE
# each, payload raw little-endian f64 in the shape the model holds it.


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


def _records(model: Model) -> dict[str, tuple[object, str]]:
    """Each parameter and normalization record of a checkpoint, in file
    order (momentum records follow): name -> (holder, attribute) of its array."""
    records = {f"param.{name}": (p, "data") for name, p in model.parameters().items()}
    for name, st in model.norm_states().items():
        records.update({f"norm.{name}.{stat}": (st, stat) for stat in ("mean", "var")})
    return records


def save_checkpoint(
    path,
    model: Model,
    optimizer: OptimizerState | None = None,
    epoch: int = 0,
    rng: RngState | None = None,
) -> None:
    meta = models_mod.config_to_flat(model.config)
    meta["train.epoch"] = str(epoch)
    if rng is not None:
        meta["train.seed"] = str(rng.seed)
    if optimizer is not None:
        meta.update({key: repr(getattr(optimizer, name)) for key, name in _OPTIMIZER_KEYS.items()})
    meta_text = "".join(f"{k} = {v}\n" for k, v in sorted(meta.items()))

    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    encoded = meta_text.encode()
    buf.write(struct.pack("<Q", len(encoded)))
    buf.write(encoded)

    tensors = [(name, getattr(holder, attr)) for name, (holder, attr) in _records(model).items()]
    if optimizer is not None:
        tensors += [(f"momentum.{name}", arr) for name, arr in optimizer.buffers.items()]

    buf.write(struct.pack("<Q", len(tensors)))
    for name, arr in tensors:
        _write_tensor(buf, name, arr)
    _write_atomic({path: buf.getvalue()})


def _temp_path(path) -> str:
    """The temp file :func:`_write_atomic` writes ``path`` through: in the
    same directory, 18 bytes longer, ``.`` before and ``.<12 hex>.tmp`` after."""
    directory, base = os.path.split(os.fspath(path))
    return os.path.join(directory, f".{base}.{secrets.token_hex(6)}.tmp")


def _write_atomic(files: dict) -> None:
    """Write each ``path: payload`` of ``files`` through a temp file in the
    target's directory, then rename it over the target: readers see the
    old file or the new one, never part of one. The files are one set:
    every payload is written before the first rename, and when a rename
    fails, each target already renamed over gets its old file back (held
    meanwhile as a hard link) or is removed if it had none. Temp files are
    removed either way. A missing target directory is made first, so a
    run that fails before it writes leaves no directory behind."""
    for path in files:
        os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmps = {path: _temp_path(path) for path in files}
    olds, done = {}, []
    try:
        for path, payload in files.items():
            with open(tmps[path], "xb") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
        last = next(reversed(files))
        for path in files:
            # the last rename needs no old copy: nothing after it can fail
            if path != last and os.path.exists(path):
                olds[path] = _temp_path(path)
                os.link(path, olds[path])
            os.replace(tmps[path], path)
            done.append(path)
    except BaseException:
        for path in reversed(done):
            with contextlib.suppress(OSError):
                if path in olds:
                    os.replace(olds[path], path)
                else:
                    os.remove(path)
        raise
    finally:
        for name in [*tmps.values(), *olds.values()]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)


def load_checkpoint(path) -> tuple[Model, OptimizerState, int, dict]:
    """Rebuild the model (bit-exact parameters), optimizer state, and
    epoch counter from a checkpoint file.

    Raises :class:`CheckpointError` for another version, a truncated or
    malformed file, a metadata key this version does not read, a stored
    ``train.epoch`` or ``optimizer.*`` value that breaks the rule
    :class:`TrainConfig` states for it, a model with more parameters than
    the file holds values (before the model is built), and for tensors
    that are missing, unexpected or of the wrong shape for the model the
    metadata describes.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    magic = bytes(r.take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (magic {magic!r})")
    (version,) = struct.unpack("<I", r.take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version {version}, this pinset reads version {CHECKPOINT_VERSION}")
    meta: dict[str, str] = {}
    for line in r.text(r.u64("metadata length"), "metadata").splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckpointError(f"{path}: malformed metadata line {line!r}")
        if key in meta:
            raise CheckpointError(f"{path}: metadata key {key} appears twice")
        meta[key] = value
    # the model.* keys are checked by config_from_flat
    run_keys = {"train.epoch", "train.seed", *_OPTIMIZER_KEYS}
    unread = sorted(key for key in meta.keys() - run_keys if not key.startswith("model."))
    if unread:
        raise CheckpointError(f"{path}: unknown metadata key {unread[0]}")
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
        rng = RngState(int(meta.get("train.seed", "0")))
        optimizer = OptimizerState()
        for key, name in _OPTIMIZER_KEYS.items():
            if key in meta:
                setattr(optimizer, name, float(meta[key]))
        epoch = int(meta.get("train.epoch", "0"))
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks key {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: metadata does not describe a model: {exc}") from None
    # the stored epoch counts the epochs trained, so it keeps their rule
    stored = {"train.epoch": ("epochs", epoch)}
    stored |= {key: (name, getattr(optimizer, name)) for key, name in _OPTIMIZER_KEYS.items()}
    for key, (name, value) in stored.items():
        if rule := _broken_rule(name, value):
            raise CheckpointError(f"{path}: {key} must be {rule}, got {value}")
    # checked before the model is allocated, which a forged width could not be
    size = models_mod.param_count(config).total
    if size > sum(math.prod(shape) for shape, _ in records.values()):
        raise CheckpointError(f"{path}: the stored config gives {size:,} parameters, more than the file holds")

    model = build_model(config, rng)
    table = _records(model)
    required = {name: getattr(holder, attr).shape for name, (holder, attr) in table.items()}
    allowed = {**required, **{f"momentum.{name}": p.data.shape for name, p in model.parameters().items()}}
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

    for name, (holder, attr) in table.items():
        setattr(holder, attr, tensors[name])
    for name, arr in tensors.items():
        if name.startswith("momentum."):
            optimizer.buffers[name[len("momentum.") :]] = arr
    return model, optimizer, epoch, meta
