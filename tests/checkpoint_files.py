"""Checkpoint files built independently of ``save_checkpoint``: the
documented container, and the damaged files that every reader of a
checkpoint must refuse with one error."""

import io
import struct

import numpy as np

from pinset.models import build_model, gradcheck_config
from pinset.rng import RngState
from pinset.train import CHECKPOINT_VERSION, OptimizerState, save_checkpoint


def checkpoint_parts(directory, momentum=True):
    """Metadata bytes and named tensors of a saved gradcheck-preset model
    with non-trivial running statistics, plus the saved file's bytes."""
    model = build_model(gradcheck_config(), RngState(20))
    model.forward(RngState(21).generator().uniform(-1, 1, size=(4, 12, 3)), "train")
    state = OptimizerState()
    if momentum:
        state.buffers = {name: np.full_like(p.data, 0.5) for name, p in model.parameters().items()}
    path = directory / "gradcheck.dmpp"
    save_checkpoint(path, model, state, epoch=2, rng=RngState(20))
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    tensors = [(f"param.{name}", p.data) for name, p in model.parameters().items()]
    for name, st in model.norm_states().items():
        tensors += [(f"norm.{name}.mean", st.mean), (f"norm.{name}.var", st.var)]
    tensors += [(f"momentum.{name}", buf) for name, buf in state.buffers.items()]
    return raw[16 : 16 + meta_len], tensors, raw


def container(meta: bytes, tensors, version=CHECKPOINT_VERSION) -> bytes:
    """A checkpoint file in the documented layout."""
    buf = io.BytesIO()
    buf.write(b"DMPP" + struct.pack("<IQ", version, len(meta)) + meta + struct.pack("<Q", len(tensors)))
    for name, arr in tensors:
        encoded = name.encode()
        buf.write(struct.pack("<Q", len(encoded)) + encoded)
        buf.write(struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape))
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return buf.getvalue()


def _u64_at(meta: bytes, tensors, at: int, value: int) -> bytes:
    """The container with ``value`` in the u64 field at byte ``at``."""
    raw = container(meta, tensors)
    return raw[:at] + struct.pack("<Q", value) + raw[at + 8 :]


def _replaced(meta: bytes, old: bytes, new: bytes) -> bytes:
    assert old in meta
    return meta.replace(old, new)


def _without_line(meta: bytes, prefix: str) -> bytes:
    lines = meta.decode().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(prefix)).encode()


def _reshaped(meta: bytes, tensors, prefix: str):
    """The container with the first tensor whose name starts with
    ``prefix`` one value longer, and the pattern of its error."""
    i = next(i for i, (name, _) in enumerate(tensors) if name.startswith(prefix))
    name, arr = tensors[i]
    longer = tensors[:i] + [(name, np.append(arr, 1.0))] + tensors[i + 1 :]
    return container(meta, longer), f"tensor {name} has shape \\({arr.size + 1},\\)"


_HUGE = 2**63

# Each damaged file, by id: from the metadata bytes and tensors of a sound
# file (``checkpoint_parts``), the payload and a pattern its one error
# message matches.
DAMAGED = {
    "text-file": lambda m, t: (b"hello, world\n", r"not a checkpoint \(magic b'hell'\)"),
    "version-1": lambda m, t: (container(m, t, version=1), "checkpoint version 1, this pinset reads version 2"),
    "version-3": lambda m, t: (container(m, t, version=3), "checkpoint version 3, this pinset reads version 2"),
    # the header's length fields, then the first tensor's, past the file's end
    "metadata-length": lambda m, t: (_u64_at(m, t, 8, _HUGE), "truncated: metadata needs 9223372036854775808 bytes"),
    "tensor-count": lambda m, t: (_u64_at(m, t, 16 + len(m), _HUGE), "truncated: 9223372036854775808 tensors"),
    "name-length": lambda m, t: (_u64_at(m, t, 24 + len(m), _HUGE), "truncated: tensor name needs"),
    "rank": lambda m, t: (_u64_at(m, t, 32 + len(m) + len(t[0][0]), _HUGE), "truncated: shape of"),
    "extent": lambda m, t: (_u64_at(m, t, 40 + len(m) + len(t[0][0]), 2**40), "truncated: data of"),
    "metadata-not-utf-8": lambda m, t: (container(b"\xff" + m, t), "metadata is not utf-8"),
    "metadata-line": lambda m, t: (container(m + b"no separator\n", t), "malformed metadata line 'no separator'"),
    "metadata-lacks-key": lambda m, t: (
        container(_without_line(m, "model.input_width "), t),
        "metadata lacks key 'model.input_width'",
    ),
    "metadata-not-a-model": lambda m, t: (
        container(_replaced(m, b"model.agg.mlp1.dims = 3,", b"model.agg.mlp1.dims = x,"), t),
        "metadata does not describe a model",
    ),
    "metadata-key-twice": lambda m, t: (
        container(m + b"train.epoch = 7\n", t),
        "metadata key train.epoch appears twice",
    ),
    # model.* keys are refused by config_from_flat, the rest by the reader
    "unread-model-key": lambda m, t: (
        container(m + b"model.broadcasts.activation = relu\n", t),
        "unknown (metadata )?key model.broadcasts.activation$",
    ),
    "unread-run-key": lambda m, t: (
        container(m + b"format.init = fanin_uniform\n", t),
        "unknown (metadata )?key format.init$",
    ),
    # stored run values that break the rules TrainConfig states
    "epoch-negative": lambda m, t: (
        container(_replaced(m, b"train.epoch = 2\n", b"train.epoch = -3\n"), t),
        "train.epoch must be >= 0, got -3$",
    ),
    **{
        f"lr-{kind}": lambda m, t, value=value: (
            container(_replaced(m, b"optimizer.lr = 0.01\n", f"optimizer.lr = {value}\n".encode()), t),
            f"optimizer.lr must be finite and > 0, got {float(value)}$",
        )
        for kind, value in (("nan", "nan"), ("inf", "inf"), ("negative", "-0.01"))
    },
    "momentum-one": lambda m, t: (
        container(_replaced(m, b"optimizer.momentum = 0.9\n", b"optimizer.momentum = 1.0\n"), t),
        r"optimizer.momentum must be in \[0, 1\), got 1.0$",
    ),
    "weight-decay-negative": lambda m, t: (
        container(_replaced(m, b"optimizer.weight_decay = 0.0001\n", b"optimizer.weight_decay = -1e-4\n"), t),
        "optimizer.weight_decay must be finite and >= 0, got -0.0001$",
    ),
    "tensor-missing": lambda m, t: (container(m, t[1:]), f"1 tensors missing, first {t[0][0]}"),
    "tensor-unexpected": lambda m, t: (
        container(m, t + [("param.spare", np.ones(2))]),
        "unexpected tensor param.spare",
    ),
    "tensor-twice": lambda m, t: (container(m, t + t[:1]), f"tensor {t[0][0]} appears twice"),
    "trailing-byte": lambda m, t: (container(m, t) + b"\0", "1 unexpected bytes after the last tensor"),
    "param-shape": lambda m, t: _reshaped(m, t, "param."),
    "norm-shape": lambda m, t: _reshaped(m, t, "norm."),
    "momentum-shape": lambda m, t: _reshaped(m, t, "momentum."),
}
