"""Dense float64 tensors with reverse-mode differentiation.

Every operation records its inputs on the output node, so each forward
pass builds a fresh acyclic graph; :func:`backward` replays it once in
reverse creation order. Values are treated as immutable once created.

An op writes in place only into arrays it allocated itself. It never
writes into its inputs' data, parameters, batchnorm running statistics
or the gradient handed to its backward function: ``add`` passes one
gradient object to both parents.

Forwards run under :func:`no_grad` record nothing: their results have no
parents, so nothing keeps the arrays an op saved for its backward.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os

import numpy as np

from . import kernels

_ids = itertools.count()
_recording = True  # cleared inside no_grad()

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of each batch in the running statistics

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 1 << 30


def _keep_freed_memory() -> None:
    """Let glibc keep freed memory in the process; runs once at import.

    Every forward frees its arrays as it goes. By default glibc serves
    large arrays from fresh ``mmap`` regions and trims the heap top once
    they are freed, so the next step or eval chunk faults in zeroed pages
    from the kernel again. Raising both thresholds to 1 GiB makes freed
    arrays stay in the heap for reuse. The cost: up to 1 GiB of freed
    heap stays mapped in the process instead of going back to the OS.
    Peak RSS does not change, because it is reached before the frees.

    Does nothing without glibc, without a ``mallopt`` symbol, or once a
    call returns 0. Looks glibc up through ``os.confstr`` and the
    process's own symbols, not ``ctypes.util``, which costs milliseconds.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD):
        if mallopt(param, _KEEP_FREED_BYTES) == 0:
            return


_keep_freed_memory()


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class DegenerateBatchError(ValueError):
    """Batch statistics requested over a single row."""


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@contextlib.contextmanager
def no_grad():
    """Run forwards that are never differentiated without building a
    graph: every result made inside is a leaf that does not require grad.
    Use as ``with no_grad():`` or as the decorator ``@no_grad()``. Nests,
    and recording resumes on exit, also when the body raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _reachable(root: Tensor) -> list[Tensor]:
    """Every node of the graph behind ``root``, each once."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    return list(seen.values())


def backward(loss: Tensor, params=()) -> dict:
    """Gradients of a scalar loss for every requires-grad leaf.

    Returns a map from tensor to gradient array. Tensors passed in
    ``params`` that the loss never touched get zero gradients.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    # creation order is a topological order
    nodes = _reachable(loss)
    grads = {id(loss): np.ones(())}
    tensors = sorted(nodes, key=lambda t: t._id, reverse=True)
    for node in tensors:
        g = grads.pop(id(node), None)
        if g is None or node._backward is None:
            if node._backward is None and g is not None:
                grads[id(node)] = g  # keep leaf gradients
            continue
        for parent, contrib in node._backward(g):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib

    out = {}
    for node in nodes:
        if node.requires_grad and node._backward is None:
            out[node] = grads.get(id(node), np.zeros(node.data.shape))
    for p in params:
        if p not in out:
            out[p] = np.zeros(p.data.shape)
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.data.shape} x {b.data.shape}")

    def bwd(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _result(a.data @ b.data, (a, b), bwd)


def affine(x: Tensor, w: Tensor, b: Tensor | None, relu: bool = False) -> Tensor:
    """One dense layer ``x @ w + b``, optionally followed by a relu.

    The product, the bias and the relu share the one array this op
    allocates. ``b`` is a bias row of shape ``(d,)``, a row-aligned
    ``(rows, d)`` array with one bias per row, or None. Without relu this
    equals ``add(matmul(x, w), b)`` bit for bit, gradients included.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"cannot multiply shapes {x.data.shape} x {w.data.shape}")
    out_shape = (x.data.shape[0], w.data.shape[1])
    if b is not None and b.data.shape not in (out_shape[1:], out_shape):
        raise ShapeError(f"cannot add shapes {out_shape} + {b.data.shape}")
    row_aligned = b is not None and b.data.ndim == 2
    y = x.data @ w.data
    if b is not None:
        y += b.data
    if relu:
        # np.maximum (unlike where) propagates NaN, keeping divergence visible
        np.maximum(y, 0.0, out=y)

    def bwd(g):
        if relu:
            g = g * (y > 0)  # y > 0 exactly where the pre-activation was
        grads = [(x, g @ w.data.T), (w, x.data.T @ g)]
        if b is not None:
            grads.append((b, g if row_aligned else g.sum(axis=0)))
        return grads

    if relu:
        bwd.preactivation = lambda: x.data @ w.data + (0.0 if b is None else b.data)
    return _result(y, (x, w) if b is None else (x, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a trailing-dim vector broadcasts as a bias row."""
    if a.data.shape == b.data.shape:

        def bwd(g):
            return ((a, g), (b, g))

    elif b.data.ndim == 1 and a.data.ndim >= 1 and a.data.shape[-1] == b.data.shape[0]:

        def bwd(g):
            axes = tuple(range(g.ndim - 1))
            return ((a, g), (b, g.sum(axis=axes)))

    else:
        raise ShapeError(f"cannot add shapes {a.data.shape} + {b.data.shape}")
    return _result(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a same-shape tensor, a trailing-dim vector
    (scaling each column) or a python scalar."""
    if isinstance(b, Tensor):
        if a.data.shape == b.data.shape:

            def bwd(g):
                return ((a, g * b.data), (b, g * a.data))

        elif b.data.ndim == 1 and a.data.ndim >= 1 and a.data.shape[-1] == b.data.shape[0]:

            def bwd(g):
                axes = tuple(range(g.ndim - 1))
                return ((a, g * b.data), (b, (g * a.data).sum(axis=axes)))

        else:
            raise ShapeError(f"cannot multiply shapes {a.data.shape} * {b.data.shape}")
        return _result(a.data * b.data, (a, b), bwd)

    c = float(b)

    def bwd_scalar(g):
        return ((a, g * c),)

    return _result(a.data * c, (a,), bwd_scalar)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a rank-2 tensor, got {a.data.shape}")

    def bwd(g):
        return ((a, g.T),)

    return _result(a.data.T.copy(), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        return ((a, g.reshape(a.data.shape)),)

    return _result(a.data.reshape(shape), (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        return ((a, np.full(a.data.shape, float(g))),)

    return _result(a.data.sum(), (a,), bwd)


def _relu_in_place(y: np.ndarray) -> np.ndarray:
    """Relu of an array the calling op allocated, in place. Returns the
    1-byte mask of positive entries for the backward: taken here, while
    ``y`` is hot in cache, it costs one byte per element to keep, where
    rebuilding it in the backward would reread eight."""
    mask = y > 0
    np.maximum(y, 0.0, out=y)  # propagates NaN, unlike where
    return mask


def set_softmax(a: Tensor) -> Tensor:
    """Softmax over the set axis (second-to-last), per feature column.

    Each column of each set sums to one, so the values act as weights over
    set elements. Equivariant under permutations of the set axis.
    """
    if a.data.ndim < 2:
        raise ShapeError(f"set_softmax needs at least 2 axes, got {a.data.shape}")
    axis = a.data.ndim - 2
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((a, y * (g - inner)),)

    return _result(y, (a,), bwd)


def squashing(a: Tensor) -> Tensor:
    """Shrink each row v to v*|v|/(1+|v|^2); zero rows stay zero, norms < 1."""
    if a.data.ndim < 1:
        raise ShapeError("squashing needs at least 1 axis")
    r = np.linalg.norm(a.data, axis=-1, keepdims=True)
    denom = 1.0 + r * r
    scale = r / denom
    y = a.data * scale

    def bwd(g):
        # d/dv [s(r) v] = s I + (s'(r)/r) v v^T with s'(r) = (1-r^2)/(1+r^2)^2
        safe_r = np.where(r > 0, r, 1.0)
        sprime_over_r = np.where(r > 0, (1.0 - r * r) / (denom * denom * safe_r), 0.0)
        dot = (g * a.data).sum(axis=-1, keepdims=True)
        return ((a, g * scale + sprime_over_r * dot * a.data),)

    return _result(y, (a,), bwd)


class BatchNormState:
    """Running mean/variance carried between train and eval passes."""

    def __init__(self, width: int):
        self.mean = np.zeros(width)
        self.var = np.ones(width)


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    *,
    w: Tensor,
    b: Tensor | None = None,
    relu: bool = False,
) -> Tensor:
    """One train-mode layer: ``x @ w + b``, normalized per feature over
    the rows by batch statistics (biased variance plus ``BN_EPS``), then
    ``gamma * xhat + beta`` and, when ``relu`` is set, a relu. Needs at
    least two rows. The batch statistics are folded into the running
    statistics with weight ``BN_MOMENTUM``.

    A ``(d,)`` bias row is cancelled by subtracting the batch mean, so
    ``BN(x @ w + b) == BN(x @ w)``; it only shifts the batch mean that goes
    into the running mean, and its gradient is exactly zero. A row-aligned
    ``(rows, d)`` bias differs from row to row, so it is added, and its
    gradient is the masked, normalized ``g`` that the GEMM gradients read.

    There is no eval mode: ``Mlp.forward`` and ``broadcast_batched`` fold
    the stored statistics into the layer's weights and bias and run
    ``affine`` instead.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batchnorm expects 2-D input, got shape {x.data.shape}")
    if w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"cannot multiply shapes {x.data.shape} x {w.data.shape}")
    out_shape = (x.data.shape[0], w.data.shape[1])
    if b is not None and b.data.shape not in (out_shape[1:], out_shape):
        raise ShapeError(f"bias of shape {b.data.shape} fits neither {out_shape[1:]} nor {out_shape}")
    row_aligned = b is not None and b.data.ndim == 2
    m = x.data.shape[0]
    if m < 2:
        raise DegenerateBatchError(f"train-mode batchnorm needs >= 2 rows, got {m}")
    xhat = x.data @ w.data
    if row_aligned:
        xhat += b.data
    mean = xhat.mean(axis=0)
    xhat -= mean
    var = np.einsum("ij,ij->j", xhat, xhat) / m
    batch_mean = mean if b is None or row_aligned else mean + b.data
    state.mean = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * batch_mean
    state.var = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    y = xhat * gamma.data
    y += beta.data
    mask = _relu_in_place(y) if relu else None

    def bwd(g):
        # Ioffe & Szegedy (2015), in the one array the masking (or copy) makes:
        # gz = gamma*inv_std/m * (m*g - sum(g) - xhat*sum(g*xhat))
        gz = g * mask if relu else g.copy()
        sum_g = gz.sum(axis=0)
        sum_gx = np.einsum("ij,ij->j", gz, xhat)
        scale = gamma.data * inv_std
        gz *= scale
        gz -= scale * sum_g / m
        gz -= xhat * (scale * sum_gx / m)
        grads = [(x, gz @ w.data.T), (w, x.data.T @ gz), (gamma, sum_gx), (beta, sum_g)]
        if b is not None:
            grads.append((b, gz if row_aligned else np.zeros(b.data.shape)))
        return grads

    if relu:
        # rebuilt on request, so no full-size pre-activation stays alive
        bwd.preactivation = lambda: xhat * gamma.data + beta.data
    parents = (x, w, gamma, beta)
    return _result(y, parents if b is None else parents + (b,), bwd)


def pair_aggregate(a: Tensor, b: Tensor) -> Tensor:
    """Per-set feature matrices ``a[k].T @ b[k]``: contract two
    (batch, set, width) tensors over the set axis into
    (batch, width_a, width_b) with one batched GEMM."""
    if (
        a.data.ndim != 3
        or b.data.ndim != 3
        or a.data.shape[:2] != b.data.shape[:2]
    ):
        raise ShapeError(
            f"pair_aggregate needs matching (batch, set) axes, got "
            f"{a.data.shape} and {b.data.shape}"
        )

    def bwd(g):
        return (
            (a, np.matmul(b.data, g.transpose(0, 2, 1))),
            (b, np.matmul(a.data, g)),
        )

    return _result(np.matmul(a.data.transpose(0, 2, 1), b.data), (a, b), bwd)


def sum_product(factors) -> Tensor:
    """Order-n aggregation: sum over rows of entrywise factor products.

    ``factors`` are rank-2 tensors sharing their row count; the result has
    one axis per factor. Forward and backward are Khatri-Rao GEMMs from
    :mod:`pinset.kernels`.
    """
    if any(f.data.ndim != 2 for f in factors):
        raise ShapeError("sum_product factors must be rank-2")
    rows = {f.data.shape[0] for f in factors}
    if len(rows) != 1:
        raise ShapeError(f"sum_product factors disagree on row count: {sorted(rows)}")
    arrays = [f.data for f in factors]
    dims = tuple(f.data.shape[1] for f in factors)
    flat = kernels.sum_product_forward(arrays)

    def bwd(g):
        grads = kernels.sum_product_backward(arrays, g.reshape(-1))
        return tuple(zip(factors, grads))

    return _result(flat.reshape(dims), tuple(factors), bwd)


def tile_rows(y: Tensor, reps: int) -> Tensor:
    """Repeat each row of a 2-D tensor ``reps`` times consecutively."""
    if y.data.ndim != 2:
        raise ShapeError(f"tile_rows expects 2-D input, got shape {y.data.shape}")
    reps = int(reps)

    def bwd(g):
        return ((y, g.reshape(y.data.shape[0], reps, -1).sum(axis=1)),)

    return _result(np.repeat(y.data, reps, axis=0), (y,), bwd)


def dropout(x: Tensor, ratio: float, gen: np.random.Generator | None, mode: str) -> Tensor:
    """Inverted dropout; active only in train mode with ratio > 0."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if mode != "train" or ratio == 0.0:
        return x
    if gen is None:
        raise ValueError("train-mode dropout needs a random generator")
    mask = (gen.random(x.data.shape) >= ratio) / (1.0 - ratio)
    return mul(x, Tensor(mask))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels against row logits."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError(
            f"expected (batch, classes) logits with (batch,) labels, got "
            f"{logits.data.shape} and {labels.shape}"
        )
    classes = logits.data.shape[1]
    if labels.dtype.kind not in "iu":
        raise ValueError(
            f"labels must be integer class indices for {classes} classes, got dtype {labels.dtype}"
        )
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} is out of range for {classes} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.data.shape[0]
    loss = -log_probs[np.arange(n), labels].mean()

    def bwd(g):
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        return ((logits, grad * (float(g) / n)),)

    return _result(np.asarray(loss), (logits,), bwd)


# ---------------------------------------------------------------------------
# the independent gradient oracle


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, per
    coordinate. Kept deliberately independent of the graph machinery so it
    can serve as the oracle for :func:`backward`."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(x))
        flat[i] = orig - h
        f_minus = float(f(x))
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
