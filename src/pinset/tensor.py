"""Dense float64 tensors with reverse-mode differentiation.

Every operation records its inputs on the output node, so each forward
pass builds a fresh acyclic graph; :func:`backward` replays it once in
reverse creation order. Values are treated as immutable once created,
which keeps independent passes safe to run concurrently as long as each
owns its graph.

An op writes in place only into arrays it allocated itself. It never
writes into its inputs' data, parameters, batchnorm running statistics
or the gradient handed to its backward function: ``add`` passes one
gradient object to both parents, and graphs may share leaves across
threads.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import kernels

_ids = itertools.count()

BN_EPS = 1e-5


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


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(loss: Tensor, params=()) -> dict:
    """Gradients of a scalar loss for every requires-grad leaf.

    Returns a map from tensor to gradient array. Tensors passed in
    ``params`` that the loss never touched get zero gradients.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    # collect the reachable graph; creation order is a topological order
    seen = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)

    grads = {id(loss): np.ones(())}
    tensors = sorted(seen.values(), key=lambda t: t._id, reverse=True)
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
    for node in seen.values():
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
    """Elementwise product with a same-shape tensor or a python scalar."""
    if isinstance(b, Tensor):
        if a.data.shape != b.data.shape:
            raise ShapeError(f"cannot multiply shapes {a.data.shape} * {b.data.shape}")

        def bwd(g):
            return ((a, g * b.data), (b, g * a.data))

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


def sum_over_set(a: Tensor) -> Tensor:
    """Column sums over the set axis of a (batch, set, feature) tensor."""
    if a.data.ndim != 3:
        raise ShapeError(f"expected a rank-3 tensor, got shape {a.data.shape}")

    def bwd(g):
        return ((a, np.broadcast_to(g[:, None, :], a.data.shape).copy()),)

    return _result(a.data.sum(axis=1), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        return ((a, g * mask),)

    # np.maximum (unlike where) propagates NaN, keeping divergence visible
    return _result(np.maximum(a.data, 0.0), (a,), bwd)


def set_softmax(a: Tensor) -> Tensor:
    """Softmax over the set axis (second-to-last), per feature column.

    Each column of each set sums to one, so the values act as weights over
    set elements. Equivariant under permutations of the set axis.
    """
    if a.data.ndim < 2:
        raise ShapeError(f"set_softmax needs at least 2 axes, got {a.data.shape}")
    axis = a.data.ndim - 2
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

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

    def copy(self) -> "BatchNormState":
        fresh = BatchNormState(len(self.mean))
        fresh.mean = self.mean.copy()
        fresh.var = self.var.copy()
        return fresh


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str,
    momentum: float = 0.1,
) -> Tensor:
    """Per-feature normalization over the rows of a 2-D tensor.

    Train mode normalizes by batch statistics (biased variance plus
    ``BN_EPS``) and folds them into the running statistics; eval mode uses
    the stored statistics. Train mode needs at least two rows.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batchnorm expects 2-D input, got shape {x.data.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    m = x.data.shape[0]
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(state.var + BN_EPS)
        mean = state.mean
        y = x.data - mean
        y *= gamma.data * inv_std
        y += beta.data

        def bwd_eval(g):
            # the normalized input is rebuilt only when a gradient is needed
            xhat = (x.data - mean) * inv_std
            return (
                (x, g * (gamma.data * inv_std)),
                (gamma, np.einsum("ij,ij->j", g, xhat)),
                (beta, g.sum(axis=0)),
            )

        return _result(y, (x, gamma, beta), bwd_eval)

    if m < 2:
        raise DegenerateBatchError(f"train-mode batchnorm needs >= 2 rows, got {m}")
    mean = x.data.mean(axis=0)
    xhat = x.data - mean
    var = np.einsum("ij,ij->j", xhat, xhat) / m
    state.mean = (1.0 - momentum) * state.mean + momentum * mean
    state.var = (1.0 - momentum) * state.var + momentum * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    y = xhat * gamma.data
    y += beta.data

    def bwd(g):
        # Ioffe & Szegedy (2015): gx = gamma*inv_std/m * (m*g - sum(g) - xhat*sum(g*xhat))
        sum_g = g.sum(axis=0)
        sum_gx = np.einsum("ij,ij->j", g, xhat)
        scale = gamma.data * inv_std
        gx = xhat * (-scale * sum_gx / m)
        gx += g * scale
        gx -= scale * sum_g / m
        return ((x, gx), (gamma, sum_gx), (beta, sum_g))

    return _result(y, (x, gamma, beta), bwd)


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
    one axis per factor. Runs on the kernel backend (numba or numpy).
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
