"""Dense float64 tensors with reverse-mode differentiation.

Every operation records its inputs on the output node, so each forward
pass builds a fresh acyclic graph; :func:`backward` replays it once in
reverse creation order. A graph is differentiated once: as the walk
passes a node, it drops the node's parents and its backward function,
and with them the arrays the op saved for it, so the tape shrinks while
backward runs. Values are treated as immutable once created.

An op writes in place only into arrays it allocated itself. It never
writes into its inputs' data, parameters, batchnorm running statistics
or the gradient handed to its backward function: ``add`` passes one
gradient object to both parents.

Forwards run under :func:`no_grad` record nothing: their results have no
parents, so nothing keeps the arrays an op saved for its backward.

Activations of shape ``(rows, width)`` are held column-major: the rows of
each column are contiguous. Every dense product goes through
:func:`_product`, which returns ``x @ w`` in that layout, and the per-row
ops keep the layout of their operands (see :func:`column_major`).
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
# the largest rounding-error bound, as a share of var + BN_EPS, that a
# widening batchnorm accepts for its variances from the input covariance
BN_COV_RTOL = 1e-9
_EPS_MACH = float(np.finfo(np.float64).eps)

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


def _differentiated(*_):
    """The backward function of a node that :func:`backward` has passed."""
    raise RuntimeError("this graph was already differentiated; run the forward again")


def backward(loss: Tensor, params=()) -> dict:
    """Gradients of a scalar loss for every requires-grad leaf.

    Returns a map from tensor to gradient array. Tensors passed in
    ``params`` that the loss never touched get zero gradients.

    The graph is differentiated once. Right after a node's backward
    function has run, the node drops its parents and that function, and
    with it the arrays the op saved (batchnorm's normalized input, relu
    masks, softmax outputs), so they are freed during the walk instead of
    when it returns; the node's ``data`` stays. Differentiating through a
    passed node again raises ``RuntimeError``.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    nodes = _reachable(loss)
    leaves = [node for node in nodes if node.requires_grad and node._backward is None]
    # creation order is a topological order; popped from the end, newest first
    tape = sorted((node for node in nodes if node._backward is not None), key=lambda t: t._id)
    del nodes  # from here only the tape and the leaves keep nodes alive
    # keyed by id, only of nodes still alive: a pending one on the tape or a leaf
    grads = {id(loss): np.ones(())}
    while tape:
        node = tape.pop()
        g = grads.pop(id(node), None)
        if g is not None:
            for parent, contrib in node._backward(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib
        node._parents = ()
        node._backward = _differentiated

    out = {leaf: grads.get(id(leaf), np.zeros(leaf.data.shape)) for leaf in leaves}
    for p in params:
        if p not in out:
            out[p] = np.zeros(p.data.shape)
    return out


def relu_inputs(out: Tensor) -> list[np.ndarray]:
    """Pre-activations of every relu in the graph behind ``out``: each op
    that fuses a relu (every :func:`batchnorm`, and :func:`affine` with
    ``relu=True``) gives its backward a ``preactivation()`` that rebuilds
    them. Raises ``RuntimeError`` on a graph that :func:`backward` has
    passed, which keeps neither its ops nor their saved arrays."""
    nodes = _reachable(out)
    if any(node._backward is _differentiated for node in nodes):
        _differentiated()
    return [node._backward.preactivation() for node in nodes if hasattr(node._backward, "preactivation")]


# ---------------------------------------------------------------------------
# primitives


def _check_gemm(
    x: Tensor, w: Tensor, b: Tensor | None = None, gamma: Tensor | None = None, beta: Tensor | None = None
) -> int:
    """The shapes of a dense op ``x @ w + b``, and of batchnorm's ``gamma``
    and ``beta`` when given. Returns the number of sets of a per-set bias,
    0 for a bias row or none.

    ``x`` and ``w`` are rank-2 and multiply, ``gamma`` and ``beta`` are
    ``(d,)``, and ``b`` is a bias row ``(d,)``, a per-set ``(S, d)`` bias
    or None. A per-set bias needs S to divide the row count: each block of
    ``rows / S`` consecutive rows, one set, shares one bias row, and S =
    rows gives each row its own."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"cannot multiply shapes {x.data.shape} x {w.data.shape}")
    rows, d = x.data.shape[0], w.data.shape[1]
    for v in (gamma, beta):
        if v is not None and v.data.shape != (d,):
            raise ShapeError(f"gamma and beta must have shape ({d},), got {v.data.shape}")
    if b is None or b.data.shape == (d,):
        return 0
    if b.data.ndim != 2 or b.data.shape[1] != d or b.data.shape[0] == 0 or rows % b.data.shape[0]:
        raise ShapeError(
            f"bias of shape {b.data.shape} is neither a row ({d},) nor (S, {d}) with S dividing {rows} rows"
        )
    return b.data.shape[0]


def column_major(a: np.ndarray) -> np.ndarray:
    """``(rows, width)`` ``a`` with the rows of each column contiguous:
    ``a`` itself when it is laid out so, else a copy."""
    return a if a.T.flags.c_contiguous else np.ascontiguousarray(a.T).T


# a product's last rows, in blocks of this many, that run as numpy's x @ w
_TAIL_ROWS = 8


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for ``x`` of shape ``(rows, d_in)`` and ``w`` of shape
    ``(d_in, d)``, held column-major (see :func:`column_major`).

    It runs as ``(w^T x^T)^T``, the orientation in which OpenBLAS packs a
    tall product's long panel best (Goto & van de Geijn, ACM TOMS 2008):
    15-45 % faster than ``x @ w`` at the presets' element shapes, measured
    on numpy's bundled OpenBLAS 0.3.31 running its SkylakeX kernels on an
    AVX-512 Xeon (the core ``scipy_openblas_get_corename64_()`` returns;
    ``numpy.show_config()`` names Haswell, the build's configured target,
    not the core a DYNAMIC_ARCH build picks at run time). That form rounds
    like ``x @ w`` except in the last ``rows mod 8`` rows, so those rows
    and the 8 before them are recomputed as ``x @ w``, and a product of no
    more rows than that runs as ``x @ w`` alone; the 8 extra rows keep a
    one-row remainder off GEMV, which rounds differently again. So at
    output widths of 16 and more every row has the bits of ``x @ w``, and
    a row's bits do not depend on how the rows are split into calls.
    Narrower outputs (a head's logits) may differ from ``x @ w`` in their
    last bits: OpenBLAS runs them on small-matrix kernels whose rounding
    follows the operands' layout.
    """
    rows = x.shape[0]
    tail = rows % _TAIL_ROWS and rows % _TAIL_ROWS + _TAIL_ROWS
    if tail >= rows:
        return column_major(x @ w)
    y = (w.T @ x.T).T
    if tail:
        y[-tail:] = x[-tail:] @ w
    return y


def _gemm_grads(x: Tensor, w: Tensor, g: np.ndarray) -> list:
    """The gradients of ``x @ w`` given ``g``, the gradient of the product:
    ``g @ w.T`` only when ``x`` requires grad (raw data needs none), then
    ``x.T @ g``."""
    grads = [(x, _product(g, w.data.T))] if x.requires_grad else []
    grads.append((w, x.data.T @ g))
    return grads


def _sets(a: np.ndarray, sets: int) -> np.ndarray:
    """The ``(sets, rows / sets, d)`` view of rows ``a``, one block of
    consecutive rows per set. Splitting the row axis never copies."""
    return np.reshape(a, (sets, -1, a.shape[-1]), copy=False)


def _add_bias(y: np.ndarray, b: np.ndarray, sets: int) -> np.ndarray:
    """``y`` with the bias ``b`` added in place: a row ``(d,)`` to every
    row or, with ``sets``, row s of ``(sets, d)`` to the rows of set s
    (see :func:`_check_gemm`). Per element it is one add either way."""
    if sets:
        per_set = _sets(y, sets)
        per_set += b[:, None, :]
    else:
        y += b
    return y


def _set_sums(g: np.ndarray, sets: int) -> np.ndarray:
    """Each set's column sums of rows ``g``, ``(sets, d)``: the gradient of
    a per-set bias. With one row per set that is ``g`` itself."""
    return g if sets == g.shape[0] else _sets(g, sets).sum(axis=1)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    _check_gemm(a, b)
    return _result(_product(a.data, b.data), (a, b), lambda g: _gemm_grads(a, b, g))


def affine(x: Tensor, w: Tensor, b: Tensor | None, relu: bool = False) -> Tensor:
    """One dense layer ``x @ w + b``, optionally followed by a relu.

    The product, the bias and the relu share the one array this op
    allocates. ``b`` is a bias row of shape ``(d,)``, a per-set ``(S,
    d)`` array with one bias row per block of ``rows / S`` rows (see
    :func:`_check_gemm`), or None. Without relu and with a bias row or
    none, this equals ``add(matmul(x, w), b)`` bit for bit, gradients
    included.
    """
    sets = _check_gemm(x, w, b)
    y = _product(x.data, w.data)
    if b is not None:
        _add_bias(y, b.data, sets)
    if relu:
        # np.maximum (unlike where) propagates NaN, keeping divergence visible
        np.maximum(y, 0.0, out=y)

    def bwd(g):
        if relu:
            g = g * (y > 0)  # y > 0 exactly where the pre-activation was
        grads = _gemm_grads(x, w, g)
        if b is not None:
            grads.append((b, _set_sums(g, sets) if sets else g.sum(axis=0)))
        return grads

    if relu:

        def preactivation():
            pre = _product(x.data, w.data)
            return pre if b is None else _add_bias(pre, b.data, sets)

        bwd.preactivation = preactivation
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with a same-shape tensor or a trailing-dim
    vector (scaling each column)."""
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


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        return ((a, g.reshape(a.data.shape)),)

    return _result(a.data.reshape(shape), (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        return ((a, np.full(a.data.shape, float(g))),)

    return _result(a.data.sum(), (a,), bwd)


# set_softmax halves sets of at most this many rows (see _halved_set_maxima)
# when they hold at least this many (set, column) pairs, in blocks of at most
# _HALVED_BLOCK pairs, which keep a block's rows in cache
_HALVED_SET_SIZE = 40
_HALVED_MIN_COLUMNS = 256
_HALVED_BLOCK = 4096


def _halved_set_maxima(a: np.ndarray, set_size: int) -> np.ndarray:
    """Each set's column maxima of column-major rows ``a`` (rows, width),
    ``(sets, 1, width)``, as ``a`` reshaped to sets would give them.

    numpy's ``max`` over the set axis runs one inner loop of ``set_size``
    elements per (set, column) pair, which costs about 75 ns a pair at 32
    rows. Here ``a`` is viewed without a copy as ``(set_size,
    width * sets)``, one row per set position, and its halves are folded
    together with ``np.maximum`` into C-ordered buffers until one row is
    left (on an odd level the spare row is folded into row 0), so each
    call runs over whole rows of pairs. A maximum is exact in any order,
    so the result has the bits of ``max``, NaN and signed zeros aside:
    NaN propagates either way, and a zero maximum's sign is lost in the
    ``exp`` that follows it.
    """
    rows, width = a.shape
    positions = a.T.reshape(-1, set_size).T
    maxima = np.empty(positions.shape[1])
    folded = np.empty((set_size // 2, min(maxima.size, _HALVED_BLOCK)))
    for start in range(0, maxima.size, _HALVED_BLOCK):
        block = positions[:, start : start + _HALVED_BLOCK]
        n = set_size
        while n > 1:
            half = n // 2
            out = folded[:half, : block.shape[1]]
            np.maximum(block[:half], block[half : 2 * half], out=out)
            if n % 2:
                np.maximum(out[0], block[2 * half], out=out[0])
            block, n = out, half
        maxima[start : start + _HALVED_BLOCK] = block[0]
    return maxima.reshape(width, rows // set_size).T[:, None, :]


def set_softmax(a: Tensor, set_size: int) -> Tensor:
    """Softmax over the set axis, per feature column, of rows (rows,
    width): each block of ``set_size`` consecutive rows is one set.

    Each column of each set sums to one, so the values act as weights over
    set elements. Equivariant under permutations within a set.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"set_softmax needs rank-2 rows (rows, width), got {a.data.shape}")
    rows, width = a.data.shape
    if set_size < 1 or rows % set_size != 0:
        raise ShapeError(f"{rows} rows do not divide into sets of {set_size}")
    sets = (rows // set_size, set_size, width)
    x = a.data.reshape(sets)
    short = set_size <= _HALVED_SET_SIZE and sets[0] * width >= _HALVED_MIN_COLUMNS
    if short and a.data.T.flags.c_contiguous:
        y = x - _halved_set_maxima(a.data, set_size)
    else:
        y = x - x.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)

    def bwd(g):
        g = g.reshape(sets)
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((a, (y * (g - inner)).reshape(rows, width)),)

    return _result(y.reshape(a.data.shape), (a,), bwd)


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
) -> Tensor:
    """One train-mode hidden layer: ``x @ w + b``, normalized per feature
    over the rows by batch statistics (biased variance plus ``BN_EPS``),
    then ``gamma * xhat + beta`` and a relu. Needs at least two rows. The
    batch statistics are folded into the running statistics with weight
    ``BN_MOMENTUM``.

    A ``(d,)`` bias row is cancelled by subtracting the batch mean, so
    ``BN(x @ w + b) == BN(x @ w)``; it only shifts the batch mean that goes
    into the running mean, and its gradient is exactly zero. A per-set
    ``(S, d)`` bias (see :func:`_check_gemm`), such as a broadcast block's
    ``y W_y + b`` with one row per set, differs from set to set, so it is
    added, and its gradient is each set's sum of the masked, normalized
    ``g`` that the GEMM gradients read.

    A layer that widens is computed from the narrow input's mean and
    covariance (see :func:`_input_statistics`), unless the guard there
    finds the variances too inexact; every other call normalizes the
    ``(rows, d)`` product directly, adding a per-set bias through a
    ``(S, rows / S, d)`` view of it. A per-set bias counts as S more
    input columns, the indicators of the sets, so the layer widens when
    ``d_in + S < d``. On ``pixel-l`` at B sets per batch, the broadcast
    block ``bc0`` (3 + B -> 256) takes the covariance formula and ``bc1``
    (256 + B -> 256) the direct one. Both formulas give the same values up
    to rounding. They share all but the batch statistics, ``gamma *
    xhat`` and the gradients of ``x``, ``w`` and a per-set bias.

    There is no eval mode: ``blocks`` folds the stored statistics into
    the layer's weights and bias and runs ``affine`` instead.
    """
    sets = _check_gemm(x, w, b, gamma, beta)
    m = x.data.shape[0]
    if m < 2:
        raise DegenerateBatchError(f"train-mode batchnorm needs >= 2 rows, got {m}")
    d_in, d = w.data.shape
    per_set = b if sets else None
    stats = _input_statistics(x.data, w.data, b.data if sets else None) if d_in + sets < d else None
    if stats is not None and stats[-1]:
        mean, var, scaled, step = _normalize_from_covariance(x, gamma, w, per_set, stats)
    else:
        mean, var, scaled, step = _normalize_product(x, gamma, w, per_set)
    y = scaled()
    batch_mean = mean[0] if b is None or sets else mean[0] + b.data
    state.mean = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * batch_mean
    state.var = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    y += beta.data
    # the 1-byte mask, taken while y is hot in cache, is cheaper to keep
    # than rereading eight bytes per element in the backward
    mask = y > 0
    np.maximum(y, 0.0, out=y)  # propagates NaN, unlike where

    def bwd(g):
        gz = g * mask
        sum_g = gz.sum(axis=0)
        grads, sum_gx = step(gz, sum_g)
        grads += [(gamma, sum_gx), (beta, sum_g)]
        if b is not None and not sets:
            grads.append((b, np.zeros(b.data.shape)))
        return grads

    # rebuilt on request, so no full-size pre-activation stays alive
    bwd.preactivation = lambda: scaled() + beta.data
    parents = (x, w, gamma, beta)
    return _result(y, parents if b is None else parents + (b,), bwd)


def _normalize_product(x, gamma, w, b) -> tuple:
    """:func:`batchnorm`'s formula that normalizes the product ``x @ w``,
    plus the per-set bias ``b`` when given. Returns the product's batch
    mean and variances, a function that forms ``gamma * xhat``, and the
    backward step ``(gz, sum_g) -> (gradients of x, w and b, sum(gz *
    xhat))``, which normalizes ``gz`` in place."""
    m = x.data.shape[0]
    xhat = _product(x.data, w.data)
    if b is not None:
        _add_bias(xhat, b.data, b.data.shape[0])
    mean = xhat.mean(axis=0, keepdims=True)
    xhat -= mean
    var = np.einsum("ij,ij->j", xhat, xhat) / m
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std

    def step(gz, sum_g):
        # Ioffe & Szegedy (2015), in the one array the masking makes:
        # gz = gamma*inv_std/m * (m*g - sum(g) - xhat*sum(g*xhat))
        sum_gx = np.einsum("ij,ij->j", gz, xhat)
        scale = gamma.data * inv_std
        gz *= scale
        gz -= scale * sum_g / m
        gz -= xhat * (scale * sum_gx / m)
        grads = _gemm_grads(x, w, gz)
        if b is not None:
            grads.append((b, _set_sums(gz, b.data.shape[0])))
        return grads, sum_gx

    return mean, var, lambda: xhat * gamma.data, step


def _input_statistics(x: np.ndarray, w: np.ndarray, c: np.ndarray | None = None) -> tuple:
    """The batch statistics of ``x @ w`` from those of the narrow input
    ``x``: with ``xc = x - mean_x`` and ``cov = xc^T xc / m``, the product
    has mean ``mean_x @ w`` and variances ``diag(w^T cov w)``.

    With a per-set bias ``c`` ``(S, d)``, the layer ``x @ w + E c``, where
    E is the ``(rows, S)`` indicator of the sets, is the product of the
    input ``[x | E]`` and the weight ``[w; c]``, and these are its
    statistics. E's columns have mean 1/S. The extended covariance has
    the blocks ``cov``, ``xc^T (E - 1/S) / m``, which is each set's sum of
    ``xc`` centred over the sets, and ``(I - 1/S) / S``: it is ``(d_in +
    S)^2`` and built without a ``(rows, S)`` array.

    Returns ``mean_x``, ``xc``, ``cov @ w``, the variances and whether they
    are exact enough. With ``c``, ``mean_x`` and ``cov @ w`` are those of
    the extended input and weight. The rounding error of each variance is
    bounded by ``eps * (d_in + 2) * diag(|w|^T |cov| |w|)``, ``d_in``
    counting the input's columns.
    Where inputs are nearly collinear under large weights, ``w^T cov w``
    cancels, and the bound grows against the variance. The variances are
    exact enough when they are finite and every bound is at most
    ``BN_COV_RTOL * (var + BN_EPS)``, so that it moves each ``1 /
    sqrt(var + BN_EPS)`` by a relative ``BN_COV_RTOL / 2`` at most."""
    m = x.shape[0]
    # column sums as one GEMV each, far faster than sum(axis=0) over a
    # few columns; a second pass over the centred input takes out the
    # rounding error of the first mean, which every row of xc @ w would
    # carry (the corrected two-pass algorithm; Chan, Golub & LeVeque,
    # Am. Stat. 1983)
    ones = np.ones((1, m))
    mean_x = ones @ x / m
    xc = x - mean_x
    shift = ones @ xc / m
    xc -= shift
    mean_x += shift
    cov = xc.T @ xc
    cov /= m
    if c is not None:
        sets = c.shape[0]
        cross = _set_sums(xc, sets)
        cross = (cross - cross.mean(axis=0)) / m
        cov = np.block([[cov, cross.T], [cross, (np.eye(sets) - 1.0 / sets) / sets]])
        mean_x = np.hstack([mean_x, np.full((1, sets), 1.0 / sets)])
        w = np.vstack([w, c])
    d_in = w.shape[0]
    cov_w = cov @ w
    var = np.einsum("ij,ij->j", cov_w, w)
    abs_w = np.abs(w)
    bound = np.einsum("ij,ij->j", np.abs(cov) @ abs_w, abs_w) * (_EPS_MACH * (d_in + 2))
    exact = bool((np.isfinite(var) & (bound <= BN_COV_RTOL * (var + BN_EPS))).all())
    return mean_x, xc, cov_w, var, exact


def _normalize_from_covariance(x, gamma, w, b, stats) -> tuple:
    """:func:`batchnorm`'s formula for a widening layer, from the
    statistics of its input (see :func:`_input_statistics`): ``gamma *
    xhat = xc @ (w * a)`` with ``a = gamma * inv_std``, one GEMM. Returns
    what :func:`_normalize_product` returns; the backward keeps ``xc``
    (rows, d_in), no (rows, d) floats.

    With a per-set bias ``b``, the same formula runs on the extended
    input and weight: ``xc`` stands for ``[xc | E - 1/S]`` and ``w`` for
    ``[w; b]``. A product by the centred indicators adds each set's row,
    centred over the sets, and a product by their transpose takes each
    set's sums, centred the same way; the bias's gradient is the ``b``
    rows of the extended weight's gradient."""
    mean_x, xc, cov_w, var, _ = stats
    m, d_in = xc.shape
    sets = 0 if b is None else b.data.shape[0]
    w_all = np.vstack([w.data, b.data]) if sets else w.data
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * inv_std
    w_scaled = w_all * scale

    def input_times(p):
        # the extended input [xc | E - 1/S] times p
        if not sets:
            return _product(xc, p)
        per_set = p[d_in:]
        return _add_bias(_product(xc, p[:d_in]), per_set - per_set.mean(axis=0), sets)

    def step(gz, sum_g):
        # the backward of Ioffe & Szegedy (2015) with xhat = xc @ w * inv_std
        # never formed: its (rows, d) sums come from the GEMM xc^T gz
        gw = xc.T @ gz
        if sets:
            per_set = _set_sums(gz, sets)
            gw = np.vstack([gw, per_set - per_set.mean(axis=0)])
        sum_gx = inv_std * np.einsum("ij,ij->j", w_all, gw)
        gw -= cov_w * (inv_std * sum_gx)
        gw *= scale
        grads = [(w, gw[:d_in]), (b, gw[d_in:])] if sets else [(w, gw)]
        if x.requires_grad:
            proj = (w_all * (scale * inv_std * sum_gx / m)) @ w.data.T
            gx = _product(gz, w_scaled[:d_in].T)
            gx -= input_times(proj)
            gx -= w.data @ (scale * sum_g / m)
            grads.insert(0, (x, gx))
        return grads, sum_gx

    return mean_x @ w_all, var, lambda: input_times(w_scaled), step


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
            (a, _set_rows_product(b.data, g.transpose(0, 2, 1))),
            (b, _set_rows_product(a.data, g)),
        )

    return _result(np.matmul(a.data.transpose(0, 2, 1), b.data), (a, b), bwd)


def _set_rows_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The batched product ``p[k] @ q[k]`` of (batch, set, .) ``p``, laid
    out so that its (batch * set, width) rows are column-major, as the
    activations they are the gradient of."""
    batch, n, _ = p.shape
    return np.matmul(p, q, out=np.empty((q.shape[-1], batch, n)).transpose(1, 2, 0))


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
    """Repeat each row of a 2-D tensor ``reps`` times consecutively. The
    result is column-major, written through a (rows, reps, width) view of
    it."""
    if y.data.ndim != 2:
        raise ShapeError(f"tile_rows expects 2-D input, got shape {y.data.shape}")
    reps = int(reps)
    rows, width = y.data.shape
    tiled = np.empty((width, rows, reps)).transpose(1, 2, 0)
    tiled[...] = y.data[:, None, :]

    def bwd(g):
        return ((y, g.reshape(rows, reps, width).sum(axis=1)),)

    return _result(tiled.reshape(rows * reps, width), (y,), bwd)


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
    if logits.data.ndim != 2 or labels.shape != logits.data.shape[:1]:
        raise ShapeError(
            f"expected (batch, classes) logits with (batch,) labels, "
            f"got {logits.data.shape} and {labels.shape}"
        )
    classes = logits.data.shape[-1]
    if labels.dtype.kind not in "iu":
        raise ValueError(
            f"labels must be integer class indices for {classes} classes, got dtype {labels.dtype}"
        )
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} is out of range for {classes} classes")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
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
    can serve as the oracle for :func:`backward`.

    Perturbs each entry of ``x`` in place, so ``f`` sees the change also
    through any tensor that shares the array, and restores it exactly.
    ``x`` must therefore be a writeable float64 ndarray; any layout,
    views included, is fine.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.float64 or not x.flags.writeable:
        got = type(x).__name__
        if isinstance(x, np.ndarray):
            got = f"{x.dtype} array, writeable={x.flags.writeable}"
        raise TypeError(f"x is perturbed in place, so it must be a writeable float64 ndarray, got {got}")
    grad = np.zeros(x.shape)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        f_plus = float(f(x))
        x[idx] = orig - h
        f_minus = float(f(x))
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad
