"""Network building blocks.

Per-element MLPs (equivariant by construction), the dual-MLP dot-product
aggregation block whose output is invariant under set permutations, its
order-n generalization, and the broadcast block that mixes a set feature
back into every element.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .rng import RngState
from .tensor import (
    BN_EPS,
    Tensor,
    BatchNormState,
    _check_gemm,
    add,
    affine,
    batchnorm,
    column_major,
    dropout,
    matmul,
    mul,
    no_grad,
    pair_aggregate,
    reshape,
    set_softmax,
    squashing,
    sum_product,
    tile_rows,
)

ACTIVATION_KINDS = ("relu", "softmax_set", "squashing", "none")


class ExpressivenessWarning(UserWarning):
    """Set smaller than the feature factorization can represent."""


@dataclass
class MlpSpec:
    """Layer widths plus the per-layer template. Every hidden layer is
    linear, then batch normalization when enabled, then a relu; the last
    layer is linear, then ``final_activation``.

    With the defaults the last layer is a plain linear map, as a
    classifier head needs."""

    layer_dims: list[int]
    final_activation: str = "none"
    use_batchnorm: bool = True
    use_bias: bool = True

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError(f"need at least input and output dims, got {self.layer_dims}")
        if any(int(d) < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be positive, got {self.layer_dims}")
        self.layer_dims = [int(d) for d in self.layer_dims]
        if self.final_activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.final_activation!r}, expected one of {ACTIVATION_KINDS}")

    @property
    def in_width(self) -> int:
        return self.layer_dims[0]

    @property
    def out_width(self) -> int:
        return self.layer_dims[-1]

    def layers(self) -> list[tuple[int, int, bool, str]]:
        """One ``(in width, out width, batchnorm, activation)`` per layer."""
        dims, last = self.layer_dims, len(self.layer_dims) - 2
        return [
            (
                dims[i],
                dims[i + 1],
                self.use_batchnorm and i < last,
                self.final_activation if i == last else "relu",
            )
            for i in range(last + 1)
        ]


Named = Iterator[tuple[str, Tensor | BatchNormState]]


class Block:
    """A block that lists its tensors and running statistics once, in its
    ``named(prefix)`` walk; the order of that walk is the checkpoint
    order. Parameters and statistics are filters over it."""

    def named(self, prefix: str = "") -> Named:
        raise NotImplementedError

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {name: v for name, v in self.named(prefix) if isinstance(v, Tensor)}

    def norm_states(self, prefix: str = "") -> dict[str, BatchNormState]:
        return {name: v for name, v in self.named(prefix) if isinstance(v, BatchNormState)}


class BatchNorm:
    """Batch normalization of ``width`` features: scale ``gamma``, shift
    ``beta`` and the running statistics ``state``."""

    def __init__(self, width: int):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.state = BatchNormState(width)

    def named(self, prefix: str = "") -> Named:
        yield f"{prefix}bn_gamma", self.gamma
        yield f"{prefix}bn_beta", self.beta
        yield f"{prefix}bn", self.state

    def fold(self, w: Tensor, b: Tensor | None) -> tuple[Tensor, Tensor]:
        """Eval mode folded into the linear map before it:
        ``W' = W diag(s)`` and ``b' = (b - mean) s + beta`` with
        ``s = gamma / sqrt(var + BN_EPS)`` (Jacob et al., CVPR 2018). Only
        the small parameter tensors are touched, and gradients reach all
        four."""
        scale = mul(self.gamma, Tensor(1.0 / np.sqrt(self.state.var + BN_EPS)))
        centre = Tensor(-self.state.mean)
        if b is not None:
            centre = add(b, centre)
        return mul(w, scale), add(mul(centre, scale), self.beta)


@dataclass
class Layer:
    """One MLP layer's tensors: ``h @ weight + bias``, normalized by
    ``bn`` when the spec asks for it."""

    weight: Tensor  # (d_in, d_out)
    bias: Tensor | None
    bn: BatchNorm | None


def _dense(h: Tensor, w: Tensor, b: Tensor | None, bn: BatchNorm | None, mode: str, relu: bool) -> Tensor:
    """One dense layer ``h @ w + b`` as one tape op. With ``bn`` (a hidden
    layer, so a relu), train mode runs the fused ``batchnorm`` and eval
    mode folds the stored statistics into ``w`` and ``b``, through tape
    ops, and runs ``affine``. Without ``bn``, ``affine`` in both modes, the
    relu fused when ``relu`` is set.

    A 2-D ``b`` is a per-set bias, one row per set of consecutive rows,
    and the set count is its row count (see
    :func:`pinset.tensor._check_gemm`). Train mode hands it on as such
    (see :func:`pinset.tensor.batchnorm`). Eval mode still tiles the
    folded rows over each set's rows with ``tile_rows`` and passes the
    copy as a bias with one row per row; the benchmark's tracer self-test
    (``perfbench/tests/test_tracer.py``) expects ``pixel-l`` to call
    ``tile_rows``, so that switch waits for the benchmark's refresh."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if bn is not None and mode == "eval":
        w, b = bn.fold(w, b)
    if mode == "eval" and (sets := _check_gemm(h, w, b)):
        b = tile_rows(b, h.data.shape[0] // sets)
    if bn is not None and mode == "train":
        return batchnorm(h, bn.gamma, bn.beta, bn.state, w=w, b=b)
    return affine(h, w, b, relu=relu)


def _column_rows(x: Tensor) -> Tensor:
    """Rows that are raw data (no gradient, so not on the tape) made
    column-major, as every activation is held (see :mod:`pinset.tensor`),
    once where they enter the model; a tensor that needs a gradient or
    is column-major already is ``x``."""
    if x.requires_grad:
        return x
    data = column_major(x.data)
    return x if data is x.data else Tensor(data)


class Mlp(Block):
    """An MlpSpec bound to parameters, applied row-wise to stacked sets."""

    def __init__(self, spec: MlpSpec, rng: RngState):
        self.spec = spec
        gen = rng.generator()
        self.layers: list[Layer] = []
        for d_in, d_out, has_bn, _ in spec.layers():
            # fan-in uniform
            bound = 1.0 / np.sqrt(d_in)
            w = Tensor(gen.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
            b = Tensor(gen.uniform(-bound, bound, size=d_out), requires_grad=True) if spec.use_bias else None
            self.layers.append(Layer(w, b, BatchNorm(d_out) if has_bn else None))

    def forward(self, x: Tensor, mode: str, set_size: int | None = None) -> Tensor:
        """Apply every layer to the rows of ``x``: each is one
        :func:`_dense` op, and the last layer's activation, unless it is a
        relu (fused into the op) or none, follows it. A set softmax reads
        each block of ``set_size`` rows as one set; without ``set_size``,
        all the rows are one set. Rows read fastest column-major; the
        callers that hold raw rows convert them once (see
        :func:`_column_rows`)."""
        if x.data.ndim != 2 or x.data.shape[1] != self.spec.in_width:
            raise ValueError(
                f"expected input of width {self.spec.in_width}, got shape {x.data.shape}"
            )
        h = x
        for layer, (*_, kind) in zip(self.layers, self.spec.layers()):
            h = _dense(h, layer.weight, layer.bias, layer.bn, mode, relu=kind == "relu")
        kind = self.spec.final_activation
        if kind == "squashing":
            return squashing(h)
        if kind == "softmax_set":
            return set_softmax(h, h.data.shape[0] if set_size is None else set_size)
        return h

    def named(self, prefix: str = "") -> Named:
        for i, layer in enumerate(self.layers):
            at = f"{prefix}layer{i}."
            yield f"{at}weight", layer.weight
            if layer.bias is not None:
                yield f"{at}bias", layer.bias
            if layer.bn is not None:
                yield from layer.bn.named(at)


@dataclass
class AggregationSpec:
    """The two per-element MLPs of an aggregation block, which read the
    same elements, and the dropout ratio on their flattened feature."""

    mlp1: MlpSpec
    mlp2: MlpSpec
    dropout_ratio: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.dropout_ratio < 1.0:
            raise ValueError(f"dropout ratio must be in [0, 1), got {self.dropout_ratio}")
        if self.mlp1.in_width != self.mlp2.in_width:
            raise ValueError("both MLPs must read the same element width")

    @property
    def feature_length(self) -> int:
        return self.mlp1.out_width * self.mlp2.out_width


class AggregationBlock(Block):
    """An AggregationSpec bound to parameters: two per-element MLPs
    combined by a dot product over the set axis."""

    def __init__(self, spec: AggregationSpec, rng: RngState):
        self.spec = spec
        self.mlp1 = Mlp(spec.mlp1, rng.child(0))
        self.mlp2 = Mlp(spec.mlp2, rng.child(1))

    def named(self, prefix: str = "") -> Named:
        yield from self.mlp1.named(f"{prefix}mlp1.")
        yield from self.mlp2.named(f"{prefix}mlp2.")


def aggregate(
    block: AggregationBlock,
    rows: Tensor,
    set_size: int,
    mode: str = "eval",
    gen: np.random.Generator | None = None,
) -> Tensor:
    """Permutation-invariant set features flatten(mlp1(X)^T mlp2(X)) of
    stacked rows (B*N, p), each block of ``set_size`` consecutive rows one
    set, as (B, s*t); one set goes in as its (N, p) rows. Raw rows are
    made column-major here (see :func:`_column_rows`). Dropout is applied
    to the flattened output in train mode."""
    if rows.data.ndim != 2:
        raise ValueError(f"expected stacked rows (B*N, p), got shape {rows.data.shape}")
    if set_size < 1 or rows.data.shape[0] % set_size:
        raise ValueError(f"{rows.data.shape[0]} rows are no whole number of sets of {set_size}")
    s, t = block.spec.mlp1.out_width, block.spec.mlp2.out_width
    if set_size < min(s, t):
        warnings.warn(
            f"set size {set_size} is below min(s, t) = {min(s, t)}; features of rank "
            f"above {set_size} are unreachable",
            ExpressivenessWarning,
            stacklevel=2,
        )
    rows = _column_rows(rows)
    h1 = block.mlp1.forward(rows, mode, set_size=set_size)
    h2 = block.mlp2.forward(rows, mode, set_size=set_size)
    feature = pair_aggregate(reshape(h1, (-1, set_size, s)), reshape(h2, (-1, set_size, t)))
    flat = reshape(feature, (-1, s * t))
    return dropout(flat, block.spec.dropout_ratio, gen, mode)


def aggregate_order_n(mlps: list[Mlp], x: Tensor, mode: str = "eval") -> Tensor:
    """Order-n sum-product aggregation of one set.

    The result has one axis per MLP: order 1 is sum pooling over the set,
    order 2 equals :func:`aggregate` (reshaped, no dropout). Every order
    runs on :func:`sum_product`. More than one set-softmax output is
    rejected for n > 2 since repeated set normalization shrinks the
    products toward 0.
    """
    if not mlps:
        raise ValueError("need at least one MLP")
    if x.data.ndim != 2:
        raise ValueError(f"expected one set (N, p), got shape {x.data.shape}")
    n_order = len(mlps)
    if n_order > 2:
        softmax_count = sum(1 for m in mlps if m.spec.final_activation == "softmax_set")
        if softmax_count > 1:
            raise ValueError(
                f"{softmax_count} set-softmax outputs at order {n_order}; at most one is usable"
            )
    x = _column_rows(x)
    outs = [m.forward(x, mode) for m in mlps]
    return sum_product(outs)


class BroadcastBlock(Block):
    """Mixes a set feature into each element: z_i = Wx x_i + Wy y + b,
    followed by batch normalization and a relu.

    The bilinear element-feature interaction term is deliberately absent;
    each output row depends on its own element and the shared set feature
    only, so the block is equivariant by construction.
    """

    def __init__(self, d_x: int, d_y: int, d_z: int, rng: RngState):
        gen = rng.generator()
        bx = 1.0 / np.sqrt(d_x)
        by = 1.0 / np.sqrt(d_y)
        # held (in, out) like every dense layer, drawn (out, in) as always
        self.w_x = Tensor(gen.uniform(-bx, bx, size=(d_z, d_x)).T.copy(), requires_grad=True)
        self.w_y = Tensor(gen.uniform(-by, by, size=(d_z, d_y)).T.copy(), requires_grad=True)
        self.bias = Tensor(np.zeros(d_z), requires_grad=True)
        self.bn = BatchNorm(d_z)

    @property
    def widths(self) -> tuple[int, int, int]:
        return self.w_x.data.shape[0], self.w_y.data.shape[0], self.w_x.data.shape[1]

    def named(self, prefix: str = "") -> Named:
        yield f"{prefix}w_x", self.w_x
        yield f"{prefix}w_y", self.w_y
        yield f"{prefix}bias", self.bias
        yield from self.bn.named(prefix)


def broadcast_batched(block: BroadcastBlock, x_flat: Tensor, y: Tensor, mode: str) -> Tensor:
    """The whole block on stacked rows (B*N, d_x) with set features
    (B, d_y): ``relu(BN(x W_x + y W_y + b))``, each set's feature row
    added to its N rows. The B rows of ``y`` give the set count, so
    stacked rows that are no multiple of B raise ``ShapeError``.

    The small per-set row ``y W_y + b`` (B, d_z) is formed first; the
    rest is one :func:`_dense` op. In train mode ``batchnorm`` takes the
    row as a per-set bias, so no (B*N, d_z) copy of it is made: with B
    sets, a block that widens past ``d_x + B`` (``bc0`` of ``pixel-l``)
    runs the covariance formula, the others (``bc1``) the direct one.
    Eval mode folds the statistics into the row and tiles it (see
    :func:`_dense`).
    """
    d_x, d_y, _ = block.widths
    if x_flat.data.ndim != 2 or x_flat.data.shape[1] != d_x:
        raise ValueError(f"expected stacked rows of width {d_x}, got shape {x_flat.data.shape}")
    if y.data.ndim != 2 or y.data.shape[1] != d_y:
        raise ValueError(f"expected batch features of width {d_y}, got shape {y.data.shape}")
    row = add(matmul(y, block.w_y), block.bias)
    return _dense(x_flat, block.w_x, row, block.bn, mode, relu=True)


@no_grad()
def per_element_contribution(block: AggregationBlock, elements: np.ndarray) -> np.ndarray:
    """Each element's additive share of the aggregated feature matrix:
    (n, s, t) for (n, p) elements.

    Valid only when both MLPs act element-wise (no set softmax): then the
    aggregation is the sum over elements of these rank-<=1 outer products.
    Evaluated in eval mode, where each batchnorm is folded into its
    layer's weights and bias, so every layer is a fixed affine map and one
    forward of all the rows gives each row's own output.
    """
    if "softmax_set" in (block.spec.mlp1.final_activation, block.spec.mlp2.final_activation):
        raise ValueError(
            "per-element decomposition is invalid with set-softmax activations: "
            "they couple rows across the set"
        )
    x = _column_rows(Tensor(np.asarray(elements, dtype=np.float64)))
    h1 = block.mlp1.forward(x, "eval").data
    h2 = block.mlp2.forward(x, "eval").data
    return h1[:, :, None] * h2[:, None, :]
