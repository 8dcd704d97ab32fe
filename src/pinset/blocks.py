"""Network building blocks.

Per-element MLPs (equivariant by construction), the dual-MLP dot-product
aggregation block whose output is invariant under set permutations, its
order-n generalization, and the broadcast block that mixes a set feature
back into every element.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import RngState
from .tensor import (
    BN_EPS,
    Tensor,
    BatchNormState,
    add,
    affine,
    batchnorm,
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
    transpose,
)

ACTIVATION_KINDS = ("relu", "softmax_set", "squashing", "none")


class ExpressivenessWarning(UserWarning):
    """Set smaller than the feature factorization can represent."""


@dataclass
class MlpSpec:
    """Layer widths plus the per-layer template: linear, then batch
    normalization on every layer but the last when enabled, then
    ``hidden_activation`` (``final_activation`` on the last layer).

    With the defaults the last layer is a plain linear map, as a
    classifier head needs."""

    layer_dims: list[int]
    hidden_activation: str = "relu"
    final_activation: str = "none"
    use_batchnorm: bool = True
    use_bias: bool = True

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError(f"need at least input and output dims, got {self.layer_dims}")
        if any(int(d) < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be positive, got {self.layer_dims}")
        self.layer_dims = [int(d) for d in self.layer_dims]
        for kind in (self.hidden_activation, self.final_activation):
            if kind not in ACTIVATION_KINDS:
                raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")

    @property
    def in_width(self) -> int:
        return self.layer_dims[0]

    @property
    def out_width(self) -> int:
        return self.layer_dims[-1]


def _init_linear(gen: np.random.Generator, d_in: int, d_out: int, use_bias: bool):
    # fan-in uniform, recorded in checkpoints as the init scheme
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(gen.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
    b = Tensor(gen.uniform(-bound, bound, size=d_out), requires_grad=True) if use_bias else None
    return w, b


def _apply_activation(h: Tensor, kind: str, set_size: int | None) -> Tensor:
    """An activation other than relu, after a layer's op. ``Mlp.forward``
    fuses every relu into the ``affine`` or ``batchnorm`` op itself."""
    if kind == "none":
        return h
    if kind == "squashing":
        return squashing(h)
    # softmax over the set axis: fold the stacked rows back into sets
    rows, width = h.data.shape
    n = rows if set_size is None else int(set_size)
    if rows % n != 0:
        raise ValueError(f"{rows} rows do not divide into sets of {n}")
    grouped = reshape(h, (rows // n, n, width))
    return reshape(set_softmax(grouped), (rows, width))


def _fold_batchnorm(w: Tensor, b: Tensor | None, gamma: Tensor, beta: Tensor, state: BatchNormState):
    """Eval-mode batchnorm folded into the linear map before it:
    ``W' = W diag(s)`` and ``b' = (b - mean) s + beta`` with
    ``s = gamma / sqrt(var + BN_EPS)`` (Jacob et al., CVPR 2018). Only the
    small parameter tensors are touched, and gradients reach all four."""
    scale = mul(gamma, Tensor(1.0 / np.sqrt(state.var + BN_EPS)))
    centre = Tensor(-state.mean)
    if b is not None:
        centre = add(b, centre)
    return mul(w, scale), add(mul(centre, scale), beta)


class Mlp:
    """An MlpSpec bound to parameters, applied row-wise to stacked sets."""

    def __init__(self, spec: MlpSpec, rng: RngState):
        self.spec = spec
        gen = rng.generator()
        self.weights: list[Tensor] = []
        self.biases: list[Tensor | None] = []
        self.bn_gamma: list[Tensor | None] = []
        self.bn_beta: list[Tensor | None] = []
        self.bn_states: list[BatchNormState | None] = []
        dims = spec.layer_dims
        for i in range(len(dims) - 1):
            w, b = _init_linear(gen, dims[i], dims[i + 1], spec.use_bias)
            self.weights.append(w)
            self.biases.append(b)
            if self._layer_has_bn(i):
                self.bn_gamma.append(Tensor(np.ones(dims[i + 1]), requires_grad=True))
                self.bn_beta.append(Tensor(np.zeros(dims[i + 1]), requires_grad=True))
                self.bn_states.append(BatchNormState(dims[i + 1]))
            else:
                self.bn_gamma.append(None)
                self.bn_beta.append(None)
                self.bn_states.append(None)

    @property
    def n_layers(self) -> int:
        return len(self.spec.layer_dims) - 1

    def _is_final(self, i: int) -> bool:
        return i == self.n_layers - 1

    def _layer_has_bn(self, i: int) -> bool:
        return self.spec.use_batchnorm and not self._is_final(i)

    def _layer_activation(self, i: int) -> str:
        return self.spec.final_activation if self._is_final(i) else self.spec.hidden_activation

    def forward(self, x: Tensor, mode: str, set_size: int | None = None) -> Tensor:
        """Apply every layer to the rows of ``x``.

        Each layer is one tape op with the relu fused in; other
        activations follow it. Train mode runs a batchnorm layer as one
        ``batchnorm(h, ..., w=w, b=b)``: it normalizes ``h @ w`` by batch
        statistics, where the bias cancels, so ``b`` only shifts the
        running mean. Eval mode folds each batchnorm's stored statistics
        into its layer's weights and bias and runs one ``affine``. A layer
        without batchnorm is one ``affine`` in both modes. The fold is
        built from tape ops, so gradients still reach every parameter in
        both modes.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if x.data.ndim != 2 or x.data.shape[1] != self.spec.in_width:
            raise ValueError(
                f"expected input of width {self.spec.in_width}, got shape {x.data.shape}"
            )
        h = x
        for i in range(self.n_layers):
            kind = self._layer_activation(i)
            fuse_relu = kind == "relu"
            w, b, gamma = self.weights[i], self.biases[i], self.bn_gamma[i]
            if gamma is None:
                h = affine(h, w, b, relu=fuse_relu)
            elif mode == "train":
                h = batchnorm(h, gamma, self.bn_beta[i], self.bn_states[i], w=w, b=b, relu=fuse_relu)
            else:
                w, b = _fold_batchnorm(w, b, gamma, self.bn_beta[i], self.bn_states[i])
                h = affine(h, w, b, relu=fuse_relu)
            if not fuse_relu:
                h = _apply_activation(h, kind, set_size)
        return h

    def uses_softmax_set(self) -> bool:
        kinds = [self._layer_activation(i) for i in range(self.n_layers)]
        return "softmax_set" in kinds

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i in range(self.n_layers):
            out[f"{prefix}layer{i}.weight"] = self.weights[i]
            if self.biases[i] is not None:
                out[f"{prefix}layer{i}.bias"] = self.biases[i]
            if self.bn_gamma[i] is not None:
                out[f"{prefix}layer{i}.bn_gamma"] = self.bn_gamma[i]
                out[f"{prefix}layer{i}.bn_beta"] = self.bn_beta[i]
        return out

    def norm_states(self, prefix: str = "") -> dict[str, BatchNormState]:
        return {
            f"{prefix}layer{i}.bn": st
            for i, st in enumerate(self.bn_states)
            if st is not None
        }


@dataclass
class AggregationBlock:
    """Two per-element MLPs combined by a dot product over the set axis."""

    mlp1: Mlp
    mlp2: Mlp
    dropout_ratio: float = 0.1

    def __post_init__(self):
        if self.mlp1.spec.in_width != self.mlp2.spec.in_width:
            raise ValueError("both MLPs must read the same element width")

    @property
    def out_widths(self) -> tuple[int, int]:
        return self.mlp1.spec.out_width, self.mlp2.spec.out_width

    @property
    def feature_length(self) -> int:
        s, t = self.out_widths
        return s * t

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.mlp1.parameters(f"{prefix}mlp1.")
        out.update(self.mlp2.parameters(f"{prefix}mlp2."))
        return out

    def norm_states(self, prefix: str = "") -> dict[str, BatchNormState]:
        out = self.mlp1.norm_states(f"{prefix}mlp1.")
        out.update(self.mlp2.norm_states(f"{prefix}mlp2."))
        return out


def aggregate(
    block: AggregationBlock,
    x: Tensor,
    mode: str = "eval",
    gen: np.random.Generator | None = None,
) -> Tensor:
    """Permutation-invariant set feature: flatten(mlp1(X)^T mlp2(X)).

    Maps a batch of sets (B, N, p) to its (B, s*t) flattened features; a
    single set goes in as (1, N, p). Dropout is applied to the flattened
    output in train mode.
    """
    if x.data.ndim != 3:
        raise ValueError(f"expected a batch of sets (B, N, p), got shape {x.data.shape}")
    b, n, p = x.data.shape
    s, t = block.out_widths
    if n < min(s, t):
        warnings.warn(
            f"set size {n} is below min(s, t) = {min(s, t)}; features of rank "
            f"above {n} are unreachable",
            ExpressivenessWarning,
            stacklevel=2,
        )
    flat = reshape(x, (b * n, p))
    h1 = reshape(block.mlp1.forward(flat, mode, set_size=n), (b, n, s))
    h2 = reshape(block.mlp2.forward(flat, mode, set_size=n), (b, n, t))
    feature = reshape(pair_aggregate(h1, h2), (b, s * t))
    return dropout(feature, block.dropout_ratio, gen, mode)


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
    n, _ = x.data.shape
    outs = [m.forward(x, mode, set_size=n) for m in mlps]
    return sum_product(outs)


@dataclass
class BroadcastBlock:
    """Mixes a set feature into each element: z_i = Wx x_i + Wy y + b,
    followed by batch normalization and a relu.

    The bilinear element-feature interaction term is deliberately absent;
    each output row depends on its own element and the shared set feature
    only, so the block is equivariant by construction.
    """

    w_x: Tensor  # (d_z, d_x)
    w_y: Tensor  # (d_z, d_y)
    bias: Tensor  # (d_z,)
    gamma: Tensor  # (d_z,)
    beta: Tensor  # (d_z,)
    state: BatchNormState

    def __post_init__(self):
        dz = self.w_x.data.shape[0]
        if self.w_y.data.shape[0] != dz or self.bias.data.shape != (dz,):
            raise ValueError(
                f"inconsistent widths: w_x {self.w_x.data.shape}, "
                f"w_y {self.w_y.data.shape}, bias {self.bias.data.shape}"
            )

    @property
    def widths(self) -> tuple[int, int, int]:
        return self.w_x.data.shape[1], self.w_y.data.shape[1], self.w_x.data.shape[0]

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}w_x": self.w_x,
            f"{prefix}w_y": self.w_y,
            f"{prefix}bias": self.bias,
            f"{prefix}bn_gamma": self.gamma,
            f"{prefix}bn_beta": self.beta,
        }

    def norm_states(self, prefix: str = "") -> dict[str, BatchNormState]:
        return {f"{prefix}bn": self.state}


def make_broadcast_block(d_x: int, d_y: int, d_z: int, rng: RngState) -> BroadcastBlock:
    gen = rng.generator()
    bx = 1.0 / np.sqrt(d_x)
    by = 1.0 / np.sqrt(d_y)
    return BroadcastBlock(
        w_x=Tensor(gen.uniform(-bx, bx, size=(d_z, d_x)), requires_grad=True),
        w_y=Tensor(gen.uniform(-by, by, size=(d_z, d_y)), requires_grad=True),
        bias=Tensor(np.zeros(d_z), requires_grad=True),
        gamma=Tensor(np.ones(d_z), requires_grad=True),
        beta=Tensor(np.zeros(d_z), requires_grad=True),
        state=BatchNormState(d_z),
    )


def broadcast_batched(
    block: BroadcastBlock, x_flat: Tensor, y: Tensor, set_size: int, mode: str
) -> Tensor:
    """The whole block on stacked rows (B*N, d_x) with set features
    (B, d_y): ``relu(BN(x W_x^T + y W_y^T + b))``, each set's feature row
    tiled over its ``set_size`` rows.

    The small per-set row ``y W_y^T + b`` (B, d_z) is formed first and
    tiled; the rest is one fused op per mode. Train mode passes the tiled
    rows to ``batchnorm`` as a row-aligned bias of the GEMM it normalizes.
    Eval mode folds the stored statistics into ``W_x^T`` and the per-set
    row, then runs one ``affine``.
    """
    d_x, d_y, _ = block.widths
    if x_flat.data.ndim != 2 or x_flat.data.shape[1] != d_x:
        raise ValueError(f"expected stacked rows of width {d_x}, got shape {x_flat.data.shape}")
    if y.data.ndim != 2 or y.data.shape[1] != d_y:
        raise ValueError(f"expected batch features of width {d_y}, got shape {y.data.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    w = transpose(block.w_x)
    row = add(matmul(y, transpose(block.w_y)), block.bias)
    if mode == "train":
        b = tile_rows(row, set_size)
        return batchnorm(x_flat, block.gamma, block.beta, block.state, w=w, b=b, relu=True)
    w, row = _fold_batchnorm(w, row, block.gamma, block.beta, block.state)
    return affine(x_flat, w, tile_rows(row, set_size), relu=True)


@no_grad()
def per_element_contribution(block: AggregationBlock, element) -> np.ndarray:
    """One element's additive share of the aggregated feature matrix.

    Valid only when both MLPs act element-wise (no set softmax): then the
    aggregation is the sum over elements of these rank-<=1 outer products.
    Evaluated in eval mode, where each batchnorm is folded into its
    layer's weights and bias, so every layer is a fixed affine map.
    """
    if block.mlp1.uses_softmax_set() or block.mlp2.uses_softmax_set():
        raise ValueError(
            "per-element decomposition is invalid with set-softmax activations: "
            "they couple rows across the set"
        )
    row = element.data if isinstance(element, Tensor) else np.asarray(element, dtype=np.float64)
    row = row.reshape(1, -1)
    x = Tensor(row)
    h1 = block.mlp1.forward(x, "eval", set_size=1)
    h2 = block.mlp2.forward(x, "eval", set_size=1)
    return h1.data.T @ h2.data
