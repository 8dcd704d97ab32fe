"""Assembled classifiers and parameter accounting.

A model is one aggregation block, optionally followed by broadcast blocks
feeding a second aggregation, and a classifier head on the flattened set
feature. Parameter counts are computed symbolically from the config so
they can be cross-checked against the actual parameter arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    AggregationBlock,
    AggregationSpec,
    Block,
    BroadcastBlock,
    Mlp,
    MlpSpec,
    Named,
    _column_rows,
    aggregate,
    broadcast_batched,
)
from .rng import RngState
from .tensor import Tensor, no_grad, reshape


@dataclass
class ModelConfig:
    input_width: int
    class_count: int
    aggregation: AggregationSpec
    head: MlpSpec | None = None
    broadcasts: list[int] = field(default_factory=list)  # widths, batchnorm + relu each
    aggregation2: AggregationSpec | None = None

    def __post_init__(self):
        if self.aggregation.mlp1.in_width != self.input_width:
            raise ValueError(
                f"aggregation expects width {self.aggregation.mlp1.in_width}, "
                f"config declares input width {self.input_width}"
            )
        if bool(self.broadcasts) != (self.aggregation2 is not None):
            raise ValueError("broadcast blocks and a second aggregation come only together")
        if self.aggregation2 is not None and self.aggregation2.mlp1.in_width != self.broadcasts[-1]:
            raise ValueError(
                f"second aggregation expects width {self.aggregation2.mlp1.in_width}, "
                f"broadcast chain emits {self.broadcasts[-1]}"
            )
        feature = self.feature_length
        if self.head is not None and self.head.in_width != feature:
            raise ValueError(
                f"head expects width {self.head.in_width}, feature length is {feature}"
            )
        if self.head is not None and self.head.out_width != self.class_count:
            raise ValueError(
                f"head emits {self.head.out_width} logits for {self.class_count} classes"
            )

    @property
    def feature_length(self) -> int:
        last = self.aggregation2 if self.aggregation2 is not None else self.aggregation
        return last.feature_length

    def broadcast_widths(self) -> list[tuple[int, int, int]]:
        """``(d_x, d_y, d_z)`` of each broadcast block: each reads the
        previous block's rows and the first aggregation's feature."""
        d_x = [self.input_width] + self.broadcasts[:-1]
        d_y = self.aggregation.feature_length
        return [(a, d_y, d_z) for a, d_z in zip(d_x, self.broadcasts)]


class Model(Block):
    """Config bound to parameters; forward maps (B, N, p) sets to logits."""

    def __init__(self, config: ModelConfig, rng: RngState):
        self.config = config
        self.agg1 = AggregationBlock(config.aggregation, rng.child("agg1"))
        self.broadcast_layers = [
            BroadcastBlock(*widths, rng.child("bc", i))
            for i, widths in enumerate(config.broadcast_widths())
        ]
        self.agg2 = None
        if config.aggregation2 is not None:
            self.agg2 = AggregationBlock(config.aggregation2, rng.child("agg2"))
        self.head = Mlp(config.head, rng.child("head")) if config.head is not None else None

    def forward(self, sets, mode: str = "eval", gen: np.random.Generator | None = None) -> Tensor:
        """Logits (B, classes) of a batch of sets (B, N, p): the head on
        :meth:`features`, or the features themselves when the config has
        no head. Pass one set as (1, N, p).
        """
        feature = self.features(sets, mode, gen)
        if self.head is None:
            return feature
        return self.head.forward(feature, mode)

    def features(self, sets, mode: str = "eval", gen: np.random.Generator | None = None) -> Tensor:
        """The (B, s*t) set features of a batch of sets (B, N, p):
        everything before the head.

        These are the per-element stages: ``agg1``, then the broadcast
        blocks, then ``agg2``; :meth:`eval_logits` runs them on blocks of
        whole sets. The sets become column-major rows (B*N, p) once, which
        ``agg1`` and the broadcast chain read.
        """
        x = sets if isinstance(sets, Tensor) else Tensor(np.asarray(sets, dtype=np.float64))
        if x.data.ndim != 3 or x.data.shape[2] != self.config.input_width:
            raise ValueError(
                f"expected sets of width {self.config.input_width}, got shape {x.data.shape}"
            )
        b, n, p = x.data.shape
        z = _column_rows(reshape(x, (b * n, p)))
        feature = aggregate(self.agg1, z, n, mode, gen)
        if self.broadcast_layers:
            for block in self.broadcast_layers:
                z = broadcast_batched(block, z, feature, mode)
            feature = aggregate(self.agg2, z, n, mode, gen)
        return feature

    @no_grad()
    def eval_logits(self, sets: np.ndarray, block_rows: int) -> Tensor:
        """Eval-mode logits (B, classes) of sets (B, N, p), without a tape:
        :meth:`features` on near-equal blocks of whole sets, at most about
        ``block_rows`` rows and at least one set each, then the head once
        on the joined features (or those features, without a head).

        Bit rule (numpy's bundled OpenBLAS, SkylakeX kernels, 1 thread):
        eval mode folds every batchnorm, so a set's feature depends only on
        its rows. Element products get N rows or more in any block, and by
        ``tensor._product``'s tail rule each row keeps its bits for any
        split, unless the layer has one output column (GEMV; in no preset).
        Set-level products get a row per set, and a call of 1 row, or of 2
        or 3 rows at 1024 -> 256, rounds otherwise: on ``pixel-l``, whose
        broadcast rows ``y W_y`` are such products, blocks of 1 to 3 sets
        moved ``bc0``'s output by up to 2.2e-16 and the logits by up to
        8.3e-17 against one block of 32 sets; blocks of 4 or more sets kept
        every bit, at N = 49 and 196. The head's narrow logit layers round
        otherwise for almost any split, so the head runs once. One block
        (``block_rows`` >= B*N) is ``forward(sets, "eval")`` bit for bit.
        """
        b = sets.shape[0]
        n = min(b, -(-b * sets.shape[1] // block_rows))
        parts = [self.features(sets[i * b // n : (i + 1) * b // n], "eval") for i in range(n)]
        feature = parts[0] if n == 1 else Tensor(np.concatenate([part.data for part in parts]))
        return feature if self.head is None else self.head.forward(feature, "eval")

    def named(self, prefix: str = "") -> Named:
        """Every block's tensors, in forward order."""
        yield from self.agg1.named(f"{prefix}agg1.")
        for i, block in enumerate(self.broadcast_layers):
            yield from block.named(f"{prefix}bc{i}.")
        if self.agg2 is not None:
            yield from self.agg2.named(f"{prefix}agg2.")
        if self.head is not None:
            yield from self.head.named(f"{prefix}head.")


def build_model(config: ModelConfig, rng: RngState) -> Model:
    """Initialize a model deterministically from the seed."""
    return Model(config, rng)


# ---------------------------------------------------------------------------
# parameter accounting


@dataclass
class ParamReport:
    rows: list[tuple[str, int]]
    total: int
    by_block: dict[str, int]
    # alternate count with scale/shift also on each aggregation MLP's
    # final layer; reported alongside because published totals for this
    # architecture family follow that convention
    total_with_final_norm: int


def _mlp_counts(spec: MlpSpec, prefix: str) -> tuple[list[tuple[str, int]], int]:
    rows = []
    for i, (d_in, d_out, has_bn, _) in enumerate(spec.layers()):
        rows.append((f"{prefix}layer{i}.linear", d_in * d_out + (d_out if spec.use_bias else 0)))
        if has_bn:
            rows.append((f"{prefix}layer{i}.batchnorm", 2 * d_out))
    extra = 2 * spec.out_width if spec.use_batchnorm else 0
    return rows, extra


def _aggregation_counts(spec: AggregationSpec, prefix: str) -> tuple[list[tuple[str, int]], int]:
    rows1, extra1 = _mlp_counts(spec.mlp1, f"{prefix}mlp1.")
    rows2, extra2 = _mlp_counts(spec.mlp2, f"{prefix}mlp2.")
    return rows1 + rows2, extra1 + extra2


def param_count(config: ModelConfig) -> ParamReport:
    """Exact trainable-scalar counts per layer, block, and in total."""
    rows: list[tuple[str, int]] = []
    by_block: dict[str, int] = {}
    final_norm_extra = 0

    def add_block(name: str, block_rows: list[tuple[str, int]], extra: int = 0):
        nonlocal rows, final_norm_extra
        rows += block_rows
        by_block[name] = sum(c for _, c in block_rows)
        final_norm_extra += extra

    add_block("aggregation", *_aggregation_counts(config.aggregation, "agg1."))

    for i, (d_x, d_y, d_z) in enumerate(config.broadcast_widths()):
        bc_rows = [
            (f"bc{i}.w_x", d_z * d_x),
            (f"bc{i}.w_y", d_z * d_y),
            (f"bc{i}.bias", d_z),
            (f"bc{i}.batchnorm", 2 * d_z),
        ]
        add_block(f"broadcast{i}", bc_rows)

    if config.aggregation2 is not None:
        add_block("aggregation2", *_aggregation_counts(config.aggregation2, "agg2."))

    if config.head is not None:
        head_rows, _ = _mlp_counts(config.head, "head.")
        add_block("head", head_rows)

    total = sum(c for _, c in rows)
    return ParamReport(
        rows=rows,
        total=total,
        by_block=by_block,
        total_with_final_norm=total + final_norm_extra,
    )


# ---------------------------------------------------------------------------
# presets

TABLE_FACTORIZATIONS = [(1, 1024), (2, 512), (4, 256), (8, 128), (16, 64), (32, 32)]


def _softmax_mlp(dims) -> MlpSpec:
    return MlpSpec(list(dims), final_activation="softmax_set")


def _twin_aggregation(dims, dropout_ratio: float = 0.1) -> AggregationSpec:
    """Two set-softmax MLPs of the same widths."""
    return AggregationSpec(_softmax_mlp(dims), _softmax_mlp(dims), dropout_ratio)


def point_ablation_config(s: int, t: int) -> ModelConfig:
    """Point-set feature extractor used for the factorization table: two
    MLPs with hidden widths 32 and 128 on 6-channel elements, no head."""
    return ModelConfig(
        input_width=6,
        class_count=0,
        aggregation=AggregationSpec(
            mlp1=_softmax_mlp([6, 32, 128, s]),
            mlp2=_softmax_mlp([6, 32, 128, t]),
        ),
    )


def pixel_s_config(input_width: int = 3, class_count: int = 10) -> ModelConfig:
    """Small pixel-set classifier: one aggregation block and a head."""
    return ModelConfig(
        input_width=input_width,
        class_count=class_count,
        aggregation=_twin_aggregation([input_width, 64, 128, 32]),
        head=MlpSpec([1024, 256, class_count]),
    )


def pixel_l_config(input_width: int = 3, class_count: int = 10) -> ModelConfig:
    """Large pixel-set classifier: aggregation, two broadcast blocks, a
    second aggregation, and a wider head. No parameters are shared."""
    return ModelConfig(
        input_width=input_width,
        class_count=class_count,
        aggregation=_twin_aggregation([input_width, 64, 128, 32]),
        broadcasts=[256, 256],
        aggregation2=_twin_aggregation([256, 64, 128, 32]),
        head=MlpSpec([1024, 512, class_count]),
    )


def quadrant_config() -> ModelConfig:
    """Classifier for the synthetic quadrant-majority task."""
    return ModelConfig(
        input_width=2,
        class_count=4,
        aggregation=_twin_aggregation([2, 16, 16]),
        head=MlpSpec([256, 64, 4]),
    )


def digits_config(class_count: int = 10) -> ModelConfig:
    """Classifier sized for small grayscale digit images as pixel sets."""
    return ModelConfig(
        input_width=3,
        class_count=class_count,
        aggregation=_twin_aggregation([3, 32, 64, 16]),
        head=MlpSpec([256, 64, class_count]),
    )


def gradcheck_config() -> ModelConfig:
    """Sub-1k-parameter variant of the small pixel classifier, small
    enough for exhaustive finite-difference verification."""
    return ModelConfig(
        input_width=3,
        class_count=4,
        aggregation=_twin_aggregation([3, 8, 6], dropout_ratio=0.0),
        head=MlpSpec([36, 12, 4]),
    )


PRESETS = {
    "pixel-s": pixel_s_config,
    "pixel-l": pixel_l_config,
    "quadrant": quadrant_config,
    "digits": digits_config,
    "gradcheck": gradcheck_config,
}


# ---------------------------------------------------------------------------
# flat serialization (checkpoints, config files)


def _bool_str(v: bool) -> str:
    return "true" if v else "false"


def _parse_bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise ValueError(f"expected true/false, got {s!r}")
    return s == "true"


def _mlp_to_flat(prefix: str, spec: MlpSpec, out: dict[str, str]) -> None:
    out[f"{prefix}.dims"] = ",".join(str(d) for d in spec.layer_dims)
    out[f"{prefix}.final_act"] = spec.final_activation
    out[f"{prefix}.batchnorm"] = _bool_str(spec.use_batchnorm)
    out[f"{prefix}.bias"] = _bool_str(spec.use_bias)


def _mlp_from_flat(prefix: str, d: dict[str, str]) -> MlpSpec:
    return MlpSpec(
        layer_dims=[int(x) for x in d[f"{prefix}.dims"].split(",")],
        final_activation=d[f"{prefix}.final_act"],
        use_batchnorm=_parse_bool(d[f"{prefix}.batchnorm"]),
        use_bias=_parse_bool(d[f"{prefix}.bias"]),
    )


def _aggregation_to_flat(prefix: str, spec: AggregationSpec, out: dict[str, str]) -> None:
    out[f"{prefix}.dropout"] = repr(spec.dropout_ratio)
    _mlp_to_flat(f"{prefix}.mlp1", spec.mlp1, out)
    _mlp_to_flat(f"{prefix}.mlp2", spec.mlp2, out)


def _aggregation_from_flat(prefix: str, d: dict[str, str]) -> AggregationSpec:
    return AggregationSpec(
        mlp1=_mlp_from_flat(f"{prefix}.mlp1", d),
        mlp2=_mlp_from_flat(f"{prefix}.mlp2", d),
        dropout_ratio=float(d[f"{prefix}.dropout"]),
    )


def config_to_flat(cfg: ModelConfig) -> dict[str, str]:
    """Serialize a model config to flat string pairs (exact round trip)."""
    out: dict[str, str] = {
        "model.input_width": str(cfg.input_width),
        "model.class_count": str(cfg.class_count),
    }
    _aggregation_to_flat("model.agg", cfg.aggregation, out)
    if cfg.broadcasts:
        out["model.broadcasts.widths"] = ",".join(str(w) for w in cfg.broadcasts)
    if cfg.aggregation2 is not None:
        _aggregation_to_flat("model.agg2", cfg.aggregation2, out)
    if cfg.head is not None:
        _mlp_to_flat("model.head", cfg.head, out)
    return out


def config_from_flat(d: dict[str, str]) -> ModelConfig:
    """Inverse of :func:`config_to_flat`. Every ``model.*`` key of ``d``
    must be one it reads: a key it would ignore is refused."""
    broadcasts = []
    if "model.broadcasts.widths" in d:
        broadcasts = [int(w) for w in d["model.broadcasts.widths"].split(",")]
    aggregation2 = None
    if "model.agg2.mlp1.dims" in d:
        aggregation2 = _aggregation_from_flat("model.agg2", d)
    head = _mlp_from_flat("model.head", d) if "model.head.dims" in d else None
    cfg = ModelConfig(
        input_width=int(d["model.input_width"]),
        class_count=int(d["model.class_count"]),
        aggregation=_aggregation_from_flat("model.agg", d),
        head=head,
        broadcasts=broadcasts,
        aggregation2=aggregation2,
    )
    unread = sorted(key for key in d.keys() - config_to_flat(cfg).keys() if key.startswith("model."))
    if unread:
        raise ValueError(f"unknown key {unread[0]}")
    return cfg
