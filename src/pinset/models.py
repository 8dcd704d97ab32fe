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
    BroadcastBlock,
    Mlp,
    MlpSpec,
    aggregate,
    broadcast_batched,
    make_broadcast_block,
)
from .rng import RngState
from .tensor import BatchNormState, Tensor, reshape


@dataclass
class AggregationSpec:
    mlp1: MlpSpec
    mlp2: MlpSpec
    dropout_ratio: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.dropout_ratio < 1.0:
            raise ValueError(f"dropout ratio must be in [0, 1), got {self.dropout_ratio}")

    @property
    def feature_length(self) -> int:
        return self.mlp1.out_width * self.mlp2.out_width


@dataclass
class ModelConfig:
    task: str  # pixel-classification | point-classification | synthetic
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
        if self.broadcasts and self.aggregation2 is None:
            raise ValueError("broadcast blocks need a second aggregation to feed")
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


class Model:
    """Config bound to parameters; forward maps (B, N, p) sets to logits."""

    def __init__(self, config: ModelConfig, rng: RngState):
        self.config = config
        self.agg1 = AggregationBlock(
            mlp1=Mlp(config.aggregation.mlp1, rng.child("agg1", 0)),
            mlp2=Mlp(config.aggregation.mlp2, rng.child("agg1", 1)),
            dropout_ratio=config.aggregation.dropout_ratio,
        )
        self.broadcast_layers: list[BroadcastBlock] = []
        in_width = config.input_width
        for i, width in enumerate(config.broadcasts):
            self.broadcast_layers.append(
                make_broadcast_block(
                    in_width, config.aggregation.feature_length, width, rng.child("bc", i)
                )
            )
            in_width = width
        if config.aggregation2 is not None:
            self.agg2 = AggregationBlock(
                mlp1=Mlp(config.aggregation2.mlp1, rng.child("agg2", 0)),
                mlp2=Mlp(config.aggregation2.mlp2, rng.child("agg2", 1)),
                dropout_ratio=config.aggregation2.dropout_ratio,
            )
            if self.agg2.mlp1.spec.in_width != in_width:
                raise ValueError(
                    f"second aggregation expects width {self.agg2.mlp1.spec.in_width}, "
                    f"broadcast chain emits {in_width}"
                )
        else:
            self.agg2 = None
        self.head = Mlp(config.head, rng.child("head")) if config.head is not None else None

    def forward(self, sets, mode: str = "eval", gen: np.random.Generator | None = None) -> Tensor:
        """Logits (B, classes) of a batch of sets (B, N, p), or the (B, s*t)
        set features when the config has no head. Pass one set as (1, N, p).
        """
        x = sets if isinstance(sets, Tensor) else Tensor(np.asarray(sets, dtype=np.float64))
        if x.data.ndim != 3 or x.data.shape[2] != self.config.input_width:
            raise ValueError(
                f"expected sets of width {self.config.input_width}, got shape {x.data.shape}"
            )
        b, n, p = x.data.shape
        feature = aggregate(self.agg1, x, mode, gen)
        if self.broadcast_layers:
            z = reshape(x, (b * n, p))
            for block in self.broadcast_layers:
                z = broadcast_batched(block, z, feature, n, mode)
            width = z.data.shape[1]
            feature = aggregate(self.agg2, reshape(z, (b, n, width)), mode, gen)
        if self.head is None:
            return feature
        return self.head.forward(feature, mode)

    def parameters(self) -> dict[str, Tensor]:
        out = self.agg1.parameters("agg1.")
        for i, block in enumerate(self.broadcast_layers):
            out.update(block.parameters(f"bc{i}."))
        if self.agg2 is not None:
            out.update(self.agg2.parameters("agg2."))
        if self.head is not None:
            out.update(self.head.parameters("head."))
        return out

    def norm_states(self) -> dict[str, BatchNormState]:
        out = self.agg1.norm_states("agg1.")
        for i, block in enumerate(self.broadcast_layers):
            out.update(block.norm_states(f"bc{i}."))
        if self.agg2 is not None:
            out.update(self.agg2.norm_states("agg2."))
        if self.head is not None:
            out.update(self.head.norm_states("head."))
        return out


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
    dims = spec.layer_dims
    n_layers = len(dims) - 1
    for i in range(n_layers):
        linear = dims[i] * dims[i + 1] + (dims[i + 1] if spec.use_bias else 0)
        rows.append((f"{prefix}layer{i}.linear", linear))
        if spec.use_batchnorm and i < n_layers - 1:
            rows.append((f"{prefix}layer{i}.batchnorm", 2 * dims[i + 1]))
    extra = 2 * dims[-1] if spec.use_batchnorm else 0
    return rows, extra


def param_count(config: ModelConfig) -> ParamReport:
    """Exact trainable-scalar counts per layer, block, and in total."""
    rows: list[tuple[str, int]] = []
    by_block: dict[str, int] = {}
    final_norm_extra = 0

    def add_block(name: str, block_rows: list[tuple[str, int]]):
        nonlocal rows
        rows += block_rows
        by_block[name] = sum(c for _, c in block_rows)

    agg_rows: list[tuple[str, int]] = []
    for tag, spec in (("mlp1", config.aggregation.mlp1), ("mlp2", config.aggregation.mlp2)):
        r, extra = _mlp_counts(spec, f"agg1.{tag}.")
        agg_rows += r
        final_norm_extra += extra
    add_block("aggregation", agg_rows)

    in_width = config.input_width
    for i, width in enumerate(config.broadcasts):
        bc_rows = [
            (f"bc{i}.w_x", width * in_width),
            (f"bc{i}.w_y", width * config.aggregation.feature_length),
            (f"bc{i}.bias", width),
            (f"bc{i}.batchnorm", 2 * width),
        ]
        add_block(f"broadcast{i}", bc_rows)
        in_width = width

    if config.aggregation2 is not None:
        agg2_rows: list[tuple[str, int]] = []
        for tag, spec in (
            ("mlp1", config.aggregation2.mlp1),
            ("mlp2", config.aggregation2.mlp2),
        ):
            r, extra = _mlp_counts(spec, f"agg2.{tag}.")
            agg2_rows += r
            final_norm_extra += extra
        add_block("aggregation2", agg2_rows)

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
    return MlpSpec(list(dims), hidden_activation="relu", final_activation="softmax_set")


def point_ablation_config(s: int, t: int) -> ModelConfig:
    """Point-set feature extractor used for the factorization table: two
    MLPs with hidden widths 32 and 128 on 6-channel elements, no head."""
    return ModelConfig(
        task="point-classification",
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
        task="pixel-classification",
        input_width=input_width,
        class_count=class_count,
        aggregation=AggregationSpec(
            mlp1=_softmax_mlp([input_width, 64, 128, 32]),
            mlp2=_softmax_mlp([input_width, 64, 128, 32]),
        ),
        head=MlpSpec([1024, 256, class_count]),
    )


def pixel_l_config(input_width: int = 3, class_count: int = 10) -> ModelConfig:
    """Large pixel-set classifier: aggregation, two broadcast blocks, a
    second aggregation, and a wider head. No parameters are shared."""
    return ModelConfig(
        task="pixel-classification",
        input_width=input_width,
        class_count=class_count,
        aggregation=AggregationSpec(
            mlp1=_softmax_mlp([input_width, 64, 128, 32]),
            mlp2=_softmax_mlp([input_width, 64, 128, 32]),
        ),
        broadcasts=[256, 256],
        aggregation2=AggregationSpec(
            mlp1=_softmax_mlp([256, 64, 128, 32]),
            mlp2=_softmax_mlp([256, 64, 128, 32]),
        ),
        head=MlpSpec([1024, 512, class_count]),
    )


def quadrant_config() -> ModelConfig:
    """Classifier for the synthetic quadrant-majority task."""
    return ModelConfig(
        task="synthetic",
        input_width=2,
        class_count=4,
        aggregation=AggregationSpec(
            mlp1=_softmax_mlp([2, 16, 16]),
            mlp2=_softmax_mlp([2, 16, 16]),
        ),
        head=MlpSpec([256, 64, 4]),
    )


def digits_config(class_count: int = 10) -> ModelConfig:
    """Classifier sized for small grayscale digit images as pixel sets."""
    return ModelConfig(
        task="pixel-classification",
        input_width=3,
        class_count=class_count,
        aggregation=AggregationSpec(
            mlp1=_softmax_mlp([3, 32, 64, 16]),
            mlp2=_softmax_mlp([3, 32, 64, 16]),
        ),
        head=MlpSpec([256, 64, class_count]),
    )


def gradcheck_config() -> ModelConfig:
    """Sub-1k-parameter variant of the small pixel classifier, small
    enough for exhaustive finite-difference verification."""
    return ModelConfig(
        task="synthetic",
        input_width=3,
        class_count=4,
        aggregation=AggregationSpec(
            mlp1=_softmax_mlp([3, 8, 6]),
            mlp2=_softmax_mlp([3, 8, 6]),
            dropout_ratio=0.0,
        ),
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
    out[f"{prefix}.hidden_act"] = spec.hidden_activation
    out[f"{prefix}.final_act"] = spec.final_activation
    out[f"{prefix}.batchnorm"] = _bool_str(spec.use_batchnorm)
    out[f"{prefix}.bias"] = _bool_str(spec.use_bias)


def _mlp_from_flat(prefix: str, d: dict[str, str]) -> MlpSpec:
    return MlpSpec(
        layer_dims=[int(x) for x in d[f"{prefix}.dims"].split(",")],
        hidden_activation=d[f"{prefix}.hidden_act"],
        final_activation=d[f"{prefix}.final_act"],
        use_batchnorm=_parse_bool(d[f"{prefix}.batchnorm"]),
        use_bias=_parse_bool(d[f"{prefix}.bias"]),
    )


def config_to_flat(cfg: ModelConfig) -> dict[str, str]:
    """Serialize a model config to flat string pairs (exact round trip)."""
    out: dict[str, str] = {
        "model.task": cfg.task,
        "model.input_width": str(cfg.input_width),
        "model.class_count": str(cfg.class_count),
        "model.agg.dropout": repr(cfg.aggregation.dropout_ratio),
    }
    _mlp_to_flat("model.agg.mlp1", cfg.aggregation.mlp1, out)
    _mlp_to_flat("model.agg.mlp2", cfg.aggregation.mlp2, out)
    if cfg.broadcasts:
        out["model.broadcasts.widths"] = ",".join(str(w) for w in cfg.broadcasts)
    if cfg.aggregation2 is not None:
        out["model.agg2.dropout"] = repr(cfg.aggregation2.dropout_ratio)
        _mlp_to_flat("model.agg2.mlp1", cfg.aggregation2.mlp1, out)
        _mlp_to_flat("model.agg2.mlp2", cfg.aggregation2.mlp2, out)
    if cfg.head is not None:
        _mlp_to_flat("model.head", cfg.head, out)
    return out


def _check_retired(d: dict[str, str]) -> None:
    """Earlier versions wrote four more keys. At the values every model
    had they are ignored; any other value described a model this code
    cannot build, so it is refused rather than loaded as a different one."""
    for key, value in d.items():
        stem, _, name = key.rpartition(".")
        if name == "classifier_tail":
            # the last layer was plain linear, as it is now when final_act is none
            ok = value == "false" or d.get(f"{stem}.final_act") == "none"
        elif name == "batchnorm_final":
            ok = value == "false"
        elif key == "model.broadcasts.batchnorm":
            ok = value == "true"
        elif key == "model.broadcasts.activation":
            ok = value == "relu"
        else:
            continue
        if not ok:
            raise ValueError(f"{key} = {value}: a retired option this version cannot build")


def config_from_flat(d: dict[str, str]) -> ModelConfig:
    """Inverse of :func:`config_to_flat`; also reads the metadata of
    earlier versions (see :func:`_check_retired`)."""
    _check_retired(d)
    aggregation = AggregationSpec(
        mlp1=_mlp_from_flat("model.agg.mlp1", d),
        mlp2=_mlp_from_flat("model.agg.mlp2", d),
        dropout_ratio=float(d["model.agg.dropout"]),
    )
    broadcasts = []
    if "model.broadcasts.widths" in d:
        broadcasts = [int(w) for w in d["model.broadcasts.widths"].split(",")]
    aggregation2 = None
    if "model.agg2.mlp1.dims" in d:
        aggregation2 = AggregationSpec(
            mlp1=_mlp_from_flat("model.agg2.mlp1", d),
            mlp2=_mlp_from_flat("model.agg2.mlp2", d),
            dropout_ratio=float(d["model.agg2.dropout"]),
        )
    head = _mlp_from_flat("model.head", d) if "model.head.dims" in d else None
    return ModelConfig(
        task=d["model.task"],
        input_width=int(d["model.input_width"]),
        class_count=int(d["model.class_count"]),
        aggregation=aggregation,
        head=head,
        broadcasts=broadcasts,
        aggregation2=aggregation2,
    )
