"""Command-line entry point.

    pinset <train|eval|verify|decompose|params> --config <path> --seed <u64>
           --out <dir> [--set key=value ...]

Exit codes: 0 success, 1 configuration error, 2 data error, 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import verify as verify_mod
from .blocks import ACTIVATION_KINDS
from .config import ConfigError, Field, parse_override, read_config, validate
from .data import (
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    SetBatch,
    SyntheticTaskSpec,
    load_mnist_idx,
    make_synthetic_task,
    pixel_set_batch,
)
from .decomp import (
    CardinalityError,
    ConditioningWarning,
    RankDeficiencyError,
    cp_decompose,
)
from .models import (
    PRESETS,
    TABLE_FACTORIZATIONS,
    AggregationSpec,
    MlpSpec,
    ModelConfig,
    build_model,
    param_count,
    point_ablation_config,
)
from .rng import RngState
from .textio import TextTensorError, read_tensor, write_tensor
from .train import (
    CheckpointError,
    DivergenceError,
    TrainConfig,
    check_sizes,
    evaluate,
    load_checkpoint,
    train,
    write_metrics,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

_DATA_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    IdxFormatError,
    IdxTruncatedError,
    IdxCountMismatchError,
    TextTensorError,
    CheckpointError,
)


_MODEL_KEYS = {
    "model.preset": Field("str", required=True, choices=tuple(PRESETS) + ("custom",)),
    "model.input_width": Field("int", 0),
    "model.classes": Field("int", 0),
    "model.agg.mlp1": Field("intlist"),
    "model.agg.mlp2": Field("intlist"),
    "model.agg.act1": Field("str", "softmax_set", choices=ACTIVATION_KINDS),
    "model.agg.act2": Field("str", "softmax_set", choices=ACTIVATION_KINDS),
    "model.agg.batchnorm": Field("bool", True),
    "model.agg.dropout": Field("float", 0.1),
    "model.head": Field("intlist"),
}

_DATA_KEYS = {
    "task": Field("str", required=True, choices=("quadrant", "pixel-idx")),
    "data.train_size": Field("int", 2000),
    "data.test_size": Field("int", 500),
    "data.set_size": Field("int", 32),
    "data.margin": Field("float", 0.15),
    "data.train_images": Field("str", ""),
    "data.train_labels": Field("str", ""),
    "data.test_images": Field("str", ""),
    "data.test_labels": Field("str", ""),
    "data.downsample": Field("int", 1),
    "data.shuffle_pixels": Field("bool", True),
}

_TRAIN_KEYS = {
    "optimizer.lr": Field("float", 0.01),
    "optimizer.momentum": Field("float", 0.9),
    "optimizer.weight_decay": Field("float", 1e-4),
    "train.epochs": Field("int", 20),
    "train.batch_size": Field("int", 32),
    "train.lr_drop_epoch": Field("int", 200),
    "train.warmup_epochs": Field("int", 0),
    "train.checkpoint_every": Field("int", 0),
}

TRAIN_SCHEMA = {**_DATA_KEYS, **_MODEL_KEYS, **_TRAIN_KEYS}
# eval reuses train config files; the model section is read from the checkpoint
EVAL_SCHEMA = {**TRAIN_SCHEMA, "eval.checkpoint": Field("str", required=True)}
PARAMS_SCHEMA = {
    "params.preset": Field("str", required=True, choices=tuple(PRESETS) + ("table6",)),
    "params.factorization": Field("str", "sweep"),
}
DECOMPOSE_SCHEMA = {
    "decompose.input": Field("str", ""),
    "decompose.components": Field("int", 0),
}


def _load_config(args, schema) -> dict:
    raw = read_config(args.config) if args.config else {}
    for item in args.set or []:
        key, value = parse_override(item)
        raw[key] = value
    return validate(raw, schema)


def _build_custom_model_config(cfg: dict) -> ModelConfig:
    required = ("model.input_width", "model.classes", "model.agg.mlp1", "model.agg.mlp2", "model.head")
    for key in required:
        if not cfg.get(key):
            raise ConfigError(f"custom model needs {key!r}", key=key)
    p = cfg["model.input_width"]
    classes = cfg["model.classes"]
    try:
        mlp1 = MlpSpec(
            [p] + cfg["model.agg.mlp1"],
            final_activation=cfg["model.agg.act1"],
            use_batchnorm=cfg["model.agg.batchnorm"],
        )
        mlp2 = MlpSpec(
            [p] + cfg["model.agg.mlp2"],
            final_activation=cfg["model.agg.act2"],
            use_batchnorm=cfg["model.agg.batchnorm"],
        )
        feature = mlp1.out_width * mlp2.out_width
        return ModelConfig(
            task="synthetic",
            input_width=p,
            class_count=classes,
            aggregation=AggregationSpec(mlp1, mlp2, cfg["model.agg.dropout"]),
            head=MlpSpec([feature] + cfg["model.head"] + [classes]),
        )
    except ValueError as exc:
        raise ConfigError(f"custom model: {exc}") from exc


def _model_config_from(cfg: dict) -> ModelConfig:
    preset = cfg["model.preset"]
    if preset == "custom":
        return _build_custom_model_config(cfg)
    return PRESETS[preset]()


def _load_task_data(cfg: dict, seed: int) -> tuple[SetBatch, SetBatch]:
    # 0 means every image on pixel-idx; a negative size is an error on both tasks
    for key in ("data.train_size", "data.test_size"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}", key=key)
    if cfg["task"] == "quadrant":
        spec = SyntheticTaskSpec(
            set_size=cfg["data.set_size"],
            train_size=cfg["data.train_size"],
            test_size=cfg["data.test_size"],
            seed=seed,
            margin=cfg["data.margin"],
        )
        return make_synthetic_task(spec)

    for key in ("data.train_images", "data.train_labels", "data.test_images", "data.test_labels"):
        if not cfg[key]:
            raise ConfigError(f"pixel-idx task needs {key!r}", key=key)
        if not os.path.exists(cfg[key]):
            raise FileNotFoundError(f"{key}: no such file {cfg[key]!r}")
    rng = RngState(seed)
    images, labels = load_mnist_idx(cfg["data.train_images"], cfg["data.train_labels"])
    k = min(cfg["data.train_size"], images.shape[0]) if cfg["data.train_size"] else images.shape[0]
    train_batch = pixel_set_batch(
        images[:k],
        labels[:k],
        rng.child("train-pixels") if cfg["data.shuffle_pixels"] else None,
        downsample=cfg["data.downsample"],
    )
    images, labels = load_mnist_idx(cfg["data.test_images"], cfg["data.test_labels"])
    k = min(cfg["data.test_size"], images.shape[0]) if cfg["data.test_size"] else images.shape[0]
    test_batch = pixel_set_batch(
        images[:k],
        labels[:k],
        rng.child("test-pixels") if cfg["data.shuffle_pixels"] else None,
        downsample=cfg["data.downsample"],
    )
    return train_batch, test_batch


def _check_data_fits(config: ModelConfig, *batches: SetBatch) -> None:
    """The model must read the data's element width and have a logit for
    every label."""
    for batch in batches:
        if batch.sets.shape[2] != config.input_width:
            raise ConfigError(
                f"model expects element width {config.input_width}, "
                f"data has width {batch.sets.shape[2]}"
            )
        if batch.size and batch.labels.max() >= config.class_count:
            raise ConfigError(
                f"data has label {batch.labels.max()}, "
                f"model has {config.class_count} classes"
            )


def cmd_train(args) -> int:
    cfg = _load_config(args, TRAIN_SCHEMA)
    train_batch, test_batch = _load_task_data(cfg, args.seed)
    model_config = _model_config_from(cfg)
    _check_data_fits(model_config, train_batch, test_batch)
    check_sizes(train_batch, test_batch)
    train_cfg = TrainConfig(
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        lr=cfg["optimizer.lr"],
        momentum=cfg["optimizer.momentum"],
        weight_decay=cfg["optimizer.weight_decay"],
        lr_drop_epoch=cfg["train.lr_drop_epoch"],
        warmup_epochs=cfg["train.warmup_epochs"],
        checkpoint_every=cfg["train.checkpoint_every"],
    )
    rng = RngState(args.seed)
    model = build_model(model_config, rng.child("model"))
    os.makedirs(args.out, exist_ok=True)
    history = train(model, train_batch, test_batch, train_cfg, rng.child("train"), out_dir=args.out)
    write_metrics(os.path.join(args.out, "metrics.csv"), history)
    final = [row for row in history if row["split"] == "eval"]
    if final:
        print(
            f"trained {train_cfg.epochs} epochs; final eval accuracy "
            f"{final[-1]['accuracy']:.4f} (error rate {final[-1]['error_rate']:.4f})"
        )
    print(f"metrics: {os.path.join(args.out, 'metrics.csv')}")
    print(f"checkpoint: {os.path.join(args.out, 'checkpoint.dmpp')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args, EVAL_SCHEMA)
    model, _, epoch, _ = load_checkpoint(cfg["eval.checkpoint"])
    _, test_batch = _load_task_data(cfg, args.seed)
    _check_data_fits(model.config, test_batch)
    metrics = evaluate(model, test_batch)
    metrics["epoch"] = epoch
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify_mod.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = verify_mod.run_suites(names, args.seed)
    for res in results:
        for prop in res.properties:
            print(verify_mod.format_property_line(res.suite, prop))
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "verify_report.json")
    with open(report_path, "w") as f:
        f.write(verify_mod.report_json(results, args.seed))
    passed = all(r.passed for r in results)
    print(f"verify: {'all properties passed' if passed else 'FAILURES'}; report: {report_path}")
    return EXIT_OK if passed else EXIT_CONFIG


def cmd_decompose(args) -> int:
    cfg = _load_config(args, DECOMPOSE_SCHEMA)
    input_path = args.input or cfg["decompose.input"]
    components = args.components or cfg["decompose.components"]
    if not input_path:
        raise ConfigError("decompose needs an input tensor (--input or decompose.input)")
    if not components:
        raise ConfigError("decompose needs a component count (--components or decompose.components)")
    tensor = read_tensor(input_path)
    try:
        # the text comes back on the result; it is printed once on success
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            factors = cp_decompose(tensor, components)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"{components} components requested, but the linear system is "
            f"rank-deficient: {exc}",
            detected_rank=exc.detected_rank,
        ) from exc
    if factors.conditioning_warning:
        print(f"warning: {factors.conditioning_warning}", file=sys.stderr)
    rel = factors.rel_residual

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(input_path))[0]
    paths = []
    for j, factor in enumerate(factors.factors):
        path = os.path.join(args.out, f"{stem}.factor{j}.txt")
        write_tensor(path, factor)
        paths.append(path)
    report = {
        "input": str(input_path),
        "components": components,
        "dims": list(factors.dims),
        "factors": paths,
        "reconstruction_relative_error": rel,
        "condition": factors.condition,
        "conditioning_warning": factors.conditioning_warning,
    }
    report_path = os.path.join(args.out, f"{stem}.decompose.json")
    with open(report_path, "w") as f:
        json.dump(report, f, indent=2)
    print(f"wrote {len(paths)} factors; reconstruction relative error {rel:.3e}")
    print(f"report: {report_path}")
    return EXIT_OK


def _print_report(name: str, report) -> dict:
    print(f"{name}:")
    for row_name, count in report.rows:
        print(f"  {row_name:32s} {count:>10,d}")
    print(f"  {'total':32s} {report.total:>10,d}")
    print(f"  {'total (+final-layer norm)':32s} {report.total_with_final_norm:>10,d}")
    return {
        "name": name,
        "total": report.total,
        "total_with_final_norm": report.total_with_final_norm,
        "by_block": report.by_block,
    }


def cmd_params(args) -> int:
    cfg = _load_config(args, PARAMS_SCHEMA)
    preset = cfg["params.preset"]
    entries = []
    if preset == "table6":
        spec = cfg["params.factorization"]
        if spec == "sweep":
            pairs = TABLE_FACTORIZATIONS
        else:
            try:
                s, t = (int(v) for v in spec.lower().split("x"))
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for params.factorization: {spec!r}", key="params.factorization"
                ) from exc
            if s < 1 or t < 1:
                raise ConfigError(
                    f"params.factorization needs positive widths, got {spec!r}", key="params.factorization"
                )
            pairs = [(s, t)]
        for s, t in pairs:
            report = param_count(point_ablation_config(s, t))
            entries.append(_print_report(f"{s}x{t}", report))
    else:
        report = param_count(PRESETS[preset]())
        entries.append(_print_report(preset, report))
    print(json.dumps({"reports": entries}, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pinset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    common(sub.add_parser("train", help="train a model"))
    common(sub.add_parser("eval", help="evaluate a checkpoint"))
    p_verify = sub.add_parser("verify", help="run property suites")
    common(p_verify)
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=("all",) + verify_mod.SUITE_NAMES,
        help="which suite to run",
    )
    p_dec = sub.add_parser("decompose", help="sum-product decomposition of a text tensor")
    common(p_dec)
    p_dec.add_argument("--input", default=None, help="input TextTensor path")
    p_dec.add_argument("--components", type=int, default=None, help="component count N")
    common(sub.add_parser("params", help="parameter-count report"))
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "params": cmd_params,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in u64", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CardinalityError, RankDeficiencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
