"""Command-line entry point.

    pinset train     --config <path> [--set key=value ...] --seed <u64> --out <dir>
    pinset eval      --config <path> [--set key=value ...] --seed <u64>
    pinset verify    --suite <name> --seed <u64> --out <dir>
    pinset decompose --input <path> --components <count> --out <dir>
    pinset params    --config <path> [--set key=value ...]

Each command takes only the flags it reads. Exit codes: 0 success,
1 configuration error, 2 data error, 3 divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
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
    TensorInputError,
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
from .textio import TextTensorError, format_tensor, read_tensor
from .train import (
    CONFIG_KEYS as TRAIN_CONFIG_KEYS,
    CheckpointError,
    DivergenceError,
    TrainConfig,
    _write_atomic,
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
    OSError,
    IdxFormatError,
    IdxTruncatedError,
    IdxCountMismatchError,
    TextTensorError,
    TensorInputError,
    CheckpointError,
)


def _record_fields(record, keys: dict[str, str]) -> dict[str, Field]:
    """Schema entries for config keys that set fields of a dataclass
    ``record`` (key -> field name): kind and default come from the field."""
    fields = {f.name: f for f in dataclasses.fields(record)}
    return {key: Field(fields[name].type, fields[name].default) for key, name in keys.items()}


_MODEL_KEYS = {
    "model.preset": Field("str", required=True, choices=tuple(PRESETS) + ("custom",)),
    "model.input_width": Field("int", 0),
    "model.classes": Field("int", 0),
    "model.agg.mlp1": Field("intlist"),
    "model.agg.mlp2": Field("intlist"),
    "model.agg.act1": Field("str", "softmax_set", choices=ACTIVATION_KINDS),
    "model.agg.act2": Field("str", "softmax_set", choices=ACTIVATION_KINDS),
    **_record_fields(MlpSpec, {"model.agg.batchnorm": "use_batchnorm"}),
    **_record_fields(AggregationSpec, {"model.agg.dropout": "dropout_ratio"}),
    "model.head": Field("intlist"),
}

# the data keys that each task reads besides task, data.train_size and
# data.test_size, which both read
_TASK_KEYS = {
    "quadrant": _record_fields(SyntheticTaskSpec, {f"data.{name}": name for name in ("set_size", "margin")}),
    "pixel-idx": {
        "data.train_images": Field("str", ""),
        "data.train_labels": Field("str", ""),
        "data.test_images": Field("str", ""),
        "data.test_labels": Field("str", ""),
        "data.downsample": Field("int", 1),
        "data.shuffle_pixels": Field("bool", True),
    },
}

_DATA_KEYS = {
    "task": Field("str", required=True, choices=tuple(_TASK_KEYS)),
    **_record_fields(SyntheticTaskSpec, {f"data.{name}": name for name in ("train_size", "test_size")}),
    **{key: field for keys in _TASK_KEYS.values() for key, field in keys.items()},
}

TRAIN_SCHEMA = {**_DATA_KEYS, **_MODEL_KEYS, **_record_fields(TrainConfig, TRAIN_CONFIG_KEYS)}
# eval reuses train config files; the model comes from the checkpoint, so
# the model keys are accepted but none is needed
EVAL_SCHEMA = {
    **TRAIN_SCHEMA,
    "model.preset": dataclasses.replace(_MODEL_KEYS["model.preset"], required=False),
    "eval.checkpoint": Field("str", required=True),
}
PARAMS_SCHEMA = {
    "params.preset": Field("str", required=True, choices=tuple(PRESETS) + ("table6",)),
    "params.factorization": Field("str", "sweep"),
}


def _raw_config(args) -> dict[str, str]:
    raw = read_config(args.config) if args.config else {}
    for item in args.set:
        key, value = parse_override(item)
        raw[key] = value
    return raw


def _refuse_other_task_keys(raw: dict[str, str], task: str) -> None:
    """A data key that only the other task reads would be silently dropped."""
    for other, keys in _TASK_KEYS.items():
        for key in keys:
            if other != task and key in raw:
                raise ConfigError(f"{key} applies only to task = {other}", key=key)


# the keys that set a custom model's widths, each required
_CUSTOM_KEYS = ("model.input_width", "model.classes", "model.agg.mlp1", "model.agg.mlp2", "model.head")


def _build_custom_model_config(cfg: dict) -> ModelConfig:
    for key in _CUSTOM_KEYS:
        if not cfg.get(key):
            raise ConfigError(f"custom model needs {key!r}", key=key)
    p = cfg["model.input_width"]
    classes = cfg["model.classes"]
    try:
        mlp1, mlp2 = (
            MlpSpec([p] + cfg[f"model.agg.mlp{i}"], cfg[f"model.agg.act{i}"], cfg["model.agg.batchnorm"])
            for i in (1, 2)
        )
        aggregation = AggregationSpec(mlp1, mlp2, cfg["model.agg.dropout"])
        return ModelConfig(
            input_width=p,
            class_count=classes,
            aggregation=aggregation,
            head=MlpSpec([aggregation.feature_length] + cfg["model.head"] + [classes]),
        )
    except ValueError as exc:
        raise ConfigError(f"custom model: {exc}") from exc


def _load_split(cfg: dict, seed: int, split: str) -> SetBatch:
    """The ``split`` ("train" or "test") of the configured task. Nothing of
    the other split is read or drawn; streams are derived by path, so a
    split is the same whether or not the other one is loaded."""
    size_key = f"data.{split}_size"
    size = cfg[size_key]
    # 0 means every image on pixel-idx; a negative size is an error on both tasks
    if size < 0:
        raise ConfigError(f"{size_key} must be >= 0, got {size}", key=size_key)
    if cfg["task"] == "quadrant":
        spec = SyntheticTaskSpec(
            set_size=cfg["data.set_size"],
            train_size=size if split == "train" else 0,
            test_size=size if split == "test" else 0,
            seed=seed,
            margin=cfg["data.margin"],
        )
        with _allocatable(f"{size_key} = {size} sets of data.set_size = {spec.set_size} points", "data.set_size"):
            train_batch, test_batch = make_synthetic_task(spec)
        return train_batch if split == "train" else test_batch

    paths = (f"data.{split}_images", f"data.{split}_labels")
    for key in paths:
        if not cfg[key]:
            raise ConfigError(f"pixel-idx task needs {key!r}", key=key)
        if not os.path.exists(cfg[key]):
            raise FileNotFoundError(f"{key}: no such file {cfg[key]!r}")
    images, labels = load_mnist_idx(*(cfg[key] for key in paths))
    k = min(size, images.shape[0]) if size else images.shape[0]
    return pixel_set_batch(
        images[:k],
        labels[:k],
        RngState(seed).child(f"{split}-pixels") if cfg["data.shuffle_pixels"] else None,
        downsample=cfg["data.downsample"],
    )


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


@contextlib.contextmanager
def _allocatable(what: str, key: str, errors=(MemoryError, ValueError)):
    """Makes a failed allocation in the body one config error that names
    ``what`` and ``key``: numpy raises MemoryError when memory runs short
    and ValueError for a size no array can have (``errors`` leaves that
    out for a body that raises ValueError for other causes too)."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{what} cannot be allocated: {exc}", key=key) from exc


def _activations_fit(cfg: dict, *keys: str):
    """:func:`_allocatable` for a body that runs the model, naming the keys
    that size the activations: the task's set-size key and ``keys``."""
    set_key = "data.set_size" if cfg["task"] == "quadrant" else "data.downsample"
    sizes = ", ".join(f"{key} = {cfg[key]}" for key in (set_key, *keys))
    return _allocatable(f"the activations for {sizes}", set_key, MemoryError)


def cmd_train(args) -> int:
    raw = _raw_config(args)
    cfg = validate(raw, TRAIN_SCHEMA)
    _refuse_other_task_keys(raw, cfg["task"])
    if cfg["model.preset"] != "custom":
        # only a custom model reads them; a preset would silently drop them
        for key in raw:
            if key.startswith("model.") and key != "model.preset":
                raise ConfigError(f"{key} applies only to model.preset = custom", key=key)
    train_batch = _load_split(cfg, args.seed, "train")
    test_batch = _load_split(cfg, args.seed, "test")
    if cfg["model.preset"] == "custom":
        model_config = _build_custom_model_config(cfg)
        # named if the model cannot be allocated: the width key of its widest layer
        model_key = max(_CUSTOM_KEYS, key=lambda k: max(cfg[k]) if isinstance(cfg[k], list) else cfg[k])
    else:
        model_config, model_key = PRESETS[cfg["model.preset"]](), "model.preset"
    _check_data_fits(model_config, train_batch, test_batch)
    train_cfg = TrainConfig(**{name: cfg[key] for key, name in TRAIN_CONFIG_KEYS.items()})
    rng = RngState(args.seed)
    size = param_count(model_config).total
    with _allocatable(f"{model_key} = {raw[model_key]}: the model's {size:,} parameters", model_key):
        model = build_model(model_config, rng.child("model"))
    with _activations_fit(cfg, "train.batch_size"):
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
    raw = _raw_config(args)
    cfg = validate(raw, EVAL_SCHEMA)
    _refuse_other_task_keys(raw, cfg["task"])
    model, _, epoch, _ = load_checkpoint(cfg["eval.checkpoint"])
    test_batch = _load_split(cfg, args.seed, "test")
    if not test_batch.size:
        raise ConfigError("data.test_size gives no test sets to evaluate", key="data.test_size")
    _check_data_fits(model.config, test_batch)
    with _activations_fit(cfg):
        metrics = evaluate(model, test_batch)
    if not math.isfinite(metrics["loss"]):
        raise CheckpointError(f"{cfg['eval.checkpoint']}: its model gives a non-finite loss {metrics['loss']}")
    metrics["epoch"] = epoch
    print(json.dumps(metrics, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify_mod.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = verify_mod.run_suites(names, args.seed)
    report_path = os.path.join(args.out, "verify_report.json")
    _write_atomic({report_path: verify_mod.report_json(results, args.seed).encode()})
    for res in results:
        for prop in res.properties:
            print(verify_mod.format_property_line(res.suite, prop))
    passed = all(r.passed for r in results)
    print(f"verify: {'all properties passed' if passed else 'FAILURES'}; report: {report_path}")
    return EXIT_OK if passed else EXIT_CONFIG


def cmd_decompose(args) -> int:
    tensor = read_tensor(args.input)
    try:
        # the text comes back on the result; it is printed once on success
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            factors = cp_decompose(tensor, args.components)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"{args.components} components requested, but the linear system is "
            f"rank-deficient: {exc}",
            detected_rank=exc.detected_rank,
        ) from exc
    if factors.conditioning_warning:
        print(f"warning: {factors.conditioning_warning}", file=sys.stderr)
    rel = factors.rel_residual

    stem = os.path.splitext(os.path.basename(args.input))[0]
    payloads = {
        os.path.join(args.out, f"{stem}.factor{j}.txt"): format_tensor(factor).encode()
        for j, factor in enumerate(factors.factors)
    }
    report = {
        "input": str(args.input),
        "components": args.components,
        "dims": list(tensor.shape),
        "factors": list(payloads),
        "reconstruction_relative_error": rel,
        "condition": factors.condition,
        "conditioning_warning": factors.conditioning_warning,
    }
    report_path = os.path.join(args.out, f"{stem}.decompose.json")
    # the factors and the report are one set: a failed write keeps the old one
    payloads[report_path] = json.dumps(report, indent=2, allow_nan=False).encode()
    _write_atomic(payloads)
    print(f"wrote {len(factors.factors)} factors; reconstruction relative error {rel:.3e}")
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
    cfg = validate(_raw_config(args), PARAMS_SCHEMA)
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
    print(json.dumps({"reports": entries}, indent=2, allow_nan=False))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, except that a rejected command line is one config error
    (exit 1) instead of usage lines and exit 2, which here means a data
    error. Subparsers are made of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {' '.join(message.split())}")


# every flag's settings, declared once; each command takes those it reads
_FLAGS = {
    "--config": dict(help="flat key = value config file"),
    "--set": dict(action="append", default=[], metavar="KEY=VALUE", help="override a config key (repeatable)"),
    "--seed": dict(type=int, default=0, help="master seed (u64)"),
    "--out": dict(default=".", help="output directory"),
    "--suite": dict(default="all", choices=("all",) + verify_mod.SUITE_NAMES, help="which suite to run"),
    "--input": dict(required=True, help="input TextTensor path"),
    "--components": dict(type=int, required=True, help="component count N"),
}


# each command once: its handler, its help and the flags it reads; it
# reads config keys when it takes --config and --set
_COMMANDS = {
    "train": (cmd_train, "train a model", ("--config", "--set", "--seed", "--out")),
    "eval": (cmd_eval, "evaluate a checkpoint", ("--config", "--set", "--seed")),
    "verify": (cmd_verify, "run property suites", ("--suite", "--seed", "--out")),
    "decompose": (cmd_decompose, "sum-product decomposition of a text tensor", ("--input", "--components", "--out")),
    "params": (cmd_params, "parameter-count report", ("--config", "--set")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pinset", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _check_out_dir(path: str) -> None:
    """``--out`` must name a directory or a path that can become one, each
    name that it adds no longer than the directory it goes into allows:
    refused before any work, not when the first file is written."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out {path}: {existing} exists and is not a directory")
    name_max = os.pathconf(existing, "PC_NAME_MAX")
    for name in os.path.relpath(os.path.abspath(path), existing).split(os.sep):
        if 0 < name_max < len(os.fsencode(name)):
            raise ConfigError(f"--out: a name of {len(os.fsencode(name))} bytes in {existing} exceeds {name_max}")


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    code = EXIT_OK
    with warnings.catch_warnings():
        # one line per warning; the filters, once per location by default, stay
        warnings.showwarning = _print_warning
        # numpy's overflow and invalid-value warnings are dropped: the
        # non-finite values they warn of end the run in its own error line
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            args = _build_parser().parse_args(argv)
            if "seed" in args and not 0 <= args.seed < 2**64:
                raise ConfigError(f"--seed must fit in u64, got {args.seed}")
            if "out" in args:
                _check_out_dir(args.out)
            code = args.run(args)
            sys.stdout.flush()  # a closed stdout raises here, not at exit
            return code
        except BrokenPipeError:
            # commands print after writing their files, so only lines are lost
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return code
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
