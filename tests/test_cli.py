import functools
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from pinset import cli, models, verify
from pinset.blocks import MlpSpec
from pinset.cli import main
from pinset.data import SyntheticTaskSpec, write_idx
from pinset.rng import RngState
from pinset.textio import read_tensor, write_tensor
from pinset.train import evaluate, save_checkpoint

from checkpoint_files import DAMAGED, checkpoint_parts, container

QUADRANT_CFG = """
task = quadrant
data.train_size = 96
data.test_size = 32
data.set_size = 16
model.preset = custom
model.input_width = 2
model.classes = 4
model.agg.mlp1 = 8,8
model.agg.mlp2 = 8,8
model.head = 16
train.epochs = 2
train.batch_size = 16
"""


QUADRANT_PRESET_CFG = """
task = quadrant
data.train_size = 32
data.test_size = 8
model.preset = quadrant
train.epochs = 1
"""


@pytest.fixture
def quadrant_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(QUADRANT_CFG)
    return str(path)


def _strip_wall_column(csv_text: str) -> str:
    lines = []
    for line in csv_text.strip().split("\n"):
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


class TestTrainCommand:
    def test_successful_run_writes_metrics_and_checkpoint(self, quadrant_config, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", quadrant_config, "--seed", "7", "--out", str(out)])
        assert code == 0
        csv_text = (out / "metrics.csv").read_text()
        assert csv_text.startswith("epoch,split,loss,accuracy,error_rate,lr,wall_seconds")
        assert (out / "checkpoint.dmpp").exists()

    def test_missing_data_path_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "task = pixel-idx\n"
            "model.preset = pixel-s\n"
            "data.train_images = /nonexistent/images.idx\n"
            "data.train_labels = /nonexistent/labels.idx\n"
            "data.test_images = /nonexistent/ti.idx\n"
            "data.test_labels = /nonexistent/tl.idx\n"
        )
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_override_exits_1(self, quadrant_config, tmp_path):
        code = main(
            [
                "train",
                "--config",
                quadrant_config,
                "--out",
                str(tmp_path / "o"),
                "--set",
                "optimizer.lr=abc",
            ]
        )
        assert code == 1

    def test_unknown_key_exits_1(self, quadrant_config, tmp_path):
        code = main(
            [
                "train",
                "--config",
                quadrant_config,
                "--out",
                str(tmp_path / "o"),
                "--set",
                "optimizer.lr_typo=0.5",
            ]
        )
        assert code == 1

    def test_determinism_identical_seeds(self, quadrant_config, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", quadrant_config, "--seed", "5", "--out", str(out)]) == 0
            texts.append((out / "metrics.csv").read_text())
        # wall-clock column necessarily varies; all other bytes must agree
        assert _strip_wall_column(texts[0]) == _strip_wall_column(texts[1])

    def test_eval_command_reads_back_checkpoint(self, quadrant_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", quadrant_config, "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--config",
                quadrant_config,
                "--seed",
                "3",
                "--set",
                f"eval.checkpoint={out / 'checkpoint.dmpp'}",
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["error_rate"] == 1.0 - metrics["accuracy"]


SMALL_SET_WARNING = "warning: set size 4 is below min(s, t) = 8; features of rank above 4 are unreachable"


def test_divergence_in_the_last_step_exits_3_before_any_checkpoint(tmp_path, capsys):
    # one step per epoch: the step's loss is finite, its update is not
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(QUADRANT_PRESET_CFG)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg), "--out", str(out), "--set", "optimizer.lr=1e300"])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "divergence: non-finite loss nan at epoch 0, evaluation"
    # nothing is written, so not even the --out directory is made
    assert not out.exists()


def test_diverging_run_prints_one_line(tmp_path):
    # the overflowing update would print numpy's floating-point warnings;
    # a child process, so that no test harness filters them
    argv = ["train", "--config", os.path.join(os.path.dirname(__file__), "..", "configs", "quadrant.cfg")]
    argv += ["--set", "train.epochs=1", "--set", "optimizer.lr=1e308", "--out", str(tmp_path)]
    argv += ["--set", "data.train_size=8", "--set", "data.test_size=2"]
    result = subprocess.run(
        [sys.executable, "-m", "pinset.cli", *argv], env=_child_env(), capture_output=True, text=True
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == ["divergence: non-finite loss nan at epoch 0, evaluation"]


def test_readme_key_table_names_every_schema_key():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = readme[readme.index("| group | keys |") :].split("\n\n")[0]
    named = set()
    for row in table.splitlines()[2:]:
        named |= {tok for tok in re.findall(r"`([^`]+)`", row.split("|")[2]) if tok == "task" or "." in tok}
    schemas = (cli.TRAIN_SCHEMA, cli.EVAL_SCHEMA, cli.PARAMS_SCHEMA)
    assert named == set().union(*schemas)


class TestWarningsAreOneLine:
    # the custom model's MLPs emit 8 columns each; sets of 4 elements warn
    # once per call site, as one line without a file name or source line
    def test_train(self, quadrant_config, tmp_path, capsys):
        argv = ["train", "--config", quadrant_config, "--out", str(tmp_path), "--set", "data.set_size=4"]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [SMALL_SET_WARNING]

    def test_eval(self, quadrant_config, tmp_path, capsys):
        assert main(["train", "--config", quadrant_config, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        argv = ["eval", "--config", quadrant_config, "--set", "data.set_size=4"]
        assert main(argv + ["--set", f"eval.checkpoint={tmp_path / 'checkpoint.dmpp'}"]) == 0
        assert capsys.readouterr().err.splitlines() == [SMALL_SET_WARNING]


def _pixel_idx_config(tmp_path, model_lines: str) -> str:
    # six 4x4 images (16-pixel sets of width 3) labelled 0..5 per split
    images = np.arange(6 * 16, dtype=np.uint8).reshape(6, 4, 4)
    labels = np.array([0, 9, 2, 3, 7, 5], dtype=np.uint8)
    lines = ["task = pixel-idx", model_lines]
    for split in ("train", "test"):
        write_idx(tmp_path / f"{split}-images", tmp_path / f"{split}-labels", images, labels)
        lines.append(f"data.{split}_images = {tmp_path / f'{split}-images'}")
        lines.append(f"data.{split}_labels = {tmp_path / f'{split}-labels'}")
    path = tmp_path / "pixel.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


def _one_config_error(capsys) -> str:
    return _one_error_line(capsys, "config error: ")


# a decompose command line that argparse accepts up to the flag under test
DECOMPOSE = ["decompose", "--input", "t.txt", "--components", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--seed", "abc"], "pinset train: argument --seed: invalid int value: 'abc'"),
        (["decompose", "--components", "two"], "pinset decompose: argument --components: invalid int value"),
        (["decompose", "--components", "2"], "pinset decompose: the following arguments are required: --input"),
        (["decompose", "--input", "t.txt"], "pinset decompose: the following arguments are required: --components"),
        (["params", "--bogus"], "pinset: unrecognized arguments: --bogus"),
        (["nope"], "pinset: argument command: invalid choice: 'nope'"),
        ([], "pinset: the following arguments are required: command"),
        # each command takes only the flags it reads
        (["eval", "--out", "o"], "pinset: unrecognized arguments: --out o"),
        (["params", "--seed", "3"], "pinset: unrecognized arguments: --seed 3"),
        (["params", "--out", "o"], "pinset: unrecognized arguments: --out o"),
        (["verify", "--config", "run.cfg"], "pinset: unrecognized arguments: --config run.cfg"),
        (["verify", "--set", "bogus=1"], "pinset: unrecognized arguments: --set bogus=1"),
        (DECOMPOSE + ["--seed", "7"], "pinset: unrecognized arguments: --seed 7"),
        (DECOMPOSE + ["--config", "run.cfg"], "pinset: unrecognized arguments: --config run.cfg"),
        (DECOMPOSE + ["--set", "decompose.input=x"], "pinset: unrecognized arguments: --set decompose.input=x"),
        # a seed is a u64
        *(
            ([command, "--seed", str(seed)], f"--seed must fit in u64, got {seed}")
            for command in ("train", "eval", "verify")
            for seed in (-1, 2**64)
        ),
    ],
    ids=[
        "seed", "components", "no-input", "no-components", "unknown-flag", "command", "no-command",
        "eval-out", "params-seed", "params-out", "verify-config", "verify-set",
        "decompose-seed", "decompose-config", "decompose-set",
        *(f"{command}-seed-{name}" for command in ("train", "eval", "verify") for name in ("negative", "above-u64")),
    ],
)
def test_a_rejected_command_line_is_one_config_error(argv, message, tmp_path, monkeypatch, capsys):
    # argparse would print usage lines and exit 2, which means a data error;
    # TestVerifyCommand checks an unknown --suite
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert _one_config_error(capsys).startswith(f"config error: {message}")
    # refused before any work: nothing is written to the default --out
    assert os.listdir(tmp_path) == []


def _child_env() -> dict:
    """The environment of a ``python -m pinset.cli`` child process: it
    imports this checkout's package and runs OpenBLAS on one thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")


def _run_capped(argv: list) -> subprocess.CompletedProcess:
    """``pinset *argv`` in a child process under a 1 GiB address-space
    cap, so that a size that cannot be allocated never allocates much."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "pinset.cli", *argv],
        env=_child_env(), capture_output=True, text=True, preexec_fn=cap,
    )


def test_unallocatable_set_size_is_one_config_error(tmp_path):
    # 2000 sets of 1e11 points would be 2.84 PiB
    config = tmp_path / "run.cfg"
    config.write_text(QUADRANT_PRESET_CFG.replace("data.train_size = 32", "data.train_size = 2000"))
    argv = ["train", "--config", str(config), "--set", "data.set_size=100000000000"]
    result = _run_capped(argv + ["--out", str(tmp_path / "out")])
    lines = result.stderr.strip().splitlines()
    assert result.returncode == 1, result.stderr
    assert len(lines) == 1 and lines[0].startswith(
        "config error: data.train_size = 2000 sets of data.set_size = 100000000000 points cannot be allocated"
    ), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, task, keys",
    [
        # the data fit; a first layer's (16, 2e6 or 8e6 points) activations
        # do not, nor a pixel-s layer's (64, 1500 * 1500 pixels)
        ("train", "quadrant", "data.set_size = 2000000, train.batch_size = 32"),
        ("eval", "quadrant", "data.set_size = 8000000"),
        ("eval", "pixel-idx", "data.downsample = 1"),
    ],
    ids=["train", "eval", "eval-pixel-idx"],
)
def test_unallocatable_activations_are_one_config_error(command, task, keys, tmp_path):
    config = tmp_path / "run.cfg"
    ckpt = tmp_path / "model.dmpp"
    if task == "quadrant":
        config.write_text(QUADRANT_PRESET_CFG)
        size = 2_000_000 if command == "train" else 8_000_000
        overrides = [f"data.set_size={size}", "data.train_size=2", "data.test_size=1"]
        model = models.quadrant_config()
    else:
        images, labels = tmp_path / "images", tmp_path / "labels"
        write_idx(images, labels, np.zeros((1, 1500, 1500), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        config.write_text(f"task = pixel-idx\ndata.test_images = {images}\ndata.test_labels = {labels}\n")
        overrides, model = [], models.pixel_s_config()
    if command == "eval":
        save_checkpoint(ckpt, models.build_model(model, RngState(0)))
        overrides.append(f"eval.checkpoint={ckpt}")
    argv = [command, "--config", str(config)] + (["--out", str(tmp_path / "out")] if command == "train" else [])
    result = _run_capped(argv + [arg for item in overrides for arg in ("--set", item)])
    lines = result.stderr.strip().splitlines()
    assert result.returncode == 1, result.stderr
    assert len(lines) == 1 and lines[0].startswith(f"config error: the activations for {keys} cannot be allocated"), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["data.train_size", "data.test_size", "data.set_size"])
def test_size_no_array_can_have_is_one_config_error(key, tmp_path):
    # numpy refuses an extent of 1e20 with ValueError, not MemoryError
    config = tmp_path / "run.cfg"
    config.write_text(QUADRANT_PRESET_CFG)
    argv = ["train", "--config", str(config), "--out", str(tmp_path / "out"), "--set", f"{key}={10**20}"]
    result = _run_capped(argv)
    lines = result.stderr.strip().splitlines()
    assert result.returncode == 1, result.stderr
    assert len(lines) == 1 and lines[0].startswith("config error: ") and f"{key} = {10**20}" in lines[0], lines
    assert "cannot be allocated" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", [99_999_999_999, 10**20], ids=["memory", "extent"])
def test_unallocatable_model_width_is_one_config_error(width, quadrant_config, tmp_path):
    # the first layer's (2, width) weights: 1.6 TB, or an extent numpy refuses
    argv = ["train", "--config", quadrant_config, "--out", str(tmp_path / "out"), "--set", f"model.agg.mlp1={width}"]
    result = _run_capped(argv)
    lines = result.stderr.strip().splitlines()
    assert result.returncode == 1, result.stderr
    assert len(lines) == 1 and lines[0].startswith(f"config error: model.agg.mlp1 = {width}: the model's "), lines
    assert "parameters cannot be allocated" in lines[0]
    assert not (tmp_path / "out").exists()


def test_checkpoint_of_an_unallocatable_model_exits_2(tmp_path):
    # metadata whose widths the file's tensors cannot hold is refused
    # before the 1.6 TB model is built
    ckpt = tmp_path / "model.dmpp"
    save_checkpoint(ckpt, models.build_model(models.quadrant_config(), RngState(0)))
    raw = ckpt.read_bytes()
    (length,) = struct.unpack("<Q", raw[8:16])
    meta = raw[16 : 16 + length].replace(b"model.agg.mlp1.dims = 2,16,16", b"model.agg.mlp1.dims = 2,99999999999,16")
    assert len(meta) > length
    ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(meta)) + meta + raw[16 + length :])
    config = tmp_path / "run.cfg"
    config.write_text(QUADRANT_PRESET_CFG)
    result = _run_capped(["eval", "--config", str(config), "--set", f"eval.checkpoint={ckpt}"])
    lines = result.stderr.strip().splitlines()
    assert result.returncode == 2, result.stderr
    assert len(lines) == 1 and lines[0].startswith(f"data error: {ckpt}: the stored config gives "), lines
    assert lines[0].endswith("parameters, more than the file holds")


class TestOverlongFileName:
    """A name longer than the file system allows is one error line."""

    NAME = "n" * 300

    def test_decompose_input_exits_2(self, tmp_path, capsys):
        argv = ["decompose", "--input", str(tmp_path / self.NAME), "--components", "2", "--out", str(tmp_path)]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: [Errno 36] File name too long"), lines

    def test_decompose_output_names_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        # a 240-byte stem fits, but the temp file of its report does not:
        # refused before the input is read, and no output directory is made
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        src, out = tmp_path / ("s" * 240 + ".txt"), tmp_path / "out"
        write_tensor(src, np.arange(6.0).reshape(2, 3))
        monkeypatch.setattr(cli, "read_tensor", lambda path: pytest.fail("the input was read"))
        assert main(["decompose", "--input", str(src), "--components", "2", "--out", str(out)]) == 2
        line = _one_error_line(capsys, "data error: [Errno 36] File name too long: ")
        assert line.endswith(f"an output's temp name of {240 + 15 + 18} bytes exceeds {name_max} in {tmp_path}"), line
        assert not out.exists()

    def test_eval_checkpoint_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(QUADRANT_PRESET_CFG)
        argv = ["eval", "--config", str(config), "--set", f"eval.checkpoint={tmp_path / self.NAME}"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: [Errno 36] File name too long"), lines


class TestConfigErrorsAreOneLine:
    def test_unknown_aggregation_activation(self, quadrant_config, tmp_path, capsys):
        argv = ["train", "--config", quadrant_config, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "model.agg.act1=tanh"]) == 1
        assert "model.agg.act1" in _one_config_error(capsys)

    def test_dropout_out_of_range(self, quadrant_config, tmp_path, capsys):
        argv = ["train", "--config", quadrant_config, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "model.agg.dropout=1.5"]) == 1
        assert "dropout ratio" in _one_config_error(capsys)

    def test_eval_checkpoint_on_data_of_other_width(self, tmp_path, capsys):
        ckpt = tmp_path / "quadrant.dmpp"
        save_checkpoint(ckpt, models.build_model(models.quadrant_config(), RngState(0)))
        cfg = _pixel_idx_config(tmp_path, "model.preset = quadrant")
        argv = ["eval", "--config", cfg, "--set", f"eval.checkpoint={ckpt}"]
        assert main(argv) == 1
        assert "element width 2, data has width 3" in _one_config_error(capsys)

    @pytest.mark.parametrize("override", ["model.agg.mlp1=5,5", "model.agg.dropout=0.1", "model.input_width=2"])
    def test_custom_model_key_under_a_preset(self, override, tmp_path, capsys):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(QUADRANT_PRESET_CFG)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--set", override]) == 1
        key = override.split("=")[0]
        assert f"{key} applies only to model.preset = custom" in _one_config_error(capsys)
        assert not out.exists()

    def test_eval_on_an_empty_test_split(self, tmp_path, capsys):
        ckpt = tmp_path / "quadrant.dmpp"
        save_checkpoint(ckpt, models.build_model(models.quadrant_config(), RngState(0)))
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(QUADRANT_PRESET_CFG)
        argv = ["eval", "--config", str(cfg), "--set", f"eval.checkpoint={ckpt}"]
        assert main(argv + ["--set", "data.test_size=0"]) == 1
        assert "data.test_size" in _one_config_error(capsys)

    def test_eval_ignores_custom_model_keys_under_a_preset(self, tmp_path, capsys):
        ckpt = tmp_path / "quadrant.dmpp"
        save_checkpoint(ckpt, models.build_model(models.quadrant_config(), RngState(0)))
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(QUADRANT_PRESET_CFG + "model.agg.mlp1 = 5,5\n")
        argv = ["eval", "--config", str(cfg), "--set", f"eval.checkpoint={ckpt}"]
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "task, override, other",
        [
            ("quadrant", "data.downsample=7", "pixel-idx"),
            ("quadrant", "data.train_images=/nonexistent", "pixel-idx"),
            ("quadrant", "data.shuffle_pixels=false", "pixel-idx"),
            ("pixel-idx", "data.set_size=8", "quadrant"),
            ("pixel-idx", "data.margin=0.2", "quadrant"),
        ],
    )
    def test_data_key_of_the_other_task(self, command, task, override, other, tmp_path, capsys):
        if task == "quadrant":
            cfg = tmp_path / "preset.cfg"
            cfg.write_text(QUADRANT_PRESET_CFG)
            cfg, model = str(cfg), models.quadrant_config()
        else:
            cfg, model = _pixel_idx_config(tmp_path, "model.preset = digits"), models.digits_config()
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--set", override]
        if command == "train":
            argv += ["--out", str(out)]
        else:
            ckpt = tmp_path / "model.dmpp"
            save_checkpoint(ckpt, models.build_model(model, RngState(0)))
            argv += ["--set", f"eval.checkpoint={ckpt}"]
        assert main(argv) == 1
        key = override.split("=")[0]
        assert _one_config_error(capsys) == f"config error: {key} applies only to task = {other}"
        assert not out.exists()

    def test_shipped_configs_pass_the_task_key_check(self, tmp_path, capsys, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ckpt = tmp_path / "model.dmpp"
        save_checkpoint(ckpt, models.build_model(models.quadrant_config(), RngState(0)))
        quadrant = os.path.join(root, "configs", "quadrant.cfg")
        small = ["--set", "data.train_size=32", "--set", "data.test_size=8", "--set", "train.epochs=0"]
        assert main(["train", "--config", quadrant, "--out", str(tmp_path / "q")] + small) == 0
        assert main(["eval", "--config", quadrant, "--set", f"eval.checkpoint={ckpt}"] + small) == 0
        # the IDX files are not here: loading gets as far as the data
        mnist = os.path.join(root, "configs", "mnist.cfg")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", mnist, "--out", str(tmp_path / "m")]) == 2
        assert main(["eval", "--config", mnist, "--set", f"eval.checkpoint={ckpt}"]) == 2
        assert capsys.readouterr().err.count("data error: data.") == 2

    def test_labels_beyond_class_count(self, tmp_path, capsys):
        cfg = _pixel_idx_config(
            tmp_path,
            "model.preset = custom\nmodel.input_width = 3\nmodel.classes = 4\n"
            "model.agg.mlp1 = 4\nmodel.agg.mlp2 = 4\nmodel.head = 8",
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "label 9, model has 4 classes" in _one_config_error(capsys)


@pytest.mark.parametrize(
    "override, message",
    [
        ("train.batch_size=1", "train.batch_size must be >= 2, got 1"),
        ("train.batch_size=-4", "train.batch_size must be >= 2, got -4"),
        ("train.batch_size=0", "train.batch_size must be >= 2, got 0"),
        ("data.train_size=1", "training needs at least 2 sets, data.train_size gives 1"),
        ("data.test_size=0", "data.test_size gives no test sets"),
        ("data.train_size=-5", "data.train_size must be >= 0, got -5"),
        ("data.test_size=-1", "data.test_size must be >= 0, got -1"),
        ("train.epochs=-1", "train.epochs must be >= 0, got -1"),
        ("train.checkpoint_every=-1", "train.checkpoint_every must be >= 0, got -1"),
        ("train.warmup_epochs=-2", "train.warmup_epochs must be >= 0, got -2"),
        ("train.lr_drop_epoch=-1", "train.lr_drop_epoch must be >= 0, got -1"),
        ("data.set_size=0", "data.set_size must be >= 2, got 0"),
        ("data.set_size=1", "data.set_size must be >= 2, got 1"),
        ("data.margin=5", "data.margin must be in [0, 1], got 5.0"),
        ("data.margin=-0.1", "data.margin must be in [0, 1], got -0.1"),
        ("data.downsample=0", "data.downsample must be a positive divisor of the image sides (4, 4), got 0"),
        ("data.downsample=-2", "data.downsample must be a positive divisor of the image sides (4, 4), got -2"),
        ("data.downsample=3", "data.downsample must be a positive divisor of the image sides (4, 4), got 3"),
        ("optimizer.lr=-1", "optimizer.lr must be finite and > 0, got -1.0"),
        ("optimizer.lr=0", "optimizer.lr must be finite and > 0, got 0.0"),
        ("optimizer.lr=inf", "optimizer.lr must be finite and > 0, got inf"),
        ("optimizer.momentum=inf", "optimizer.momentum must be in [0, 1), got inf"),
        ("optimizer.momentum=1", "optimizer.momentum must be in [0, 1), got 1.0"),
        ("optimizer.momentum=-0.5", "optimizer.momentum must be in [0, 1), got -0.5"),
        ("optimizer.weight_decay=-1e-4", "optimizer.weight_decay must be finite and >= 0, got -0.0001"),
        ("optimizer.weight_decay=nan", "optimizer.weight_decay must be finite and >= 0, got nan"),
    ],
)
def test_bad_training_size_is_one_config_error(override, message, quadrant_config, tmp_path, capsys):
    config = quadrant_config
    if override.startswith("data.downsample"):
        # only the pixel-idx task reads the key: 4x4 images
        config = _pixel_idx_config(tmp_path, "model.preset = pixel-s")
    argv = ["train", "--config", config, "--out", str(tmp_path / "o"), "--set", override]
    assert main(argv) == 1
    assert message in _one_config_error(capsys)
    assert not (tmp_path / "o").exists()


def test_negative_size_on_pixel_idx_is_one_config_error(tmp_path, capsys, monkeypatch):
    config = _pixel_idx_config(tmp_path, "model.preset = pixel-s")
    argv = ["train", "--config", config, "--out", str(tmp_path / "o"), "--set", "train.epochs=0"]
    assert main(argv + ["--set", "data.train_size=-3"]) == 1
    assert "data.train_size must be >= 0, got -3" in _one_config_error(capsys)
    assert not (tmp_path / "o").exists()
    # 0 still means every image
    sizes = []
    real_train = cli.train

    def counting_train(model, batch, *args, **kwargs):
        sizes.append(batch.size)
        return real_train(model, batch, *args, **kwargs)

    monkeypatch.setattr(cli, "train", counting_train)
    assert main(argv + ["--set", "data.train_size=0"]) == 0
    assert sizes == [6]


# One table per input channel, run through main: every malformed input is
# exit 1 or 2 with exactly one stderr line and no file written.


def _idx(*words: int, body: int = 0) -> bytes:
    """An IDX file: big-endian u32 header words, then ``body`` zero bytes."""
    return struct.pack(f">{len(words)}I", *words) + bytes(body)


@pytest.mark.parametrize(
    "command, payload, pattern",
    [
        # the file as a whole, read the same way by every command that takes one
        *(
            pytest.param(command, payload, pattern, id=f"{command}-{name}")
            for name, payload, pattern in [
                ("no-file", None, r"cannot read config \S+run\.cfg: \[Errno 2\]"),
                ("not-utf8", b"task = quadrant\n\xff\n", r"is not UTF-8 text"),
                ("byte-order-mark", b"\xef\xbb\xbftask = quadrant\n", r"unknown config key '\\ufefftask'$"),
                ("no-equals", b"task quadrant\n", r"line 1: expected 'key = value', got 'task quadrant'$"),
                ("empty-key", b" = quadrant\n", r"line 1: empty key in ' = quadrant'$"),
                ("duplicate-key", b"task = quadrant\ntask = quadrant\n", r"line 2: duplicate key 'task'$"),
            ]
            for command in ("train", "eval", "params")
        ),
        # values, against the train schema
        pytest.param("train", b"", r"missing required config key 'task'$", id="train-empty"),
        pytest.param(
            "train", b"task = circle\n", r"task must be one of \('quadrant', 'pixel-idx'\), got 'circle'$", id="train-choice"
        ),
        pytest.param(
            "train",
            b"task = quadrant\nmodel.preset = custom\nmodel.agg.batchnorm = maybe\n",
            r"bad value for model.agg.batchnorm: 'maybe' \(expected true or false\)$",
            id="train-bool",
        ),
        pytest.param(
            "train",
            b"task = quadrant\nmodel.preset = quadrant\ndata.train_size = ten\n",
            r"bad value for data.train_size: 'ten'",
            id="train-int",
        ),
        pytest.param(
            "train",
            b"task = quadrant\nmodel.preset = custom\nmodel.head = 4,x\n",
            r"bad value for model.head: '4,x'",
            id="train-intlist",
        ),
    ],
)
def test_config_file_fault_is_one_config_error(command, payload, pattern, tmp_path, capsys):
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    if payload is not None:
        config.write_bytes(payload)
    argv = [command, "--config", str(config)] + (["--out", str(out)] if command == "train" else [])
    assert main(argv) == 1
    assert re.search(pattern, _one_config_error(capsys))
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, pattern",
    [
        (None, r"^data error: \[Errno 2\] No such file or directory"),
        (b"", r"empty tensor file$"),
        (b" \n\n", r"empty tensor file$"),
        (b"tensor\n", r"bad header 'tensor'$"),
        (b"tensor v2 1 2\n1 2\n", r"bad header 'tensor v2 1 2'$"),
        (b"tensor v1 x 2\n1 2\n", r"bad header 'tensor v1 x 2'$"),
        (b"tensor v1 2 a b\n", r"bad header 'tensor v1 2 a b'$"),
        (b"tensor v1 2 3\n1 2 3\n", r"header declares rank 2 but lists 1 extents$"),
        (b"tensor v1 2 -1 -2\n1 2\n", r"negative extent"),
        (b"tensor v1 2 4294967296 4294967296\n", r"expected 18446744073709551616 values"),
        (b"tensor v1 2 2 2\n1 2 3\n", r"expected 4 values for extents \[2, 2\], got 3$"),
        (b"tensor v1 1 2\n1 x\n", r"non-numeric value in tensor body"),
        (b"tensor v1 1 2\n1 \xff\n", r"is not UTF-8 text"),
        (b"tensor v1 0\n1.5\n", r"^data error: cp_decompose needs "),
        (b"tensor v1 2 0 3\n", r"^data error: cp_decompose needs "),
        (b"tensor v1 2 2 2\n1 nan 2 3\n", r"^data error: cp_decompose needs "),
        (b"tensor v1 2 2 2\n1 2 -inf 3\n", r"^data error: cp_decompose needs "),
        # finite entries whose factors overflow float64: no NaN reaches a report
        (b"tensor v1 2 2 2\n1.7e308 -1.7e308 -1.7e308 1.7e308\n", r"^data error: cp_decompose needs .*overflow"),
    ],
    ids=[
        "no-file", "empty", "blank", "short-header", "bad-version", "non-integer-rank", "non-integer-extent",
        "rank-mismatch", "negative", "product-overflows-int64", "too-few-values", "non-numeric", "not-utf8",
        "rank-0", "zero-extent", "nan", "inf", "overflow",
    ],
)
def test_text_tensor_fault_is_one_data_error(payload, pattern, tmp_path, capsys):
    src, out = tmp_path / "t.txt", tmp_path / "out"
    if payload is not None:
        src.write_bytes(payload)
    assert main(["decompose", "--input", str(src), "--components", "2", "--out", str(out)]) == 2
    assert re.search(pattern, _one_error_line(capsys, "data error: "))
    assert not out.exists()


@pytest.mark.parametrize(
    "images, labels, pattern",
    [
        (b"", None, r"train-images: expected 4 more bytes for image magic, got 0$"),
        (None, b"", r"train-labels: expected 4 more bytes for label magic, got 0$"),
        (_idx(0x801, 6, 4, 4, body=96), None, r"train-images: magic 0x00000801, expected 0x00000803$"),
        (None, _idx(0x803, 6, body=6), r"train-labels: magic 0x00000803, expected 0x00000801$"),
        (_idx(0x803, 6), None, r"expected 4 more bytes for row count, got 0$"),
        (_idx(0x803, 6, 4, 4, body=95), None, r"expected 96 more bytes for pixel data, got 95$"),
        (None, _idx(0x801, 6, body=5), r"expected 6 more bytes for label data, got 5$"),
        (None, _idx(0x801, 5, body=5), r"6 images in \S+ but 5 labels in "),
        # about 2**96 declared pixels: more than any read or allocation can take
        (_idx(0x803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF), None, r"pixel data, got 0$"),
        # images no pixel set can be made of
        (_idx(0x803, 3, 4, 6, body=72), _idx(0x801, 3, body=3), r"4x6"),
        (_idx(0x803, 3, 0, 0), _idx(0x801, 3, body=3), r"0x0"),
    ],
    ids=[
        "empty-images", "empty-labels", "image-magic", "label-magic", "short-header", "short-pixels",
        "short-labels", "count-mismatch", "header-larger-than-file", "not-square", "zero-side",
    ],
)
def test_idx_fault_is_one_data_error(images, labels, pattern, tmp_path, capsys):
    config, out = _pixel_idx_config(tmp_path, "model.preset = pixel-s"), tmp_path / "out"
    for name, payload in (("train-images", images), ("train-labels", labels)):
        if payload is not None:
            (tmp_path / name).write_bytes(payload)
    assert main(["train", "--config", config, "--out", str(out)]) == 2
    assert re.search(pattern, _one_error_line(capsys, "data error: "))
    assert not out.exists()


def _beyond_path_max(tmp_path) -> str:
    # every name fits the file system, the whole path does not
    return os.path.join(tmp_path, *["d" * 250] * (os.pathconf(tmp_path, "PC_PATH_MAX") // 250 + 1))


@pytest.mark.parametrize(
    "out, code, pattern",
    [
        ("file", 1, r"config error: --out \S+/file: \S+/file exists and is not a directory"),
        ("file/run", 1, r"config error: --out \S+/file/run: \S+/file exists and is not a directory"),
        ("n" * 300 + "/run", 1, r"config error: --out: a name of 300 bytes in \S+ exceeds \d+"),
        # a directory cannot be made through a symlink to nowhere
        ("dangling/run", 2, r"data error: \[Errno 2\] No such file or directory: '\S+/dangling/run'"),
        (_beyond_path_max, 1, r"config error: --out: a path of \d+ bytes leaves no room for a name of \d+ bytes in \d+"),
    ],
    ids=["regular-file", "under-a-regular-file", "name-over-name-max", "dangling-symlink", "path-over-path-max"],
)
def test_out_fault_is_one_error(out, code, pattern, tmp_path, capsys):
    # a path under /proc would fail as a directory that cannot be made
    # too, but a test has no business writing there; and as root a
    # mode-0500 directory stays writable
    (tmp_path / "file").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing" / "x")
    path = out(tmp_path) if callable(out) else str(tmp_path / out)
    assert main(["verify", "--suite", "collapse", "--out", path]) == code
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and re.fullmatch(pattern, lines[0]), captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / ("d" * 250)).exists()


def test_out_path_limit_leaves_room_for_one_name(tmp_path, capsys):
    # the longest --out accepted, and one byte more
    path_max, name_max = os.pathconf(tmp_path, "PC_PATH_MAX"), os.pathconf(tmp_path, "PC_NAME_MAX")
    room = path_max - 2 - name_max
    path = os.path.join(tmp_path, *["d" * 250] * ((room - len(str(tmp_path)) - 2) // 251))
    path = os.path.join(path, "e" * (room - len(path) - 1))
    assert len(os.fsencode(path)) == room
    assert main(["verify", "--suite", "collapse", "--out", path + "e"]) == 1
    line = _one_config_error(capsys)
    assert line.endswith(f"a path of {room + 1} bytes leaves no room for a name of {name_max} bytes in {path_max}")
    assert not (tmp_path / ("d" * 250)).exists()
    assert main(["verify", "--suite", "collapse", "--out", path]) == 0
    assert os.path.isfile(os.path.join(path, "verify_report.json"))


@pytest.mark.parametrize(
    "shape, components, line",
    [
        # 0 is a count, not a missing one: it gets the error that -1 gets
        ((2, 3), "0", "error: decomposition requires N >= 2 set elements, got 0"),
        ((2, 3), "-1", "error: decomposition requires N >= 2 set elements, got -1"),
        ((2, 3), "1.5", "config error: pinset decompose: argument --components: invalid int value: '1.5'"),
        ((2, 3), "two", "config error: pinset decompose: argument --components: invalid int value: 'two'"),
        ((4, 4), "3", "error: decomposition requires N >= 4 set elements, got 3"),
        ((2, 3), "7", "error: at most 6 components (the tensor's entry count) are allowed, got 7"),
        ((2, 3), str(2**63), f"error: at most 6 components (the tensor's entry count) are allowed, got {2**63}"),
        ((2, 3), str(-(2**64)), f"error: decomposition requires N >= 2 set elements, got {-(2**64)}"),
    ],
    ids=["zero", "negative", "fraction", "word", "below-bound", "above-entry-count", "above-int64", "below-int64"],
)
def test_components_fault_is_one_error(shape, components, line, tmp_path, capsys):
    src, out = tmp_path / "t.txt", tmp_path / "out"
    write_tensor(src, np.ones(shape))
    assert main(["decompose", "--input", str(src), "--components", components, "--out", str(out)]) == 1
    assert _one_error_line(capsys, "") == line
    assert not out.exists()


class TestEvalReadsOnlyWhatItUses:
    def test_quadrant_eval_draws_no_training_set_and_needs_no_model_keys(self, tmp_path, monkeypatch, capsys):
        ckpt = tmp_path / "quadrant.dmpp"
        model = models.build_model(models.quadrant_config(), RngState(0))
        save_checkpoint(ckpt, model)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"task = quadrant\ndata.test_size = 32\ndata.set_size = 16\neval.checkpoint = {ckpt}\n")
        drawn = []
        real_task = cli.make_synthetic_task

        def counting_task(spec):
            train_batch, test_batch = real_task(spec)
            drawn.append(train_batch.size)
            return train_batch, test_batch

        monkeypatch.setattr(cli, "make_synthetic_task", counting_task)
        assert main(["eval", "--config", str(cfg), "--seed", "4"]) == 0
        assert drawn == [0]
        # the same test split as a run that also draws the training sets
        _, test_batch = real_task(SyntheticTaskSpec(set_size=16, train_size=2000, test_size=32, seed=4))
        expected = evaluate(model, test_batch)
        assert json.loads(capsys.readouterr().out) == {**expected, "epoch": 0}

    def test_pixel_eval_ignores_missing_training_files(self, tmp_path, capsys):
        ckpt = tmp_path / "digits.dmpp"
        save_checkpoint(ckpt, models.build_model(models.digits_config(), RngState(0)))
        cfg = _pixel_idx_config(tmp_path, "model.preset = digits")
        argv = ["eval", "--config", cfg, "--set", f"eval.checkpoint={ckpt}"]
        assert main(argv) == 0
        with_train = capsys.readouterr().out
        missing = ["--set", "data.train_images=/nonexistent/a", "--set", "data.train_labels=/nonexistent/b"]
        assert main(argv + missing) == 0
        assert capsys.readouterr().out == with_train


def test_second_aggregation_without_broadcasts_exits_2(tmp_path, capsys):
    # a checkpoint earlier versions loaded; its head reads the unused second aggregation
    cfg = models.quadrant_config()
    cfg.aggregation2 = models.AggregationSpec(MlpSpec([2, 3]), MlpSpec([2, 3]))
    cfg.head = MlpSpec([9, 8, 4])
    ckpt = tmp_path / "agg2.dmpp"
    save_checkpoint(ckpt, models.Model(cfg, RngState(0)))
    config = tmp_path / "eval.cfg"
    config.write_text("task = quadrant\nmodel.preset = quadrant\ndata.test_size = 8\n")
    assert main(["eval", "--config", str(config), "--set", f"eval.checkpoint={ckpt}"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    assert "broadcast blocks and a second aggregation come only together" in lines[0]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["train", "--set", "train.epochs=1"], "metrics.csv"),
        (["verify", "--suite", "cp"], "verify_report.json"),
        (["decompose", "--components", "2"], "t.decompose.json"),
        (["decompose", "--components", "2"], "t.factor0.txt"),
    ],
)
def test_failed_output_write_keeps_the_previous_file(argv, name, quadrant_config, tmp_path, monkeypatch, capsys):
    write_tensor(tmp_path / "t.txt", np.arange(6.0).reshape(2, 3))
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text("previous\n")
    real_replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    # verify reads no config key, so it is given no config file
    inputs = {"train": ["--config", quadrant_config], "verify": [], "decompose": ["--input", str(tmp_path / "t.txt")]}
    assert main(argv + inputs[argv[0]] + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0] == "data error: [Errno 28] No space left on device", lines
    assert (out / name).read_text() == "previous\n"
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


@pytest.mark.parametrize("under", [False, True], ids=["the-file", "below-the-file"])
@pytest.mark.parametrize("command", ["train", "verify", "decompose"])
def test_out_on_an_existing_file_is_refused_before_any_work(command, under, tmp_path, monkeypatch, capsys):
    # the commands that write take --out as an output directory; the check
    # comes before the command runs, so the command itself must not be reached
    target = tmp_path / "taken"
    target.write_text("kept\n")
    _, text, flags = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (lambda args: pytest.fail("the command ran"), text, flags))
    out = target / "sub" if under else target
    argv = DECOMPOSE if command == "decompose" else [command]
    assert main(argv + ["--out", str(out)]) == 1
    assert "is not a directory" in _one_config_error(capsys)
    assert target.read_text() == "kept\n"


class TestDamagedCheckpointExits2:
    @pytest.fixture
    def eval_damaged(self, quadrant_config, tmp_path, monkeypatch, capsys):
        # one parser for the thousands of runs below; main still maps every error
        monkeypatch.setattr(cli, "_build_parser", functools.lru_cache(cli._build_parser))
        path = tmp_path / "damaged.dmpp"
        argv = ["eval", "--config", quadrant_config, "--set", f"eval.checkpoint={path}"]

        def run(payload: bytes) -> str:
            path.write_bytes(payload)
            code = main(argv)
            err = capsys.readouterr().err
            lines = err.strip().splitlines()
            assert code == 2 and len(lines) == 1 and lines[0].startswith("data error: "), err
            return lines[0]

        return run

    def test_every_truncation_and_header_byte_flip(self, eval_damaged, tmp_path):
        model = models.build_model(models.gradcheck_config(), RngState(0))
        model.forward(RngState(1).generator().uniform(-1, 1, size=(4, 12, 3)), "train")
        save_checkpoint(tmp_path / "gradcheck.dmpp", model, epoch=1, rng=RngState(0))
        raw = (tmp_path / "gradcheck.dmpp").read_bytes()
        for end in range(len(raw)):
            assert "truncated" in eval_damaged(raw[:end]), end
        # magic, version, metadata length, metadata and tensor count
        (meta_len,) = struct.unpack("<Q", raw[8:16])
        for i in range(16 + meta_len + 8):
            eval_damaged(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1 :])

    def test_version_1_file(self, eval_damaged):
        # the layout version 1 wrote: broadcast weights stored (out, in),
        # the hidden_act, format.* and model.task keys that set nothing
        model = models.build_model(models.pixel_l_config(input_width=2, class_count=4), RngState(0))
        meta = models.config_to_flat(model.config)
        for key in [k for k in meta if k.endswith(".dims")]:
            meta[key.replace(".dims", ".hidden_act")] = "relu"
        meta |= {"model.task": "synthetic", "format.flatten_order": "row_major", "format.init": "fanin_uniform"}
        tensors = [
            (f"param.{name}", p.data.T if name.startswith("bc") and name.endswith(("w_x", "w_y")) else p.data)
            for name, p in model.parameters().items()
        ]
        for name, st in model.norm_states().items():
            tensors += [(f"norm.{name}.mean", st.mean), (f"norm.{name}.var", st.var)]
        text = "".join(f"{k} = {v}\n" for k, v in sorted(meta.items())).encode()
        assert "checkpoint version 1, this pinset reads version 2" in eval_damaged(container(text, tensors, version=1))

    @pytest.mark.parametrize("damage", DAMAGED)
    def test_damaged_file(self, eval_damaged, damage, tmp_path):
        # the files load_checkpoint refuses, each with the same message
        payload, pattern = DAMAGED[damage](*checkpoint_parts(tmp_path)[:2])
        assert re.search(pattern, eval_damaged(payload))


def test_checkpoint_whose_model_gives_a_non_finite_loss_exits_2(quadrant_config, tmp_path, capsys):
    model = models.build_model(models.quadrant_config(), RngState(0))
    model.parameters()["agg1.mlp1.layer0.weight"].data[0, 0] = np.nan
    path = tmp_path / "nan.dmpp"
    save_checkpoint(path, model)
    argv = ["eval", "--config", quadrant_config, "--set", f"eval.checkpoint={path}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: ") and "non-finite loss nan" in lines[0], lines
    assert captured.out == ""


class TestVerifyCommand:
    def test_mdd_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "--suite", "mdd", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert all(p["trials"] >= 200 for s in report["suites"] for p in s["properties"][:1])

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        assert main(["verify", "--suite", "nonsense", "--out", str(tmp_path)]) == 1
        assert "argument --suite: invalid choice: 'nonsense'" in _one_config_error(capsys)
        assert not (tmp_path / "verify_report.json").exists()

    def test_corrupted_kernel_negative_control(self, monkeypatch):
        # a solver that returns a wrong kernel basis must make the suite fail
        solve = verify.decomp.mdd_solve

        def corrupted(b, a):
            sol = solve(b, a)
            sol.kernel_basis[:1] += 0.5
            return sol

        monkeypatch.setattr(verify.decomp, "mdd_solve", corrupted)
        assert not verify.run_mdd(0).passed

    def test_a_non_finite_worst_is_written_as_text(self, monkeypatch, tmp_path, capsys):
        # strict JSON has no NaN: the report stays readable by any parser
        def run_mdd(seed):
            nan = verify.PropertyResult("nan_worst", trials=1, failures=1, worst=float("nan"))
            return verify.SuiteResult("mdd", seed, [nan])

        monkeypatch.setitem(verify._RUNNERS, "mdd", run_mdd)
        assert main(["verify", "--suite", "mdd", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text(), parse_constant=float)
        assert report["suites"][0]["properties"][0]["worst"] == "nan"


class TestDecomposeCommand:
    def test_round_trip(self, tmp_path, capsys):
        gen = np.random.default_rng(0)
        t = gen.uniform(-1, 1, size=(2, 3))
        src = tmp_path / "input.txt"
        write_tensor(src, t)
        code = main(["decompose", "--input", str(src), "--components", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "input.decompose.json").read_text())
        assert report["reconstruction_relative_error"] < 1e-6
        factors = [read_tensor(p) for p in report["factors"]]
        recon = np.zeros((2, 3))
        for i in range(2):
            recon += np.outer(factors[0][i], factors[1][i])
        np.testing.assert_allclose(recon, t, rtol=0, atol=1e-6)

    def test_rank_deficient_system_exits_1_with_rank(self, tmp_path, capsys):
        src = tmp_path / "t.txt"
        write_tensor(src, np.random.default_rng(0).uniform(-1, 1, size=(6, 6, 6)))
        code = main(["decompose", "--input", str(src), "--components", "36", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "36 components requested" in err
        assert "numeric rank 35" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_ill_conditioned_success_prints_one_warning_line(self, tmp_path, capsys):
        src = tmp_path / "t.txt"
        write_tensor(src, np.random.default_rng(0).uniform(-1, 1, size=(4, 8, 8)))
        code = main(["decompose", "--input", str(src), "--components", "32", "--out", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: linear solve condition")
        assert "cp_decompose(" not in err
        report = json.loads((tmp_path / "t.decompose.json").read_text())
        assert report["conditioning_warning"] == lines[0][len("warning: "):]

    def test_zero_tensor(self, tmp_path):
        src = tmp_path / "z.txt"
        write_tensor(src, np.zeros((2, 2)))
        code = main(["decompose", "--input", str(src), "--components", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "z.decompose.json").read_text())
        assert report["reconstruction_relative_error"] < 1e-12

    def test_entries_near_the_float64_limit_give_a_finite_error(self, tmp_path, capsys):
        # the squares in the error's norms would overflow unscaled
        src = tmp_path / "t.txt"
        src.write_text("tensor v1 2 2 2\n1e308 -1e308 -1e308 1e308\n")
        assert main(["decompose", "--input", str(src), "--components", "2", "--out", str(tmp_path)]) == 0

        def refuse(constant):
            raise AssertionError(f"{constant} in a strict JSON report")

        report = json.loads((tmp_path / "t.decompose.json").read_text(), parse_constant=refuse)
        assert report["reconstruction_relative_error"] < 1e-12

    def test_failed_write_keeps_the_whole_old_set(self, tmp_path, capsys, monkeypatch):
        # an older complete set under the same stem, from another tensor; with
        # axis 0 the longer, factor0 is the solved factor and differs from it
        (tmp_path / "old").mkdir()
        write_tensor(tmp_path / "old" / "t.txt", np.arange(6.0).reshape(3, 2))
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(tmp_path / "old" / "t.txt"), "--components", "2", "--out", str(out)]) == 0
        old = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert sorted(old) == ["t.decompose.json", "t.factor0.txt", "t.factor1.txt"]
        capsys.readouterr()
        real_replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == "t.factor1.txt":
                raise PermissionError(13, "Permission denied", dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        write_tensor(tmp_path / "t.txt", np.arange(6.0).reshape(3, 2) ** 2)
        assert main(["decompose", "--input", str(tmp_path / "t.txt"), "--components", "2", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: "), lines
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == old

    def test_component_count_above_the_entry_count_is_refused_before_allocating(self, tmp_path):
        # a billion components would ask for a 7.45 GiB array; the child runs
        # under a 1 GiB address-space cap, so the test never allocates it
        write_tensor(tmp_path / "t.txt", np.arange(9.0).reshape(3, 3))
        argv = ["decompose", "--input", str(tmp_path / "t.txt"), "--components", "1000000000"]
        result = _run_capped(argv + ["--out", str(tmp_path / "out")])
        lines = result.stderr.strip().splitlines()
        assert result.returncode == 1, result.stderr
        assert lines == ["error: at most 9 components (the tensor's entry count) are allowed, got 1000000000"]
        assert "Traceback" not in result.stderr


class TestParamsCommand:
    def test_square_factorization_total_printed(self, tmp_path, capsys):
        code = main(
            [
                "params",
                "--set",
                "params.preset=table6",
                "--set",
                "params.factorization=32x32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "17,792" in out

    def test_sweep_strictly_decreasing(self, tmp_path, capsys):
        code = main(["params", "--set", "params.preset=table6"])
        assert code == 0
        payload = _extract_json(capsys)
        totals = [entry["total"] for entry in payload["reports"]]
        assert len(totals) == 6
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_empty_config_exits_1(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        assert main(["params", "--config", str(empty)]) == 1

    @pytest.mark.parametrize("factorization", ["0x4", "-2x4", "4x0"])
    def test_non_positive_factorization_is_one_config_error(self, factorization, tmp_path, capsys):
        argv = ["params", "--set", "params.preset=table6"]
        assert main(argv + ["--set", f"params.factorization={factorization}"]) == 1
        assert "params.factorization" in _one_config_error(capsys)

    @pytest.mark.parametrize("factorization", ["abc", "2x"])
    def test_malformed_factorization_is_one_config_error(self, factorization, capsys):
        argv = ["params", "--set", "params.preset=table6", "--set", f"params.factorization={factorization}"]
        assert main(argv) == 1
        assert _one_config_error(capsys) == f"config error: bad value for params.factorization: {factorization!r}"

    def test_model_preset_totals_are_its_parameter_count(self, capsys):
        report = models.param_count(models.pixel_s_config())
        assert main(["params", "--set", "params.preset=pixel-s"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pixel-s:\n")
        assert f"  {'total':32s} {report.total:>10,d}\n" in out
        (entry,) = json.loads(out[out.index('{\n  "reports"') :])["reports"]
        assert (entry["name"], entry["total"]) == ("pixel-s", report.total)


def _extract_json(capsys):
    out = capsys.readouterr().out
    start = out.index('{\n  "reports"')
    return json.loads(out[start:])


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "pinset.cli", "--help"],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for sub in ("train", "eval", "verify", "decompose", "params"):
        assert sub in result.stdout


def test_python_m_pinset_runs_the_cli(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pinset", "verify", "--suite", "invariance", "--seed", "0", "--out", str(tmp_path)],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "all properties passed" in result.stdout
    assert json.loads((tmp_path / "verify_report.json").read_text())["passed"] is True


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["params", "verify"])
def test_a_closed_stdout_ends_quietly(command, unbuffered, tmp_path):
    # the reader is gone before the child starts, so its first write to
    # stdout fails: at the first print when unbuffered, else at a flush
    argv = {
        "params": ["params", "--set", "params.preset=table6"],
        "verify": ["verify", "--suite", "mdd", "--out", str(tmp_path)],
    }[command]
    env = {key: value for key, value in _child_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pinset", *argv], env=env, stdout=write, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (0, "")
    if command == "verify":
        assert json.loads((tmp_path / "verify_report.json").read_text())["passed"] is True
