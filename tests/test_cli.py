import functools
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from pinset import cli, models, verify
from pinset.cli import main
from pinset.data import write_idx
from pinset.rng import RngState
from pinset.textio import read_tensor, write_tensor
from pinset.train import save_checkpoint

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
                "--out",
                str(out),
                "--set",
                f"eval.checkpoint={out / 'checkpoint.dmpp'}",
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["error_rate"] == 1.0 - metrics["accuracy"]


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


def _one_config_error(capsys) -> str:
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    return lines[0]


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
        argv = ["eval", "--config", cfg, "--out", str(tmp_path), "--set", f"eval.checkpoint={ckpt}"]
        assert main(argv) == 1
        assert "element width 2, data has width 3" in _one_config_error(capsys)

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


@pytest.mark.parametrize("shape, sides", [((3, 4, 6), "4x6"), ((3, 0, 0), "0x0")])
def test_idx_images_not_square_or_empty_exit_2(shape, sides, tmp_path, capsys):
    config = _pixel_idx_config(tmp_path, "model.preset = pixel-s")
    # the train split now holds images no pixel set can be made of
    images = np.zeros(shape, dtype=np.uint8)
    write_idx(tmp_path / "train-images", tmp_path / "train-labels", images, np.zeros(3, dtype=np.uint8))
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: ") and sides in lines[0], lines


class TestDamagedCheckpointExits2:
    @pytest.fixture
    def eval_damaged(self, quadrant_config, tmp_path, monkeypatch, capsys):
        # one parser for the thousands of runs below; main still maps every error
        monkeypatch.setattr(cli, "_build_parser", functools.lru_cache(cli._build_parser))
        path = tmp_path / "damaged.dmpp"
        argv = ["eval", "--config", quadrant_config, "--out", str(tmp_path), "--set", f"eval.checkpoint={path}"]

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

    def test_text_file(self, eval_damaged):
        assert "not a checkpoint (magic b'hell')" in eval_damaged(b"hello, world\n")


class TestVerifyCommand:
    def test_mdd_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "--suite", "mdd", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert all(p["trials"] >= 200 for s in report["suites"] for p in s["properties"][:1])

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])

    def test_corrupted_kernel_negative_control(self):
        # sabotage hook: a wrong kernel basis must make the suite fail
        def corrupt(sol):
            if sol.kernel_basis.size:
                sol.kernel_basis[0, :] += 0.5

        result = verify.run_mdd(0, instances=20, corrupt=corrupt)
        assert not result.passed


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

    def test_below_bound_exits_1_with_minimum(self, tmp_path, capsys):
        t = np.ones((4, 4))
        src = tmp_path / "t.txt"
        write_tensor(src, t)
        code = main(["decompose", "--input", str(src), "--components", "3", "--out", str(tmp_path)])
        assert code == 1
        assert "N >= 4" in capsys.readouterr().err

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

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["decompose", "--input", str(tmp_path / "none.txt"), "--components", "2"])
        assert code == 2


class TestParamsCommand:
    def test_square_factorization_total_printed(self, tmp_path, capsys):
        code = main(
            [
                "params",
                "--out",
                str(tmp_path),
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
        code = main(["params", "--out", str(tmp_path), "--set", "params.preset=table6"])
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
        argv = ["params", "--out", str(tmp_path), "--set", "params.preset=table6"]
        assert main(argv + ["--set", f"params.factorization={factorization}"]) == 1
        assert "params.factorization" in _one_config_error(capsys)


def _extract_json(capsys):
    out = capsys.readouterr().out
    start = out.index('{\n  "reports"')
    return json.loads(out[start:])


def test_console_script_help():
    result = subprocess.run(
        [sys.executable, "-m", "pinset.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for sub in ("train", "eval", "verify", "decompose", "params"):
        assert sub in result.stdout
