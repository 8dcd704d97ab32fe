import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pinset import verify
from pinset.cli import main
from pinset.textio import read_tensor, write_tensor

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

    def test_thread_pool_results_order_stable(self, monkeypatch):
        baseline = verify.run_mdd(1, instances=24)
        monkeypatch.setenv("PINSET_THREADS", "4")
        threaded = verify.run_mdd(1, instances=24)
        assert [p.as_dict() for p in baseline.properties] == [
            p.as_dict() for p in threaded.properties
        ]


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
        np.testing.assert_allclose(recon, t, atol=1e-6)

    def test_below_bound_exits_1_with_minimum(self, tmp_path, capsys):
        t = np.ones((4, 4))
        src = tmp_path / "t.txt"
        write_tensor(src, t)
        code = main(["decompose", "--input", str(src), "--components", "3", "--out", str(tmp_path)])
        assert code == 1
        assert "N >= 4" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::pinset.decomp.ConditioningWarning")
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
