"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible with ``pytest -s`` or in the metadata of a failed run). Criteria
pin both the tolerance and the runtime budget. The pixel-set learning
criterion needs the four standard IDX files; point PINSET_MNIST_DIR at
them (the test skips with instructions when they are absent, and a
bundled real-digit stand-in exercises the identical pipeline).
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pinset
from pinset import verify
from pinset.cli import main
from pinset.data import load_mnist_idx, make_synthetic_task, pixel_set_batch, write_idx
from pinset.data import SyntheticTaskSpec
from pinset.models import (
    TABLE_FACTORIZATIONS,
    build_model,
    digits_config,
    gradcheck_config,
    pixel_s_config,
    point_ablation_config,
    quadrant_config,
    param_count,
)
from pinset.rng import RngState
from pinset.train import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

SEED = 0

# published totals in thousands for the factorization sweep
TABLE_TOTALS_K = [143.8, 76.9, 43.6, 27.4, 20.0, 17.9]


def _report(number: str, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>3} {name:<42} {status}{suffix}")
    assert passed, f"criterion {number} {name}: {detail}"


def _suite_failures(result):
    return sum(p.failures for p in result.properties)


def test_criterion_1_permutation_invariance():
    t0 = time.perf_counter()
    result = verify.run_invariance(SEED)
    elapsed = time.perf_counter() - t0
    # 100 pairs for each of the 16 activation pairs and for the classifier
    assert [p.trials for p in result.properties] == [100] * 17
    worst = max(p.worst for p in result.properties)
    _report(
        "1",
        "permutation invariance (1e-12)",
        result.passed and elapsed < 30.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mdd_suite():
    t0 = time.perf_counter()
    result = verify.run_mdd(SEED)
    elapsed = time.perf_counter() - t0
    assert [p.trials for p in result.properties] == [200] * 4
    worst = max(p.worst for p in result.properties if p.worst is not None)
    _report(
        "2",
        "linear solution set, 200 instances (1e-8)",
        result.passed and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_constructive_decomposition():
    t0 = time.perf_counter()
    result = verify.run_cp(SEED)
    elapsed = time.perf_counter() - t0
    recon = next(p for p in result.properties if p.name == "reconstruction_at_bound")
    _report(
        "3",
        "sum-product reconstruction at bound (1e-6)",
        result.passed and elapsed < 30.0,
        f"{recon.trials} dims tuples, worst={recon.worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_rank_stability():
    t0 = time.perf_counter()
    result = verify.run_rankstab(SEED)
    elapsed = time.perf_counter() - t0
    # 100 rank-deficient trials feed the first two properties, 50 stable ones the third
    assert [p.trials for p in result.properties] == [100, 100, 50]
    _report(
        "4",
        "rank stability probes (eps=1e-3)",
        result.passed and elapsed < 10.0,
        f"failures={_suite_failures(result)}, {elapsed:.1f}s",
    )


def test_criterion_5_gradient_checks():
    t0 = time.perf_counter()
    result = verify.run_gradcheck(SEED)
    elapsed = time.perf_counter() - t0
    prop = result.properties[0]
    # one trial per parameter tensor in each of 10 batches
    n_tensors = len(build_model(gradcheck_config(), RngState(SEED)).parameters())
    assert prop.trials == 10 * n_tensors
    _report(
        "5",
        "finite-difference gradients (1e-4)",
        result.passed and elapsed < 60.0,
        f"worst={prop.worst:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def collapse_result():
    return verify.run_collapse(SEED)


def test_criterion_6_activation_collapse(collapse_result):
    props = {p.name: p for p in collapse_result.properties}
    agree = props["no_activation_collapse"]
    broken = props["set_softmax_breaks_collapse"]
    assert agree.trials == broken.trials == 50
    _report(
        "6",
        "activation collapse and its break",
        agree.passed and broken.passed,
        f"linear worst={agree.worst:.2e}; {broken.detail}",
    )


def test_criterion_7_elementwise_decomposition(collapse_result):
    props = {p.name: p for p in collapse_result.properties}
    # 100 sets of 16 elements
    assert props["elementwise_sum_matches_aggregate"].trials == 100
    assert props["contributions_rank_le_1"].trials == 1600
    ok = all(
        props[name].passed
        for name in (
            "elementwise_sum_matches_aggregate",
            "contributions_rank_le_1",
            "set_softmax_contribution_rejected",
        )
    )
    _report(
        "7",
        "per-element sum and rank<=1 (1e-10)",
        ok,
        f"sum worst={props['elementwise_sum_matches_aggregate'].worst:.2e}",
    )


def test_criterion_8_parameter_counts():
    t0 = time.perf_counter()
    totals = [param_count(point_ablation_config(s, t)).total for s, t in TABLE_FACTORIZATIONS]
    elapsed = time.perf_counter() - t0
    within = [abs(total / (k * 1000) - 1) < 0.02 for total, k in zip(totals, TABLE_TOTALS_K)]
    decreasing = all(a > b for a, b in zip(totals, totals[1:]))
    worst_pct = max(abs(total / (k * 1000) - 1) for total, k in zip(totals, TABLE_TOTALS_K))
    _report(
        "8",
        "factorization parameter totals (±2%)",
        all(within) and decreasing and elapsed < 1.0,
        f"worst deviation {100 * worst_pct:.2f}%, strictly decreasing={decreasing}",
    )


def test_criterion_9a_quadrant_learning():
    t0 = time.perf_counter()
    train_b, test_b = make_synthetic_task(
        SyntheticTaskSpec(set_size=32, train_size=2000, test_size=500, seed=SEED)
    )
    model = build_model(quadrant_config(), RngState(SEED).child("model"))
    history = train(
        model,
        train_b,
        test_b,
        TrainConfig(epochs=20, batch_size=32, lr=0.01, lr_drop_epoch=200),
        RngState(SEED).child("train"),
    )
    elapsed = time.perf_counter() - t0
    best = max(row["accuracy"] for row in history if row["split"] == "eval")
    _report(
        "9a",
        "quadrant-majority >=95% in 20 epochs",
        best >= 0.95 and elapsed < 300.0,
        f"best accuracy {best:.3f}, {elapsed:.0f}s",
    )


def _mnist_paths():
    root = os.environ.get("PINSET_MNIST_DIR", os.path.join(os.path.dirname(__file__), "data", "mnist"))
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    paths = [os.path.join(root, n) for n in names]
    return paths if all(os.path.exists(p) for p in paths) else None


def test_criterion_9b_mnist_subset_learning():
    paths = _mnist_paths()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not found; set PINSET_MNIST_DIR to a directory "
            "holding the four standard IDX files to run this criterion. The "
            "stand-in below runs the identical pipeline on the digit images "
            "bundled with scikit-learn, and skips too when sklearn is absent."
        )
    t0 = time.perf_counter()
    images, labels = load_mnist_idx(paths[0], paths[1])
    train_b = pixel_set_batch(images[:5000], labels[:5000], RngState(SEED).child("tr"), downsample=2)
    images, labels = load_mnist_idx(paths[2], paths[3])
    test_b = pixel_set_batch(images[:1000], labels[:1000], RngState(SEED).child("te"), downsample=2)
    model = build_model(pixel_s_config(), RngState(SEED).child("model"))
    history = train(
        model,
        train_b,
        test_b,
        TrainConfig(epochs=30, batch_size=32, lr=0.01, lr_drop_epoch=200),
        RngState(SEED).child("train"),
    )
    elapsed = time.perf_counter() - t0
    best = max(row["accuracy"] for row in history if row["split"] == "eval")
    _report(
        "9b",
        "MNIST 5k/1k subset >=90% in 30 epochs",
        best >= 0.90 and elapsed < 1800.0,
        f"best accuracy {best:.3f}, {elapsed:.0f}s",
    )


def test_criterion_9_standin_real_digit_pixel_sets(tmp_path):
    # real 8x8 handwritten digits through the same IDX -> pixel-set ->
    # train pipeline; evidence for criterion 9 when MNIST is unavailable
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    t0 = time.perf_counter()
    bunch = sklearn_datasets.load_digits()
    images = np.rint(bunch.images * (255.0 / 16.0)).astype(np.uint8)
    labels = bunch.target.astype(np.uint8)
    write_idx(tmp_path / "tri", tmp_path / "trl", images[:1400], labels[:1400])
    write_idx(tmp_path / "tei", tmp_path / "tel", images[1400:], labels[1400:])
    images, labels = load_mnist_idx(tmp_path / "tri", tmp_path / "trl")
    train_b = pixel_set_batch(images, labels, RngState(SEED).child("tr"))
    images, labels = load_mnist_idx(tmp_path / "tei", tmp_path / "tel")
    test_b = pixel_set_batch(images, labels, RngState(SEED).child("te"))
    model = build_model(digits_config(), RngState(SEED).child("model"))
    history = train(
        model,
        train_b,
        test_b,
        TrainConfig(epochs=30, batch_size=32, lr=0.01, lr_drop_epoch=20),
        RngState(SEED).child("train"),
    )
    elapsed = time.perf_counter() - t0
    best = max(row["accuracy"] for row in history if row["split"] == "eval")
    _report(
        "9*",
        "digit pixel sets (stand-in) >=90%",
        best >= 0.90 and elapsed < 300.0,
        f"best accuracy {best:.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "task = quadrant\n"
        "data.train_size = 128\n"
        "data.test_size = 64\n"
        "data.set_size = 16\n"
        "model.preset = custom\n"
        "model.input_width = 2\n"
        "model.classes = 4\n"
        "model.agg.mlp1 = 8,8\n"
        "model.agg.mlp2 = 8,8\n"
        "model.head = 16\n"
        "train.epochs = 2\n"
        "train.batch_size = 16\n"
    )
    csvs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        csvs.append((out / "metrics.csv").read_text())

    def strip_wall(text):
        return "\n".join(",".join(line.split(",")[:-1]) for line in text.strip().split("\n"))

    same_metrics = strip_wall(csvs[0]) == strip_wall(csvs[1])

    model, _, _, _ = load_checkpoint(tmp_path / "a" / "checkpoint.dmpp")
    probe = RngState(1).generator().uniform(-1, 1, size=(3, 16, 2))
    before = model.forward(probe, "eval").data
    save_checkpoint(tmp_path / "roundtrip.dmpp", model)
    reloaded, _, _, _ = load_checkpoint(tmp_path / "roundtrip.dmpp")
    after = reloaded.forward(probe, "eval").data
    bitwise = np.array_equal(before, after)

    _report(
        "10",
        "seeded determinism and bitwise round-trip",
        same_metrics and bitwise,
        f"metrics identical (minus wall-clock)={same_metrics}, "
        f"checkpoint bitwise={bitwise}",
    )


def test_criterion_10_determinism_across_blas_threads(tmp_path):
    """The same checkpoint bytes and metrics under 1 and 2 BLAS threads.
    With 64-point sets each 256-set eval chunk is 16,384 rows, so
    evaluation runs in blocks of whole sets."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pinset.__file__)))
    config = os.path.join(root, "configs", "quadrant.cfg")
    argv = [sys.executable, "-m", "pinset.cli", "train", "--config", config]
    argv += ["--set", "train.epochs=2", "--set", "data.set_size=64"]
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(argv + ["--out", str(out)], env=env, check=True, capture_output=True)
        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0].endswith(",wall_seconds")
        runs.append(((out / "checkpoint.dmpp").read_bytes(), [row.rsplit(",", 1)[0] for row in metrics]))
    same_checkpoint = runs[0][0] == runs[1][0]
    same_metrics = runs[0][1] == runs[1][1] and len(runs[0][1]) == 5
    _report(
        "10",
        "determinism across 1 and 2 BLAS threads",
        same_checkpoint and same_metrics,
        f"checkpoint bytes identical={same_checkpoint}, metrics identical (minus wall-clock)={same_metrics}",
    )
