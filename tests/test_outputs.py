"""The outputs that must not move, pinned by sha256 in ``tests/outputs.json``:

- the verify report (``pinset verify --suite all``) at seeds 0 and 4242;
- the 2-epoch ``configs/quadrant.cfg`` seed-0 checkpoint, and its metrics
  CSV without the wall-clock column;
- for every preset, one train step's gradients and batchnorm running
  statistics, and one eval chunk's logits computed in two blocks;
- ``pinset decompose``'s factor files, and its report without the path
  fields, for a well-conditioned and an ill-conditioned seeded tensor.

The digests hold for the numpy, BLAS, BLAS kernels and CPU that the file
records as its ``environment``; anywhere else the tests skip and name what differs. A
change that means to move some of these bits rewrites the file with

    PYTHONPATH=src python tests/test_outputs.py

which prints each digest that moved (name, old -> new) and how many did
not; the change then says which digests moved, and why.

The same module checks that larger train steps, eval chunks and the
verify report are byte-identical under 1 and 2 OpenBLAS threads, each
thread count in its own child process.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pinset import verify
from pinset.cli import main
from pinset.models import PRESETS, build_model
from pinset.rng import RngState
from pinset.tensor import backward, softmax_cross_entropy
from pinset.textio import write_tensor

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
OUTPUTS = TESTS / "outputs.json"
VERIFY_SEEDS = (0, 4242)
BATCH, SET_SIZE = 4, 49  # the pinned train step and eval chunk
# the pinned decompositions: (name, shape, components). The (2,)*6 tensor
# at 32 components solves a square 32-column Vandermonde system, whose
# condition (~3e11) puts a conditioning warning in the report
DECOMPOSE_CASES = (("well", (3, 4, 5), 12), ("ill", (2,) * 6, 32))


def environment() -> dict:
    """What the pinned bits depend on besides pinset: numpy, its BLAS, the
    kernels that BLAS picks at run time and the CPU it picks them for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_core": _blas_core(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _blas_core() -> str | None:
    """The OpenBLAS core whose kernels run, as ``scipy_openblas_get_corename64_()``
    of numpy's bundled ``libscipy_openblas64_`` names it (``numpy.show_config()``
    gives only the build's configured target); None without that library.
    The symbol is not global, so the library is opened by its path."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digests(arrays: dict) -> dict:
    """The sha256 of each array's shape and C-order bytes, by name."""
    return {
        name: _sha256(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
        for name, a in arrays.items()
    }


def _joined_digest(arrays: dict) -> str:
    return _sha256("".join(f"{name} {d}\n" for name, d in array_digests(arrays).items()).encode())


def train_step_arrays(preset: str, batch: int = BATCH, set_size: int = SET_SIZE) -> dict:
    """One seeded train step of a fresh ``preset`` model: every
    parameter's gradient and every batchnorm's running statistics after
    it, by name."""
    cfg = PRESETS[preset]()
    model = build_model(cfg, RngState(0))
    gen = RngState(1).generator()
    sets = gen.uniform(-1, 1, size=(batch, set_size, cfg.input_width))
    labels = gen.integers(0, cfg.class_count, size=batch)
    params = model.parameters()
    loss = softmax_cross_entropy(model.forward(sets, "train", gen), labels)
    grads = backward(loss, list(params.values()))
    arrays = {f"grad.{name}": grads[p] for name, p in params.items()}
    for name, state in model.norm_states().items():
        arrays[f"{name}.mean"], arrays[f"{name}.var"] = state.mean, state.var
    return arrays


def blocked_eval_logits(preset: str, batch: int = BATCH, set_size: int = SET_SIZE) -> np.ndarray:
    """The eval logits of one chunk of seeded sets, its elements run in
    two blocks, by a fresh ``preset`` model with seeded running statistics
    (so that every batchnorm fold moves its layer)."""
    cfg = PRESETS[preset]()
    model = build_model(cfg, RngState(0))
    gen = RngState(2).generator()
    for state in model.norm_states().values():
        state.mean = gen.uniform(-0.5, 0.5, size=state.mean.shape)
        state.var = gen.uniform(0.5, 2.0, size=state.var.shape)
    sets = gen.uniform(-1, 1, size=(batch, set_size, cfg.input_width))
    return model.eval_logits(sets, batch // 2 * set_size).data


def verify_report_digest(seed: int) -> str:
    return _sha256(verify.report_json(verify.run_suites(verify.SUITE_NAMES, seed), seed).encode())


def quadrant_digests(out_dir) -> dict:
    """The digests of the 2-epoch ``configs/quadrant.cfg`` seed-0 run's
    checkpoint and of its metrics CSV without the wall-clock column."""
    argv = ["train", "--config", str(ROOT / "configs" / "quadrant.cfg"), "--seed", "0"]
    argv += ["--set", "train.epochs=2", "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    out = Path(out_dir)
    rows = (out / "metrics.csv").read_text().strip().split("\n")
    assert rows[0].endswith(",wall_seconds"), rows[0]
    return {
        "quadrant_cfg.checkpoint": _sha256((out / "checkpoint.dmpp").read_bytes()),
        "quadrant_cfg.metrics_csv": _sha256("\n".join(r.rsplit(",", 1)[0] for r in rows).encode()),
    }


def decompose_digests(out_dir) -> dict:
    """For each of :data:`DECOMPOSE_CASES`, a seeded uniform tensor run
    through ``pinset decompose``: the digest of its factor files, and of
    its report without the ``input`` and ``factors`` paths."""
    out = Path(out_dir)
    digests = {}
    for name, shape, components in DECOMPOSE_CASES:
        src = out / f"{name}.txt"
        write_tensor(src, RngState(3).child(name).generator().uniform(-1, 1, size=shape))
        argv = ["decompose", "--input", str(src), "--components", str(components), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        report = json.loads((out / f"{name}.decompose.json").read_text())
        del report["input"]
        factors = "".join(f"{_sha256(Path(p).read_bytes())}\n" for p in report.pop("factors"))
        digests[f"decompose.{name}.factors"] = _sha256(factors.encode())
        digests[f"decompose.{name}.report"] = _sha256(json.dumps(report, sort_keys=True).encode())
    return digests


def compute_all(out_dir) -> dict:
    digests = {f"verify_report.seed{seed}": verify_report_digest(seed) for seed in VERIFY_SEEDS}
    digests.update(quadrant_digests(out_dir))
    digests.update(decompose_digests(out_dir))
    for preset in sorted(PRESETS):
        digests[f"train_step.{preset}"] = _joined_digest(train_step_arrays(preset))
        digests[f"eval_chunk.{preset}"] = _joined_digest({"logits": blocked_eval_logits(preset)})
    return digests


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(OUTPUTS) as f:
        recorded = json.load(f)
    here = environment()
    differ = [
        f"{key}: pinned {recorded['environment'].get(key)!r}, here {value!r}"
        for key, value in here.items()
        if recorded["environment"].get(key) != value
    ]
    if differ:
        pytest.skip("outputs were pinned in another environment; " + "; ".join(differ))
    return recorded["sha256"]


def _check(pinned: dict, name: str, digest: str) -> None:
    assert digest == pinned[name], f"{name} moved: sha256 {digest}, pinned {pinned[name]}"


def test_every_output_is_pinned(pinned):
    names = {f"verify_report.seed{seed}" for seed in VERIFY_SEEDS}
    names |= {"quadrant_cfg.checkpoint", "quadrant_cfg.metrics_csv"}
    names |= {f"{kind}.{preset}" for kind in ("train_step", "eval_chunk") for preset in PRESETS}
    names |= {f"decompose.{case[0]}.{part}" for case in DECOMPOSE_CASES for part in ("factors", "report")}
    assert set(pinned) == names


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_report(pinned, seed):
    _check(pinned, f"verify_report.seed{seed}", verify_report_digest(seed))


def test_quadrant_checkpoint_and_metrics(pinned, tmp_path):
    for name, digest in quadrant_digests(tmp_path).items():
        _check(pinned, name, digest)


def test_decompose(pinned, tmp_path):
    for name, digest in decompose_digests(tmp_path).items():
        _check(pinned, name, digest)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_train_step(pinned, preset):
    _check(pinned, f"train_step.{preset}", _joined_digest(train_step_arrays(preset)))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_eval_chunk(pinned, preset):
    _check(pinned, f"eval_chunk.{preset}", _joined_digest({"logits": blocked_eval_logits(preset)}))


# the outputs checked across OpenBLAS thread counts, each as the digests
# of its arrays. At B=32, N=196 the element GEMMs are (6272, 64) and
# larger, large enough for OpenBLAS to split them between threads
THREAD_CASES = {
    "train_step.pixel-l": lambda: array_digests(train_step_arrays("pixel-l", 32, 196)),
    "train_step.pixel-s": lambda: array_digests(train_step_arrays("pixel-s", 32, 196)),
    "eval_chunk.pixel-l": lambda: array_digests({"logits": blocked_eval_logits("pixel-l", 32, 196)}),
    "eval_chunk.pixel-s": lambda: array_digests({"logits": blocked_eval_logits("pixel-s", 32, 196)}),
    "verify_report.seed0": lambda: {"report": verify_report_digest(0)},
}


@pytest.fixture(scope="module")
def thread_runs() -> dict:
    """Every case's digests by thread count, "1" and "2": one child
    process per thread count runs them all."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import test_outputs as t; "
        "print(json.dumps({name: case() for name, case in t.THREAD_CASES.items()}))"
    )
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", code, str(TESTS)], env=env, check=True, capture_output=True, text=True
        )
        runs[threads] = json.loads(done.stdout)
    return runs


def _differing_across_threads(runs: dict, case: str) -> list[str]:
    one, two = runs["1"][case], runs["2"][case]
    assert one.keys() == two.keys()
    return [name for name, digest in one.items() if two[name] != digest]


def test_pixel_l_train_step_is_identical_across_blas_threads(thread_runs):
    """One ``pixel-l`` train step at B=32, N=196 gives byte-identical
    gradients and running statistics under 1 and 2 OpenBLAS threads."""
    assert _differing_across_threads(thread_runs, "train_step.pixel-l") == []


@pytest.mark.parametrize("case", [c for c in THREAD_CASES if c != "train_step.pixel-l"])
def test_identical_across_blas_threads(thread_runs, case):
    """A ``pixel-s`` train step and each large preset's two-block eval
    chunk at B=32, N=196, and the seed-0 verify report, are byte-identical
    under 1 and 2 OpenBLAS threads."""
    assert _differing_across_threads(thread_runs, case) == []


def repin() -> None:
    """Rewrite ``tests/outputs.json`` from this tree and print each digest
    that moved, and how many did not."""
    try:
        with open(OUTPUTS) as f:
            before = json.load(f)
    except FileNotFoundError:
        before = {"environment": {}, "sha256": {}}
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "sha256": compute_all(tmp)}
    with open(OUTPUTS, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    if before["environment"] != record["environment"]:
        print(f"environment: {before['environment']} -> {record['environment']}")
    old = before["sha256"]
    moved = [name for name, digest in record["sha256"].items() if old.get(name) != digest]
    for name in moved:
        print(f"moved {name}: {old.get(name)} -> {record['sha256'][name]}")
    for name in sorted(old.keys() - record["sha256"].keys()):
        print(f"dropped {name}: {old[name]}")
    print(f"{len(record['sha256']) - len(moved)} unchanged; wrote {OUTPUTS}")


if __name__ == "__main__":
    repin()
