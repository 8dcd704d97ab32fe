"""Self-checks of the benchmark's tracer and metric lists.

    python3 -m pytest perfbench/tests -q

The call-count test runs every workload traced for one nominal second,
about a minute in all.
"""

import functools
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
from clock import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402

from pinset import blocks, data, decomp, models, tensor, train, verify  # noqa: E402
from pinset.rng import RngState  # noqa: E402

TRAINING = {"quadrant", "pixel-s", "pixel-l"}
ALL = TRAINING | {"lab"}

# span -> (workloads where it must be called, workloads where it must not)
PREDICTIONS = {
    "tensor.backward": ({"quadrant", "pixel-s"}, set()),
    "tensor.matmul": ({"pixel-l"}, set()),
    "tensor.batchnorm": ({"pixel-s"}, set()),
    "tensor.pair_aggregate": ({"pixel-s", "pixel-l"}, set()),
    "tensor.set_softmax": ({"pixel-s"}, set()),
    "tensor.tile_rows": ({"pixel-l"}, {"pixel-s", "quadrant"}),
    "tensor.finite_difference_gradient": ({"lab"}, TRAINING),
    "kernels.sum_product_forward": ({"lab"}, TRAINING),
    "kernels.sum_product_backward": ({"lab"}, TRAINING),
    "blocks.aggregate": ({"pixel-s"}, set()),
    "blocks.Mlp.forward": ({"pixel-s"}, set()),
    "blocks.broadcast_batched": ({"pixel-l"}, {"pixel-s", "quadrant"}),
    "blocks.aggregate_order_n": ({"lab"}, TRAINING),
    "models.Model.forward": (TRAINING, set()),
    "train.sgd_step": (TRAINING, {"lab"}),
    "train.evaluate": (TRAINING, set()),
    "data.load_mnist_idx": ({"pixel-s", "pixel-l"}, {"quadrant", "lab"}),
    "data.pixel_set_batch": ({"pixel-s", "pixel-l"}, {"quadrant", "lab"}),
    "data.make_synthetic_task": ({"quadrant"}, {"pixel-s", "pixel-l", "lab"}),
    "decomp.cp_decompose": ({"lab"}, TRAINING),
    "decomp.mdd_solve": ({"lab"}, TRAINING),
    "decomp.reconstruct_cp": ({"lab"}, TRAINING),
    "textio.read_tensor": ({"lab"}, TRAINING),
    "textio.write_tensor": ({"lab"}, TRAINING),
    **{f"verify.run_{s}": ({"lab"}, TRAINING) for s in verify.SUITE_NAMES},
}


def _stale_references(tracer):
    """(owner, key) pairs in pinset that still hold an unwrapped original."""
    stale = []
    for name, module in list(sys.modules.items()):
        if name != "pinset" and not name.startswith("pinset."):
            continue
        for key, value in vars(module).items():
            if id(value) in tracer.wrappers:
                stale.append((name, key))
            elif isinstance(value, dict):
                stale += [(f"{name}.{key}", k) for k, v in value.items() if id(v) in tracer.wrappers]
    return stale


def test_install_patches_every_binding_site_and_uninstall_restores():
    originals = (
        tensor.matmul, blocks.matmul, verify._RUNNERS["gradcheck"], models.Model.forward, tensor._result
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert _stale_references(tracer) == []
        assert blocks.matmul is tensor.matmul is models.__dict__.get("matmul", tensor.matmul)
        assert tensor.matmul.__wrapped__ is originals[0]
        assert verify._RUNNERS["gradcheck"] is verify.run_gradcheck
        assert verify.run_gradcheck.__wrapped__ is originals[2]
        assert models.Model.forward.__wrapped__ is originals[3]
        assert train.backward is tensor.backward
        assert tensor._result is not originals[4]
    finally:
        tracer.uninstall()
    assert (
        tensor.matmul, blocks.matmul, verify._RUNNERS["gradcheck"], models.Model.forward, tensor._result
    ) == originals


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        a = tensor.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        loss = tensor.sum_all(tensor.matmul(a, a))
        tensor.backward(loss, [a])
        with pytest.raises(decomp.RankDeficiencyError):
            decomp.kernel_basis([[1.0, 1.0], [1.0, 1.0]])
    finally:
        tracer.uninstall()
    assert tracer.calls["tensor.matmul"] == 1
    assert tracer.flops["tensor.matmul"] == 2 * 2 * 2 * 2
    assert tracer.error_count("decomp.kernel_basis", "RankDeficiencyError") == 1
    names = {span[0]: span[2] for span in tracer.spans}
    assert all(parent == -1 or parent in names for _, parent, *_ in tracer.spans)
    for name in tracer.calls:
        assert 0.0 <= tracer.self_ms(name) <= tracer.ms(name)


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == harness.per_layer_names()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s": "s", **harness.END_TO_END_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    clock = Clock()
    with clock.running():
        clock.use_numpy(harness.np)
        for name in harness.WORKLOADS:
            workdir = str(tmp_path_factory.mktemp(name))
            runs[name] = harness.measured_run(clock, name, 3, 1, True, workdir)
    return runs


@pytest.mark.parametrize("span", sorted(PREDICTIONS))
def test_call_count_predictions(traced_runs, span):
    called, idle = PREDICTIONS[span]
    prefix = harness.metric_prefix(span)
    for name in called:
        assert traced_runs[name]["metrics"][f"{prefix}.calls"]["value"] >= 1, name
    for name in idle:
        assert traced_runs[name]["metrics"][f"{prefix}.calls"]["value"] == 0, name


def quadrant_step_graph_nodes() -> int:
    """Tape nodes of one quadrant training step, counted by walking the
    loss's graph: every node that has a backward function."""
    config = models.PRESETS["quadrant"]()
    model = models.build_model(config, RngState(5).child("model"))
    batch = data.make_synthetic_task(
        data.SyntheticTaskSpec(set_size=32, train_size=harness.workloads.BATCH, test_size=2, seed=5)
    )[0]
    logits = model.forward(tensor.Tensor(batch.sets), "train", RngState(5).generator())
    loss = tensor.softmax_cross_entropy(logits, batch.labels)
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sum(node._backward is not None for node in seen.values())


def test_traced_runs_are_correct_and_count_tape_nodes(traced_runs):
    for name, run in traced_runs.items():
        assert run["correct"], (name, run["checks"])
        assert set(run["metrics"]) == {n for n, _ in harness.per_layer_names()}
    ops = traced_runs["quadrant"]["metrics"]["tensor.ops_per_step"]["value"]
    assert ops == quadrant_step_graph_nodes() > 0
    assert traced_runs["lab"]["metrics"]["decomp.rank_deficiency_errors"]["value"] >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported_not_raised(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(train, "TrainConfig", functools.partial(train.TrainConfig, lr=1e12))
    clock = Clock()
    with clock.running():
        clock.use_numpy(harness.np)
        result = harness.measured_run(clock, "quadrant", 3, 1, False, str(tmp_path))
    assert not result["correct"]
    failing = {name for name, passed, _ in result["checks"] if not passed}
    assert {"train_losses_finite", "reference_losses_finite"} <= failing
    assert result["failed"] >= len(failing) + 1
    assert math.isnan(result["metrics"]["step_ms"]["value"])

    monkeypatch.setattr(run, "setup_seconds", lambda *args: [0.5])
    monkeypatch.setattr(run, "measured", lambda *args: result)
    assert run.main(["--workload", "quadrant", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == result["failed"]
