"""The benchmark's workloads, driven through pinset's public API.

Each workload makes its inputs from the seed (``setup``), warms up,
runs a fixed amount of timed work sized from the requested seconds, and
then checks its outputs outside the timed region. Two kinds of op are
timed one by one:

* step: a forward and backward pass. On the training workloads this is
  one train step inside ``train.train`` (the gap between two returns of
  ``train.sgd_step`` within an epoch); on ``lab`` it is one
  ``blocks.aggregate_order_n`` forward plus ``tensor.backward``.
* query: work without gradients. On the training workloads this is one
  ``train.evaluate`` call on one chunk of the test split; on ``lab`` it
  is one ``pinset decompose`` round trip (``textio.read_tensor``,
  ``decomp.cp_decompose``, ``decomp.reconstruct_cp``, ``textio.write_tensor``).

Each workload also runs a fixed reference job three times; the median
is ``check_s``. On ``lab`` the job is the verify suites, run after the
timed ops; on the training workloads it is a short fixed-seed training
run, run before, between and after the timed phases, whose loss and
accuracy trajectory is compared with ``reference.json``.

The nominal op times below, in scaled seconds (see clock.py), size the
work so that a run measures about the requested seconds; the amount of
work depends only on the seconds, never on measured speed.
"""

from __future__ import annotations

import json
import os
import statistics
import warnings
from dataclasses import dataclass, field

import numpy as np

from pinset import blocks, data, decomp, models, tensor, textio, train, verify
from pinset.rng import RngState

from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

BATCH = 32
TRAIN_SHARE = 0.6  # of the timed seconds; evaluation gets the rest
REFERENCE_SEED = 20220308  # reference jobs ignore --seed
REFERENCE_RUNS = 3  # verify runs on lab; check_s is their median
LOSS_RTOL = 1e-6  # stored-trajectory tolerance; accuracy may differ by one set
RECON_TOL = 1e-6  # relative Frobenius error of a decomposition
ORDER_N_RTOL = 1e-10  # order-n forward against the brute-force sum-product
FD_RTOL = 1e-6  # sum-product backward against finite differences


def percentile(values, q: float) -> float:
    """Inclusive-method percentile; the single value when there is one,
    NaN when there is none (a failed run still reports)."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1])


@dataclass
class Outcome:
    """What one measurement pass produced. Ops are recorded as pairs of
    clock marks and turned into times once the run is over."""

    clock: Clock
    steps: list = field(default_factory=list)  # (mark, mark) per step
    step_tags: list = field(default_factory=list)  # case of each step (lab: factor widths)
    queries: list = field(default_factory=list)  # (mark, mark) per query
    query_tags: list = field(default_factory=list)  # case of each query (lab: battery entry)
    jobs: list = field(default_factory=list)  # (mark, mark) per reference job
    job_outputs: list = field(default_factory=list)  # per reference job; None if it failed
    attempted: dict = field(default_factory=dict)  # op kind -> count
    failed: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    ops_per_step: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def mark(self):
        return self.clock.mark()

    def times(self, kind: str, scaled: bool = True) -> list:
        """Milliseconds of every recorded op of one kind."""
        return [self.clock.interval(a, b)[int(scaled)] for a, b in getattr(self, kind)]

    def count(self, kind: str, failed: bool = False) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed[kind] = self.failed.get(kind, 0) + int(failed)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record a correctness check; it also counts as an op, failed
        when the check fails."""
        self.checks.append((name, bool(passed), detail))
        self.count("check", failed=not passed)


def round_ms(times: list, tags: list, cases) -> float:
    """Sum over ``cases`` of each case's median time: one pass over every
    case, so that each case moves the figure by its share of the pass.
    NaN when a case has no time."""
    return sum(percentile([t for t, tag in zip(times, tags) if tag == case], 50) for case in cases)


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainingWorkload:
    name: str
    preset: str
    pixels: bool  # synthetic images through IDX files, else quadrant sets
    train_sets: int
    test_sets: int
    monitor_sets: int  # test sets train.train evaluates after each epoch
    eval_chunk: int
    epoch_s: float  # nominal seconds per epoch, monitor included
    chunk_s: float  # nominal seconds per evaluated chunk
    reference: tuple  # (train sets, test sets, epochs) of the reference job

    # every step and every eval chunk is one case
    step_cases = (None,)
    query_cases = (None,)

    @property
    def steps_per_epoch(self) -> int:
        return self.train_sets // BATCH

    # -- inputs ---------------------------------------------------------------

    def _sets(self, seed: int, train_sets: int, test_sets: int, workdir: str | None):
        if not self.pixels:
            spec = data.SyntheticTaskSpec(
                set_size=32, train_size=train_sets, test_size=test_sets, seed=seed
            )
            return data.make_synthetic_task(spec)
        gen = RngState(seed).child("images").generator()
        root = RngState(seed)
        out = []
        for split, count in (("train", train_sets), ("test", test_sets)):
            images, labels = digit_images(gen, count)
            if workdir is not None:
                img_path = os.path.join(workdir, f"{split}-images-idx3-ubyte")
                lbl_path = os.path.join(workdir, f"{split}-labels-idx1-ubyte")
                data.write_idx(img_path, lbl_path, images, labels)
                images, labels = data.load_mnist_idx(img_path, lbl_path)
            out.append(
                data.pixel_set_batch(images, labels, root.child(f"{split}-pixels"), downsample=2)
            )
        return out[0], out[1]

    def setup(self, seed: int, workdir: str) -> dict:
        train_batch, test_batch = self._sets(seed, self.train_sets, self.test_sets, workdir)
        config = models.PRESETS[self.preset]()
        model = models.build_model(config, RngState(seed).child("model"))
        return {
            "seed": seed,
            "config": config,
            "model": model,
            "train": train_batch,
            "test": test_batch,
            "monitor": _head(test_batch, self.monitor_sets),
        }

    # -- timed work -----------------------------------------------------------

    def warmup(self, ctx: dict) -> None:
        scratch = models.build_model(ctx["config"], RngState(ctx["seed"]).child("warmup"))
        try:
            train.train(
                scratch,
                _head(ctx["train"], 2 * BATCH),
                _head(ctx["test"], 2),
                train.TrainConfig(epochs=1, batch_size=BATCH),
                RngState(ctx["seed"]).child("warmup"),
            )
        except train.DivergenceError:
            pass  # the timed training reports it as a failed step and check
        train.evaluate(scratch, _head(ctx["test"], self.eval_chunk), chunk=self.eval_chunk)

    def measure(self, ctx: dict, seconds: float, out: Outcome, op_counter=None) -> None:
        """Train one epoch at a time with eval chunks between the epochs,
        and run the reference job at the start, the middle and the end, so
        that each median spans the whole run's changes of machine speed.
        ``op_counter``, when given, returns the tape nodes recorded so far;
        it is read after every step to give ``out.ops_per_step``."""
        epochs = max(1, round(TRAIN_SHARE * seconds / self.epoch_s))
        chunks = max(epochs + 1, round((1.0 - TRAIN_SHARE) * seconds / self.chunk_s))
        test = ctx["test"]
        slices = [
            data.SetBatch(test.sets[i : i + self.eval_chunk], test.labels[i : i + self.eval_chunk])
            for i in range(0, test.size, self.eval_chunk)
        ]
        history = []
        diverged = None
        self._reference_job(out)
        for epoch in range(epochs + 1):
            share = chunks * (epoch + 1) // (epochs + 1) - chunks * epoch // (epochs + 1)
            first = self._eval_chunks(ctx, slices, share, out)
            if epoch == epochs // 2:
                self._reference_job(out)
            if epoch < epochs and diverged is None:
                try:
                    history += self._train_epoch(ctx, epoch, out, op_counter)
                except train.DivergenceError as exc:
                    diverged = str(exc)
        self._reference_job(out)

        losses = [row[2] for row in history]
        steps = out.attempted.get("train_step", 0)
        out.check(
            "train_losses_finite",
            diverged is None and all(np.isfinite(losses)) and steps == epochs * self.steps_per_epoch,
            diverged or f"{steps} steps over {epochs} epochs",
        )
        out.info["train_history"] = history
        # the last chunks ran after training: evaluate their first again
        again = train.evaluate(ctx["model"], slices[0], chunk=self.eval_chunk)
        non_finite = out.failed.get("eval_chunk", 0)
        out.check(
            "eval_finite_and_repeatable",
            non_finite == 0 and (again["loss"], again["correct"]) == (first["loss"], first["correct"]),
            f"{non_finite} of {chunks} chunks gave a non-finite loss; the first of the "
            "last chunks, evaluated again, must give the same loss and count",
        )

    def _train_epoch(self, ctx, epoch: int, out: Outcome, op_counter) -> list:
        """One ``train.train`` epoch; its steps after the first are timed
        as the gaps between ``train.sgd_step`` returns."""
        stamps = []
        ops = []
        inner = train.sgd_step

        def timed_sgd_step(*args, **kwargs):
            result = inner(*args, **kwargs)
            stamps.append(out.mark())
            if op_counter is not None:
                ops.append(op_counter())
            return result

        train.sgd_step = timed_sgd_step
        try:
            history = train.train(
                ctx["model"],
                ctx["train"],
                ctx["monitor"],
                train.TrainConfig(epochs=1, batch_size=BATCH),
                RngState(ctx["seed"]).child("train", epoch),
            )
        except train.DivergenceError:
            out.count("train_step", failed=True)
            raise
        finally:
            train.sgd_step = inner
        pairs = list(zip(stamps, stamps[1:]))
        out.steps += pairs
        out.step_tags += [None] * len(pairs)
        out.ops_per_step += [b - a for a, b in zip(ops, ops[1:])]
        for _ in stamps:
            out.count("train_step")
        return [[epoch, row["split"], row["loss"], row["accuracy"]] for row in history]

    def _eval_chunks(self, ctx, slices, chunks: int, out: Outcome) -> dict:
        """Evaluate ``chunks`` chunks, cycling from the first; return the
        first result."""
        first = None
        for k in range(chunks):
            m0 = out.mark()
            result = train.evaluate(ctx["model"], slices[k % len(slices)], chunk=self.eval_chunk)
            out.queries.append((m0, out.mark()))
            out.query_tags.append(None)
            first = first or result
            out.count("eval_chunk", failed=not np.isfinite(result["loss"]))
        return first

    # -- reference job and checks ---------------------------------------------

    def reference_job(self) -> tuple[list, np.ndarray]:
        """Fixed-seed training run: (trajectory, final parameters)."""
        n_train, n_test, epochs = self.reference
        train_batch, test_batch = self._sets(REFERENCE_SEED, n_train, n_test, None)
        model = models.build_model(
            models.PRESETS[self.preset](), RngState(REFERENCE_SEED).child("model")
        )
        history = train.train(
            model,
            train_batch,
            test_batch,
            train.TrainConfig(epochs=epochs, batch_size=BATCH),
            RngState(REFERENCE_SEED).child("train"),
        )
        trajectory = [[row["epoch"], row["split"], row["loss"], row["accuracy"]] for row in history]
        params = np.concatenate([p.data.reshape(-1) for p in model.parameters().values()])
        return trajectory, params

    def _reference_job(self, out: Outcome) -> None:
        m0 = out.mark()
        try:
            out.job_outputs.append(self.reference_job())
        except train.DivergenceError as exc:
            out.job_outputs.append(None)
            out.count("reference_job", failed=True)
            out.info["reference_divergence"] = str(exc)
            return
        out.jobs.append((m0, out.mark()))
        out.count("reference_job")

    def check(self, ctx: dict, out: Outcome) -> None:
        runs = out.job_outputs
        if None in runs:
            out.check("reference_losses_finite", False, out.info["reference_divergence"])
            return
        traj_a, params_a = runs[0]
        out.check(
            "same_seed_bit_identical",
            all(traj == traj_a and np.array_equal(params, params_a) for traj, params in runs),
            f"{len(runs)} fixed-seed reference runs in one process",
        )
        stored = load_reference().get(self.name)
        out.check(
            "trajectory_matches_reference",
            stored is not None and trajectories_match(traj_a, stored, self.reference),
            f"loss within {LOSS_RTOL:g} relative and accuracy within one set "
            "of reference.json",
        )
        out.info["reference_trajectory"] = traj_a


def digit_images(gen: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """28x28 uint8 images: a bright 8x8 block whose position encodes the
    label, over uniform noise."""
    labels = gen.integers(0, 10, size=count).astype(np.uint8)
    images = gen.integers(0, 96, size=(count, 28, 28)).astype(np.uint8)
    for i, label in enumerate(labels):
        r, c = divmod(int(label), 5)
        images[i, 4 + 12 * r : 12 + 12 * r, 1 + 5 * c : 9 + 5 * c] = 255
    return images, labels


def _head(batch, count: int):
    return data.SetBatch(batch.sets[:count], batch.labels[:count])


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def trajectories_match(got: list, want: list, reference: tuple) -> bool:
    n_train, n_test, _ = reference
    if len(got) != len(want):
        return False
    for (e1, s1, loss1, acc1), (e2, s2, loss2, acc2) in zip(got, want):
        if (e1, s1) != (e2, s2) or not np.isfinite(loss1):
            return False
        if abs(loss1 - loss2) > LOSS_RTOL * abs(loss2):
            return False
        one_set = 1.0 / (n_train if s1 == "train" else n_test)
        if abs(acc1 - acc2) > one_set + 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# lab


# (dims, components). The first SOLVABLE entries decompose today; the
# last two are at or above the bound of 36 components, where cp_decompose
# currently raises RankDeficiencyError, and count as failed ops. query_ms
# sums over the solvable entries only, so that fixing that bound adds
# successful ops without changing the figure.
BATTERY = [
    ((7, 7), 7),
    ((6, 6, 2), 12),
    ((4, 4, 8), 16),
    ((2, 3, 4, 5), 24),
    ((5, 5, 5), 25),
    ((3, 3, 3, 3), 27),
    ((3, 3, 3, 3), 30),
    ((2, 2, 2, 2, 2, 2), 32),
    ((4, 8, 8), 32),
    ((2, 4, 4, 2), 32),
    ((3, 4, 6), 12),
    ((6, 6, 6), 36),
    ((8, 8, 8), 64),
]
SOLVABLE = 11

# factor widths of the order-n cases; (16, 8, 8), (8, 8, 4, 4) and
# (4, 4, 4, 4, 2, 2) are the shapes of benchmarks/bench_kernels.py
ORDER_N = [(6, 6, 6), (16, 8, 8), (8, 8, 4, 4), (8, 4, 4, 4, 2), (4, 4, 4, 4, 2, 2)]
ORDER_N_ROWS = 256


class LabWorkload:
    name = "lab"
    step_cases = tuple(str(dims) for dims in ORDER_N)
    query_cases = tuple(range(SOLVABLE))
    decompose_s = 0.002  # nominal seconds per battery round trip
    order_n_s = 0.015  # nominal seconds per order-n forward and backward
    DECOMPOSE_SHARE = 0.5

    def setup(self, seed: int, workdir: str) -> dict:
        gen = RngState(seed).child("lab").generator()
        battery = []
        for i, (dims, comps) in enumerate(BATTERY):
            path = os.path.join(workdir, f"tensor{i}.txt")
            textio.write_tensor(path, gen.uniform(-1.0, 1.0, size=dims))
            battery.append((path, comps, os.path.join(workdir, f"tensor{i}")))
        cases = []
        for i, dims in enumerate(ORDER_N):
            mlps = [
                blocks.Mlp(
                    blocks.MlpSpec([3, 16, c], final_activation="softmax_set" if j == 0 else "none"),
                    RngState(seed).child("order-n", i, j),
                )
                for j, c in enumerate(dims)
            ]
            params = [p for m in mlps for p in m.parameters().values()]
            x = gen.uniform(-1.0, 1.0, size=(ORDER_N_ROWS, 3))
            g = gen.standard_normal(dims)
            cases.append({"mlps": mlps, "params": params, "x": x, "g": g, "dims": dims})
        # first output of each battery case and order-n case, for the checks
        return {"seed": seed, "battery": battery, "cases": cases, "first": {}}

    def warmup(self, ctx: dict) -> None:
        self._decompose(ctx, 0, Outcome(Clock()), {})
        self._order_n(ctx, 0, Outcome(Clock()), {})

    def measure(self, ctx: dict, seconds: float, out: Outcome, op_counter=None) -> None:
        n_decomp = max(1, round(self.DECOMPOSE_SHARE * seconds / self.decompose_s))
        n_order = max(1, round((1.0 - self.DECOMPOSE_SHARE) * seconds / self.order_n_s))
        # the two kinds interleaved evenly, so that each median spans the
        # whole run's changes of machine speed
        schedule = sorted(
            [((k + 0.5) / n_decomp, 0, k) for k in range(n_decomp)]
            + [((k + 0.5) / n_order, 1, k) for k in range(n_order)]
        )
        for _, kind, k in schedule:
            if kind == 0:
                self._decompose(ctx, k % len(ctx["battery"]), out, ctx["first"])
            else:
                self._order_n(ctx, k % len(ctx["cases"]), out, ctx["first"])

    def _decompose(self, ctx, i: int, out: Outcome, keep: dict) -> None:
        path, comps, stem = ctx["battery"][i]
        m0 = out.mark()
        tensor_in = textio.read_tensor(path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", decomp.ConditioningWarning)
                factors = decomp.cp_decompose(tensor_in, comps)
        except decomp.RankDeficiencyError:
            out.count("decomposition", failed=True)
            return
        recon = decomp.reconstruct_cp(factors)
        for j, factor in enumerate(factors.factors):
            textio.write_tensor(f"{stem}.factor{j}.txt", factor)
        out.queries.append((m0, out.mark()))
        out.query_tags.append(i)
        keep.setdefault(("decompose", i), factors.factors)
        err = float(np.linalg.norm(recon - tensor_in) / np.linalg.norm(tensor_in))
        out.count("decomposition", failed=err > RECON_TOL)
        out.info["worst_reconstruction_error"] = max(err, out.info.get("worst_reconstruction_error", 0.0))

    def _order_n(self, ctx, i: int, out: Outcome, keep: dict) -> None:
        case = ctx["cases"][i]
        m0 = out.mark()
        y = blocks.aggregate_order_n(case["mlps"], tensor.Tensor(case["x"]), "eval")
        loss = tensor.sum_all(tensor.mul(y, tensor.Tensor(case["g"])))
        grads = tensor.backward(loss, case["params"])
        out.steps.append((m0, out.mark()))
        out.step_tags.append(str(case["dims"]))
        ok = np.all(np.isfinite(y.data)) and all(np.all(np.isfinite(g)) for g in grads.values())
        out.count("order_n_call", failed=not ok)
        keep.setdefault(("order_n", i), y.data)

    def check(self, ctx: dict, out: Outcome) -> None:
        worst = out.info.get("worst_reconstruction_error", 0.0)
        out.check(
            "decompositions_reconstruct",
            worst <= RECON_TOL,
            f"worst relative Frobenius error {worst:.2e} of {len(out.queries)} decompositions",
        )
        solved = set(out.query_tags)
        out.check(
            "solvable_entries_decompose",
            solved.issuperset(self.query_cases),
            f"{len(solved & set(self.query_cases))} of {SOLVABLE} solvable battery entries decomposed",
        )
        failing = set()
        for _ in range(REFERENCE_RUNS):
            m0 = out.mark()
            results = verify.run_suites(list(verify.SUITE_NAMES), ctx["seed"])
            out.jobs.append((m0, out.mark()))
            for suite in results:
                for prop in suite.properties:
                    out.count("verify_property", failed=not prop.passed)
                    if not prop.passed:
                        failing.add(f"{suite.suite}.{prop.name}")
        out.check(
            "verify_properties_pass",
            not failing,
            ", ".join(sorted(failing)) or f"all passed in {REFERENCE_RUNS} runs",
        )

        worst = 0.0
        outputs = {i: y for (kind, i), y in ctx["first"].items() if kind == "order_n"}
        for i, y in outputs.items():
            case = ctx["cases"][i]
            n = case["x"].shape[0]
            factors = [m.forward(tensor.Tensor(case["x"]), "eval", set_size=n).data for m in case["mlps"]]
            worst = max(worst, _relative(y, brute_force_sum_product(factors)))
        out.check(
            "order_n_matches_brute_force",
            len(outputs) == len(ctx["cases"]) and worst <= ORDER_N_RTOL,
            f"worst relative difference {worst:.2e} over {len(outputs)} cases",
        )
        err = sum_product_fd_error(RngState(ctx["seed"]).child("fd"))
        out.check(
            "sum_product_backward_matches_fd",
            err <= FD_RTOL,
            f"guarded relative error {err:.2e} on (5 rows; 3, 2, 2)",
        )
        again = {}
        self._order_n(ctx, 0, Outcome(out.clock), again)
        self._decompose(ctx, 0, Outcome(out.clock), again)
        out.check(
            "same_seed_bit_identical",
            again.keys() == {("order_n", 0), ("decompose", 0)}
            and all(_same(ctx["first"][key], value) for key, value in again.items()),
            "order-n output and decomposition factors recomputed in one process",
        )


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def brute_force_sum_product(factors) -> np.ndarray:
    """sum_i of the outer product of row i of every factor, one row at a time."""
    out = np.zeros(tuple(f.shape[1] for f in factors))
    for i in range(factors[0].shape[0]):
        term = factors[0][i]
        for f in factors[1:]:
            term = np.multiply.outer(term, f[i])
        out += term
    return out


def sum_product_fd_error(rng: RngState) -> float:
    gen = rng.generator()
    dims = (3, 2, 2)
    arrays = [gen.uniform(-1.0, 1.0, size=(5, c)) for c in dims]
    g = gen.standard_normal(dims)

    def loss_of(arrs):
        return tensor.sum_all(tensor.mul(tensor.sum_product([tensor.Tensor(a) for a in arrs]), tensor.Tensor(g)))

    leaves = [tensor.Tensor(a, requires_grad=True) for a in arrays]
    loss = tensor.sum_all(tensor.mul(tensor.sum_product(leaves), tensor.Tensor(g)))
    grads = tensor.backward(loss, leaves)
    worst = 0.0
    for j, leaf in enumerate(leaves):

        def f(arr, _j=j):
            return float(loss_of(arrays[:_j] + [arr] + arrays[_j + 1 :]).data)

        fd = tensor.finite_difference_gradient(f, arrays[j].copy())
        worst = max(worst, _relative(grads[leaf], fd))
    return worst


def _relative(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)))


WORKLOADS = {
    "quadrant": TrainingWorkload(
        name="quadrant",
        preset="quadrant",
        pixels=False,
        train_sets=2048,
        test_sets=512,
        monitor_sets=512,
        eval_chunk=256,
        epoch_s=0.24,
        chunk_s=0.014,
        reference=(1024, 128, 4),
    ),
    "pixel-s": TrainingWorkload(
        name="pixel-s",
        preset="pixel-s",
        pixels=True,
        train_sets=640,
        test_sets=512,
        monitor_sets=64,
        eval_chunk=256,
        epoch_s=2.3,
        chunk_s=0.39,
        reference=(128, 64, 2),
    ),
    # eval chunk 64, not 256: at 256 sets (50176 rows x 256 wide) the
    # retained graph of one chunk peaks at about 3.2 GB
    "pixel-l": TrainingWorkload(
        name="pixel-l",
        preset="pixel-l",
        pixels=True,
        train_sets=320,
        test_sets=512,
        monitor_sets=32,
        eval_chunk=64,
        epoch_s=4.1,
        chunk_s=0.28,
        reference=(64, 32, 2),
    ),
    "lab": LabWorkload(),
}
