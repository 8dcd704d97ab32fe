"""Executable property suites behind ``pinset verify``.

Each suite turns one family of structural claims into seeded numerical
trials: permutation invariance of the aggregation and of full classifiers,
correctness of the linear solution set, the constructive sum-product
decomposition at its cardinality bound, rank stability under small
perturbations, finite-difference gradient agreement, and the
no-activation collapse with its element-wise decomposition.

Suites are deterministic given the master seed.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import decomp, kernels
from .blocks import (
    ACTIVATION_KINDS,
    AggregationBlock,
    Mlp,
    MlpSpec,
    aggregate,
    per_element_contribution,
)
from .models import build_model, gradcheck_config, pixel_s_config
from .rng import RngState
from .tensor import (
    Tensor,
    _reachable,
    backward,
    finite_difference_gradient,
    no_grad,
    softmax_cross_entropy,
)

SUITE_NAMES = ("invariance", "mdd", "cp", "rankstab", "gradcheck", "collapse")


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst": self.worst,
            "detail": self.detail,
            "passed": self.passed,
        }


@dataclass
class SuiteResult:
    suite: str
    seed: int
    properties: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "properties": [p.as_dict() for p in self.properties],
        }


def relative_error(a, b) -> float:
    """Guarded relative error: |a-b| scaled by max(|a|, |b|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# invariance


def _invariance_block(act1: str, act2: str, rng: RngState) -> AggregationBlock:
    return AggregationBlock(
        mlp1=Mlp(MlpSpec([3, 16, 12], final_activation=act1), rng.child(0)),
        mlp2=Mlp(MlpSpec([3, 16, 16], final_activation=act2), rng.child(1)),
        dropout_ratio=0.0,
    )


@no_grad()
def run_invariance(seed: int, pairs_per_config: int = 100) -> SuiteResult:
    """aggregate(PX) == aggregate(X) for every activation pair, and for
    full classifier logits, within 1e-12."""
    result = SuiteResult("invariance", seed)
    root = RngState(seed).child("invariance")
    n_elements = 40

    for act1, act2 in itertools.product(ACTIVATION_KINDS, repeat=2):
        block = _invariance_block(act1, act2, root.child("params", act1, act2))

        def trial(i, _block=block, _a1=act1, _a2=act2):
            gen = root.child("pair", _a1, _a2, i).generator()
            x = gen.uniform(-1.0, 1.0, size=(n_elements, 3))
            perm = gen.permutation(n_elements)
            base = aggregate(_block, Tensor(x[None]), "eval")
            permuted = aggregate(_block, Tensor(x[perm][None]), "eval")
            return float(np.max(np.abs(base.data - permuted.data)))

        diffs = [trial(i) for i in range(pairs_per_config)]
        result.properties.append(
            PropertyResult(
                name=f"aggregate_invariance[{act1},{act2}]",
                trials=pairs_per_config,
                failures=sum(d > 1e-12 for d in diffs),
                worst=max(diffs),
                detail="max |aggregate(PX) - aggregate(X)|, tolerance 1e-12",
            )
        )

    model = build_model(pixel_s_config(), root.child("model"))

    def logits_trial(i):
        gen = root.child("logits", i).generator()
        x = gen.uniform(-1.0, 1.0, size=(784, 3))
        perm = gen.permutation(784)
        base = model.forward(x[None], "eval")
        permuted = model.forward(x[perm][None], "eval")
        return float(np.max(np.abs(base.data - permuted.data)))

    diffs = [logits_trial(i) for i in range(pairs_per_config)]
    result.properties.append(
        PropertyResult(
            name="classifier_logits_invariance",
            trials=pairs_per_config,
            failures=sum(d > 1e-12 for d in diffs),
            worst=max(diffs),
            detail="end-to-end logits under input permutation, tolerance 1e-12",
        )
    )
    return result


# ---------------------------------------------------------------------------
# linear solution set


def run_mdd(seed: int, instances: int = 200, lambdas: int = 10, corrupt=None) -> SuiteResult:
    """Residuals and kernel structure over random full-row-rank systems.

    ``corrupt`` is a test hook applied to each solution before checking;
    the suite must then fail, which the negative-control test asserts.
    """
    result = SuiteResult("mdd", seed)
    root = RngState(seed).child("mdd")

    def trial(i):
        gen = root.child(i).generator()
        m = int(gen.integers(1, 13))
        l = int(gen.integers(m, 13))
        n = int(gen.integers(m, 13))
        while True:
            b = gen.standard_normal((m, l))
            if decomp.numeric_rank(b) == m:
                break
        a = gen.standard_normal((m, n))
        sol = decomp.mdd_solve(b, a)
        if corrupt is not None:
            corrupt(sol)
        denom = np.linalg.norm(a) + 1.0
        worst_resid = np.linalg.norm(b @ sol.particular - a) / denom
        for _ in range(lambdas):
            lam = gen.standard_normal((l - m, n))
            c = decomp.sample_solution(sol, lam)
            worst_resid = max(worst_resid, np.linalg.norm(b @ c - a) / denom)
        kernel_ok = sol.kernel_basis.shape == (l, l - m)
        annihilation = float(
            np.max(np.abs(b @ sol.kernel_basis)) if l > m else 0.0
        )
        gram = sol.kernel_basis.T @ sol.kernel_basis
        ortho = float(np.max(np.abs(gram - np.eye(l - m)))) if l > m else 0.0
        return float(worst_resid), kernel_ok, annihilation, ortho

    rows = [trial(i) for i in range(instances)]
    resids = [r[0] for r in rows]
    result.properties.append(
        PropertyResult(
            name="solution_residual",
            trials=instances,
            failures=sum(r > 1e-8 for r in resids),
            worst=max(resids),
            detail="||B C - A||_F / (||A||_F + 1) over particular and sampled "
            "solutions, tolerance 1e-8",
        )
    )
    result.properties.append(
        PropertyResult(
            name="kernel_dimension",
            trials=instances,
            failures=sum(not r[1] for r in rows),
            detail="kernel basis has exactly l - m columns",
        )
    )
    annihilations = [r[2] for r in rows]
    result.properties.append(
        PropertyResult(
            name="kernel_annihilation",
            trials=instances,
            failures=sum(a > 1e-10 for a in annihilations),
            worst=max(annihilations),
            detail="max |B X_h|, tolerance 1e-10",
        )
    )
    orthos = [r[3] for r in rows]
    result.properties.append(
        PropertyResult(
            name="kernel_orthonormal",
            trials=instances,
            failures=sum(o > 1e-12 for o in orthos),
            worst=max(orthos),
            detail="max |X_h^T X_h - I|, tolerance 1e-12",
        )
    )
    return result


# ---------------------------------------------------------------------------
# constructive decomposition


def enumerate_dims(max_product: int = 64) -> list[tuple[int, ...]]:
    """Nondecreasing extent tuples (each >= 2) with product <= max_product."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, minv, prod):
        if prefix:
            out.append(tuple(prefix))
        v = minv
        while prod * v <= max_product:
            rec(prefix + [v], v, prod * v)
            v += 1

    rec([], 2, 1)
    return out


def run_cp(seed: int, max_product: int = 64) -> SuiteResult:
    """Reconstruction at the cardinality bound over every dims tuple with
    product <= 64, rejection one below the bound, and full flattened rank."""
    result = SuiteResult("cp", seed)
    root = RngState(seed).child("cp")
    dims_list = enumerate_dims(max_product)

    recon_worst = 0.0
    recon_fail = 0
    reject_fail = 0
    rank_fail = 0
    for dims in dims_list:
        sorted_dims = sorted(dims)
        bound = int(np.prod(sorted_dims[:-1])) if len(sorted_dims) > 1 else 1
        gen = root.child("tensor", *dims).generator()
        t = gen.uniform(-1.0, 1.0, size=dims)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", decomp.ConditioningWarning)
            factors = decomp.cp_decompose(t, bound)
        recon = decomp.reconstruct_cp(factors)
        err = float(np.linalg.norm(recon - t) / np.linalg.norm(t))
        recon_worst = max(recon_worst, err)
        recon_fail += err >= 1e-6

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", decomp.ConditioningWarning)
                decomp.cp_decompose(t, bound - 1)
            reject_fail += 1
        except decomp.CardinalityError:
            pass

        # flattened Vandermonde rank; conditions of real-node Vandermonde
        # matrices force the tighter tolerance beyond 16 columns
        lead = sorted_dims[:-1]
        if lead:
            flat = kernels._khatri_rao(decomp.vandermonde_factors(lead, bound), bound)
            tol = decomp.RANK_TOL if bound <= 16 else 1e-13
            rank_fail += decomp.numeric_rank(flat, tol) != bound

    result.properties.append(
        PropertyResult(
            name="reconstruction_at_bound",
            trials=len(dims_list),
            failures=recon_fail,
            worst=recon_worst,
            detail="relative Frobenius reconstruction error with N at the "
            "cardinality bound, tolerance 1e-6",
        )
    )
    result.properties.append(
        PropertyResult(
            name="below_bound_rejected",
            trials=len(dims_list),
            failures=reject_fail,
            detail="N one below the bound raises the cardinality error",
        )
    )
    result.properties.append(
        PropertyResult(
            name="flattened_rank",
            trials=len(dims_list),
            failures=rank_fail,
            detail="flattened factor matrix reaches full column rank",
        )
    )
    return result


# ---------------------------------------------------------------------------
# rank stability


def run_rankstab(seed: int, deficient_trials: int = 100, stable_trials: int = 50) -> SuiteResult:
    result = SuiteResult("rankstab", seed)
    root = RngState(seed).child("rankstab")

    def deficient(i):
        gen = root.child("deficient", i).generator()
        s = int(gen.integers(1, 17))
        n = int(gen.integers(s, 17))
        r = int(gen.integers(0, s))
        y = gen.standard_normal((n, r)) @ gen.standard_normal((r, s)) if r else np.zeros((n, s))
        try:
            probe = decomp.perturb_to_full_rank(y, 1e-3)
        except decomp.ProbeFailureError:
            return False, np.inf
        return probe.achieved_rank == s, float(np.linalg.norm(probe.delta))

    rows = [deficient(i) for i in range(deficient_trials)]
    norms = [r[1] for r in rows]
    result.properties.append(
        PropertyResult(
            name="perturb_reaches_full_rank",
            trials=deficient_trials,
            failures=sum(not ok for ok, _ in rows),
            worst=max(norms),
            detail="identity-block perturbation restores full rank, epsilon 1e-3",
        )
    )
    result.properties.append(
        PropertyResult(
            name="perturbation_inside_ball",
            trials=deficient_trials,
            failures=sum(nrm >= 1e-3 for nrm in norms),
            worst=max(norms),
            detail="||delta||_F stays strictly below epsilon",
        )
    )

    def stable(i):
        gen = root.child("stable", i).generator()
        s = int(gen.integers(1, 17))
        n = int(gen.integers(s, 17))
        y = gen.standard_normal((n, s))
        sigma_min = np.linalg.svd(y, compute_uv=False)[-1]
        eps = 0.49 * sigma_min
        frac = decomp.rank_stability_trial(y, eps, 20, root.child("stable-draw", i))
        return frac

    fracs = [stable(i) for i in range(stable_trials)]
    result.properties.append(
        PropertyResult(
            name="full_rank_survives_small_perturbation",
            trials=stable_trials,
            failures=sum(f != 1.0 for f in fracs),
            worst=min(fracs),
            detail="survival fraction at epsilon < sigma_min/2 must be 1.0",
        )
    )
    return result


# ---------------------------------------------------------------------------
# gradient checks


def _relu_inputs(out: Tensor) -> list[np.ndarray]:
    """Pre-activations of every relu in the graph behind ``out``: each op
    that fuses a relu (``affine`` or ``batchnorm`` with ``relu=True``)
    gives its backward a ``preactivation()`` that rebuilds them."""
    return [
        node._backward.preactivation()
        for node in _reachable(out)
        if hasattr(node._backward, "preactivation")
    ]


def _draw_gradcheck_batch(model, root: RngState, index: int, margin: float):
    """Seeded batch whose loss is differentiable with margin: every relu
    pre-activation stays at least ``margin`` from the kink (finite
    differences are meaningless astride it). Deterministic rejection."""
    for attempt in range(64):
        gen = root.child("batch", index, attempt).generator()
        sets = gen.uniform(-1.0, 1.0, size=(4, 12, model.config.input_width))
        labels = gen.integers(0, model.config.class_count, size=4)
        preacts = _relu_inputs(model.forward(sets, "train"))
        smallest = min((float(np.min(np.abs(a))) for a in preacts), default=np.inf)
        if smallest > margin:
            return sets, labels
    raise RuntimeError("could not draw a batch clear of activation kinks")


def run_gradcheck(seed: int, batches: int = 10, step: float = 1e-5) -> SuiteResult:
    """Analytic gradients of a sub-1k-parameter classifier against central
    finite differences on every trainable parameter."""
    result = SuiteResult("gradcheck", seed)
    root = RngState(seed).child("gradcheck")
    model = build_model(gradcheck_config(), root.child("model"))
    params = model.parameters()
    n_params = sum(p.data.size for p in params.values())

    worst = 0.0
    failures = 0
    for bi in range(batches):
        sets, labels = _draw_gradcheck_batch(model, root, bi, margin=10 * step)

        def loss_value() -> float:
            with no_grad():
                logits = model.forward(sets, "train")
                return float(softmax_cross_entropy(logits, labels).data)

        logits = model.forward(Tensor(sets), "train")
        loss = softmax_cross_entropy(logits, labels)
        grad_map = backward(loss, list(params.values()))

        for name, p in params.items():
            analytic = grad_map[p]
            original = p.data

            def probe(arr, _p=p):
                _p.data = arr
                return loss_value()

            fd = finite_difference_gradient(probe, original.copy(), h=step)
            p.data = original
            err = relative_error(analytic, fd)
            worst = max(worst, err)
            failures += err >= 1e-4
    result.properties.append(
        PropertyResult(
            name="parameter_gradients_match_fd",
            trials=batches * len(params),
            failures=failures,
            worst=worst,
            detail=f"{n_params} scalars, h={step}, guarded relative error "
            "tolerance 1e-4",
        )
    )
    return result


# ---------------------------------------------------------------------------
# collapse and element-wise decomposition


def _linear_block(rng: RngState, final1: str, final2: str) -> AggregationBlock:
    spec = dict(hidden_activation="none", use_batchnorm=False, use_bias=False)
    return AggregationBlock(
        mlp1=Mlp(MlpSpec([6, 8], final_activation=final1, **spec), rng.child(0)),
        mlp2=Mlp(MlpSpec([6, 8], final_activation=final2, **spec), rng.child(1)),
        dropout_ratio=0.0,
    )


@no_grad()
def run_collapse(seed: int, pairs: int = 50, deepsets_sets: int = 100) -> SuiteResult:
    """Bias-free linear aggregation sees only X^T X (orthogonal mixes
    agree); one set-softmax breaks that; element-wise blocks decompose
    into rank-<=1 per-element contributions that sum to the aggregate."""
    result = SuiteResult("collapse", seed)
    root = RngState(seed).child("collapse")
    n_elements = 32

    # same derivation path: identical weights, different activations; one
    # set-softmax is enough to couple rows (two would shrink the output
    # scale quadratically and mask the effect)
    linear_block = _linear_block(root.child("linear"), "none", "none")
    softmax_block = _linear_block(root.child("linear"), "softmax_set", "none")

    agree_diffs = []
    broken_diffs = []
    for i in range(pairs):
        gen = root.child("pair", i).generator()
        x = gen.uniform(-1.0, 1.0, size=(n_elements, 6))
        q, _ = np.linalg.qr(gen.standard_normal((n_elements, n_elements)))
        mixed = q @ x
        base = aggregate(linear_block, Tensor(x[None]), "eval")
        other = aggregate(linear_block, Tensor(mixed[None]), "eval")
        agree_diffs.append(float(np.max(np.abs(base.data - other.data))))
        base_s = aggregate(softmax_block, Tensor(x[None]), "eval")
        other_s = aggregate(softmax_block, Tensor(mixed[None]), "eval")
        broken_diffs.append(float(np.max(np.abs(base_s.data - other_s.data))))

    result.properties.append(
        PropertyResult(
            name="no_activation_collapse",
            trials=pairs,
            failures=sum(d > 1e-10 for d in agree_diffs),
            worst=max(agree_diffs),
            detail="orthogonal row mixes give identical features without "
            "activations, tolerance 1e-10",
        )
    )
    differing = sum(d > 1e-3 for d in broken_diffs)
    result.properties.append(
        PropertyResult(
            name="set_softmax_breaks_collapse",
            trials=pairs,
            failures=int(differing < int(np.ceil(0.9 * pairs))),
            worst=min(broken_diffs),
            detail=f"{differing}/{pairs} mixed pairs differ by more than 1e-3 "
            "(need >= 90%)",
        )
    )

    block = AggregationBlock(
        mlp1=Mlp(MlpSpec([3, 8, 6], final_activation="none"), root.child("elem", 0)),
        mlp2=Mlp(MlpSpec([3, 8, 5], final_activation="none"), root.child("elem", 1)),
        dropout_ratio=0.0,
    )

    sum_diffs = []
    rank_fail = 0
    for i in range(deepsets_sets):
        gen = root.child("deepsets", i).generator()
        x = gen.uniform(-1.0, 1.0, size=(16, 3))
        total = aggregate(block, Tensor(x[None]), "eval").data.reshape(6, 5)
        contributions = np.zeros((6, 5))
        for row in x:
            h = per_element_contribution(block, row)
            rank_fail += decomp.numeric_rank(h) > 1
            contributions += h
        sum_diffs.append(float(np.max(np.abs(contributions - total))))
    result.properties.append(
        PropertyResult(
            name="elementwise_sum_matches_aggregate",
            trials=deepsets_sets,
            failures=sum(d > 1e-10 for d in sum_diffs),
            worst=max(sum_diffs),
            detail="sum of per-element contributions equals the aggregate, "
            "tolerance 1e-10",
        )
    )
    result.properties.append(
        PropertyResult(
            name="contributions_rank_le_1",
            trials=deepsets_sets * 16,
            failures=rank_fail,
            detail="each per-element contribution has numeric rank <= 1",
        )
    )

    softmax_rejects = 0
    try:
        per_element_contribution(softmax_block, np.zeros(6))
    except ValueError:
        softmax_rejects = 1
    result.properties.append(
        PropertyResult(
            name="set_softmax_contribution_rejected",
            trials=1,
            failures=1 - softmax_rejects,
            detail="per-element decomposition refuses set-softmax blocks",
        )
    )
    return result


# ---------------------------------------------------------------------------
# runner


_RUNNERS = {
    "invariance": run_invariance,
    "mdd": run_mdd,
    "cp": run_cp,
    "rankstab": run_rankstab,
    "gradcheck": run_gradcheck,
    "collapse": run_collapse,
}


def run_suites(names, seed: int) -> list[SuiteResult]:
    return [_RUNNERS[name](seed) for name in names]


def report_json(results: list[SuiteResult], seed: int) -> str:
    return json.dumps(
        {
            "seed": seed,
            "passed": all(r.passed for r in results),
            "suites": [r.as_dict() for r in results],
        },
        indent=2,
    )


def format_property_line(suite: str, prop: PropertyResult) -> str:
    worst = "" if prop.worst is None else f" worst={prop.worst:.3e}"
    status = "PASS" if prop.passed else "FAIL"
    return (
        f"[{suite}] {prop.name:42s} trials={prop.trials:<6d} "
        f"failures={prop.failures}{worst}  {status}"
    )
