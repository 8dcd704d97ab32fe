"""Executable property suites behind ``pinset verify``.

Each suite turns one family of structural claims into seeded numerical
trials: permutation invariance of the aggregation and of full classifiers,
correctness of the linear solution set, the constructive sum-product
decomposition at its cardinality bound, rank stability under small
perturbations, gradient agreement with finite differences along random
directions, and the no-activation collapse with its element-wise
decomposition.

Suites are deterministic given the master seed.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import decomp
from .blocks import (
    ACTIVATION_KINDS,
    AggregationBlock,
    AggregationSpec,
    MlpSpec,
    aggregate,
    per_element_contribution,
)
from .models import build_model, gradcheck_config, pixel_s_config
from .rng import RngState
from .tensor import (
    Tensor,
    backward,
    finite_difference_gradient,
    no_grad,
    relu_inputs,
    softmax_cross_entropy,
)


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
        # strict JSON has no NaN or infinity: such a worst is written as text
        finite = self.worst is None or np.isfinite(self.worst)
        return {**asdict(self), "worst": self.worst if finite else str(self.worst), "passed": self.passed}


@dataclass
class SuiteResult:
    suite: str
    seed: int
    properties: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def as_dict(self) -> dict:
        properties = [p.as_dict() for p in self.properties]
        return {"suite": self.suite, "seed": self.seed, "passed": self.passed, "properties": properties}


def _holds(name: str, oks: list, detail: str, worst: float | None = None) -> PropertyResult:
    """A property with one trial per entry of ``oks``, which fails unless
    its entry is true; ``worst`` is reported as given."""
    return PropertyResult(name, len(oks), sum(not ok for ok in oks), worst, detail)


def _within_tolerance(name: str, values: list[float], tol: float, detail: str) -> PropertyResult:
    """A property whose trial fails unless its value is at most ``tol``;
    the worst trial is the largest value, or NaN if any is NaN."""
    return _holds(name, [v <= tol for v in values], detail, float(np.max(values)))  # NaN fails


def relative_error(a, b) -> float:
    """Guarded relative error: |a-b| scaled by max(|a|, |b|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# invariance


def _invariance_block(act1: str, act2: str, rng: RngState) -> AggregationBlock:
    spec = AggregationSpec(
        MlpSpec([3, 16, 12], final_activation=act1),
        MlpSpec([3, 16, 16], final_activation=act2),
        dropout_ratio=0.0,
    )
    return AggregationBlock(spec, rng)


def _pair_gaps(block: AggregationBlock, sets: np.ndarray) -> list[float]:
    """max |aggregate(a) - aggregate(b)| for each pair of (2, pairs, N, p)
    sets, every a then every b, from one eval forward of all their rows:
    eval mode gives each set's feature from its own rows alone."""
    _, pairs, n, p = sets.shape
    out = aggregate(block, Tensor(sets.reshape(-1, p)), n, "eval").data.reshape(2, pairs, -1)
    return np.max(np.abs(out[0] - out[1]), axis=1).tolist()


# classifier logits trials per ``Model.eval_logits`` call. Memory sets it:
# at 10 or 25 trials the benchmark's peak RSS rose by about 0.15 MB
LOGITS_GROUP = 4


@no_grad()
def run_invariance(seed: int) -> SuiteResult:
    """aggregate(PX) == aggregate(X) for every activation pair, and for
    full classifier logits, within 1e-12.

    Each activation pair's 100 trials run as one eval forward of their 200
    sets (:func:`_pair_gaps`). The classifier's trials run through
    ``Model.eval_logits`` of a ``pixel-s`` model, one set per block, each X
    then its PX, :data:`LOGITS_GROUP` trials per call (bits: see there)."""
    root = RngState(seed).child("invariance")
    pairs_per_config = 100
    n_elements = 40
    properties = []

    for act1, act2 in itertools.product(ACTIVATION_KINDS, repeat=2):
        block = _invariance_block(act1, act2, root.child("params", act1, act2))
        sets = np.empty((2, pairs_per_config, n_elements, 3))
        for i in range(pairs_per_config):
            gen = root.child("pair", act1, act2, i).generator()
            sets[0, i] = gen.uniform(-1.0, 1.0, size=(n_elements, 3))
            sets[1, i] = sets[0, i][gen.permutation(n_elements)]
        properties.append(
            _within_tolerance(
                f"aggregate_invariance[{act1},{act2}]",
                _pair_gaps(block, sets),
                1e-12,
                "max |aggregate(PX) - aggregate(X)|, tolerance 1e-12",
            )
        )

    model = build_model(pixel_s_config(), root.child("model"))
    pixels = 784
    gaps = []
    for start in range(0, pairs_per_config, LOGITS_GROUP):
        trials = range(start, min(start + LOGITS_GROUP, pairs_per_config))
        sets = np.empty((2 * len(trials), pixels, 3))
        for j, i in enumerate(trials):
            gen = root.child("logits", i).generator()
            sets[2 * j] = gen.uniform(-1.0, 1.0, size=(pixels, 3))
            sets[2 * j + 1] = sets[2 * j][gen.permutation(pixels)]
        logits = model.eval_logits(sets, pixels).data
        gaps += np.max(np.abs(logits[0::2] - logits[1::2]), axis=1).tolist()
    properties.append(
        _within_tolerance(
            "classifier_logits_invariance",
            gaps,
            1e-12,
            "end-to-end logits under input permutation, tolerance 1e-12",
        )
    )
    return SuiteResult("invariance", seed, properties)


# ---------------------------------------------------------------------------
# linear solution set


def run_mdd(seed: int) -> SuiteResult:
    """Residuals and kernel structure over random full-row-rank systems."""
    root = RngState(seed).child("mdd")
    instances = 200
    lambdas = 10

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
        denom = np.linalg.norm(a) + 1.0
        worst_resid = np.linalg.norm(b @ sol.particular - a) / denom
        for _ in range(lambdas):
            lam = gen.standard_normal((l - m, n))
            c = decomp.sample_solution(sol, lam)
            worst_resid = np.maximum(worst_resid, np.linalg.norm(b @ c - a) / denom)
        kernel_ok = sol.kernel_basis.shape == (l, l - m)
        annihilation = float(np.max(np.abs(b @ sol.kernel_basis))) if l > m else 0.0
        gram = sol.kernel_basis.T @ sol.kernel_basis
        ortho = float(np.max(np.abs(gram - np.eye(l - m)))) if l > m else 0.0
        return float(worst_resid), kernel_ok, annihilation, ortho

    rows = [trial(i) for i in range(instances)]
    properties = [
        _within_tolerance(
            "solution_residual",
            [r[0] for r in rows],
            1e-8,
            "||B C - A||_F / (||A||_F + 1) over particular and sampled "
            "solutions, tolerance 1e-8",
        ),
        _holds("kernel_dimension", [r[1] for r in rows], "kernel basis has exactly l - m columns"),
        _within_tolerance(
            "kernel_annihilation", [r[2] for r in rows], 1e-10, "max |B X_h|, tolerance 1e-10"
        ),
        _within_tolerance(
            "kernel_orthonormal", [r[3] for r in rows], 1e-12, "max |X_h^T X_h - I|, tolerance 1e-12"
        ),
    ]
    return SuiteResult("mdd", seed, properties)


# ---------------------------------------------------------------------------
# constructive decomposition


CP_MAX_PRODUCT = 64


def enumerate_dims() -> list[tuple[int, ...]]:
    """Nondecreasing extent tuples (each >= 2) with product <= CP_MAX_PRODUCT."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, minv, prod):
        if prefix:
            out.append(tuple(prefix))
        v = minv
        while prod * v <= CP_MAX_PRODUCT:
            rec(prefix + [v], v, prod * v)
            v += 1

    rec([], 2, 1)
    return out


def run_cp(seed: int) -> SuiteResult:
    """Reconstruction at the cardinality bound over every dims tuple with
    product <= 64, rejection one below the bound, and full flattened rank.

    The flattened factor matrix is, transposed, the system that the
    decomposition at the bound has just solved: it has full column rank
    when the condition number from that solve's own SVD is below
    ``1 / tol``, the verdict :func:`decomp.numeric_rank` at ``tol`` gives
    on it for every tuple here."""
    root = RngState(seed).child("cp")
    dims_list = enumerate_dims()

    errors, rejected, full_rank = [], [], []
    for dims in dims_list:
        bound = int(np.prod(sorted(dims)[:-1]))
        gen = root.child("tensor", *dims).generator()
        t = gen.uniform(-1.0, 1.0, size=dims)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", decomp.ConditioningWarning)
            factors = decomp.cp_decompose(t, bound)
            try:
                decomp.cp_decompose(t, bound - 1)
                rejected.append(False)
            except decomp.CardinalityError:
                rejected.append(True)
        errors.append(factors.rel_residual)
        # conditions of real-node Vandermonde matrices force the tighter
        # tolerance beyond 16 columns
        full_rank.append(factors.condition < 1 / (decomp.RANK_TOL if bound <= 16 else decomp._CONSTRUCTED_RANK_TOL))

    properties = [
        _holds(
            "reconstruction_at_bound",
            [err < 1e-6 for err in errors],
            "relative Frobenius reconstruction error with N at the cardinality bound, tolerance 1e-6",
            float(np.max(errors)),
        ),
        _holds("below_bound_rejected", rejected, "N one below the bound raises the cardinality error"),
        _holds("flattened_rank", full_rank, "flattened factor matrix reaches full column rank"),
    ]
    return SuiteResult("cp", seed, properties)


# ---------------------------------------------------------------------------
# rank stability


def run_rankstab(seed: int) -> SuiteResult:
    root = RngState(seed).child("rankstab")
    deficient_trials = 100
    stable_trials = 50

    def deficient(i):
        gen = root.child("deficient", i).generator()
        s = int(gen.integers(1, 17))
        n = int(gen.integers(s, 17))
        r = int(gen.integers(0, s))
        y = gen.standard_normal((n, r)) @ gen.standard_normal((r, s)) if r else np.zeros((n, s))
        try:
            delta = decomp.perturb_to_full_rank(y, 1e-3)
        except decomp.ProbeFailureError:
            return False, np.inf
        return decomp.numeric_rank(y + delta) == s, float(np.linalg.norm(delta))

    def stable(i):
        gen = root.child("stable", i).generator()
        s = int(gen.integers(1, 17))
        n = int(gen.integers(s, 17))
        y = gen.standard_normal((n, s))
        eps = 0.49 * np.linalg.svd(y, compute_uv=False)[-1]  # below sigma_min / 2
        return decomp.rank_stability_trial(y, eps, 20, root.child("stable-draw", i))

    rows = [deficient(i) for i in range(deficient_trials)]
    norms = [r[1] for r in rows]
    fracs = [stable(i) for i in range(stable_trials)]
    largest = float(np.max(norms))
    properties = [
        _holds(
            "perturb_reaches_full_rank",
            [ok for ok, _ in rows],
            "identity-block perturbation restores full rank, epsilon 1e-3",
            largest,
        ),
        _holds(
            "perturbation_inside_ball", [d < 1e-3 for d in norms], "||delta||_F stays strictly below epsilon", largest
        ),
        _holds(
            "full_rank_survives_small_perturbation",
            [f == 1.0 for f in fracs],
            "survival fraction at epsilon < sigma_min/2 must be 1.0",
            min(fracs),
        ),
    ]
    return SuiteResult("rankstab", seed, properties)


# ---------------------------------------------------------------------------
# gradient checks


def _draw_gradcheck_batch(model, root: RngState, index: int, margin: float):
    """Seeded batch for a model with a head whose loss is differentiable
    with margin: every relu pre-activation stays at least ``margin`` from
    the kink (finite differences are meaningless astride it).
    Deterministic rejection. Returns the sets and labels of the accepted
    batch, and its train-mode features and the head's logits on them, both
    on the tape: the ops of ``Model.forward``."""
    for attempt in range(64):
        gen = root.child("batch", index, attempt).generator()
        sets = gen.uniform(-1.0, 1.0, size=(4, 12, model.config.input_width))
        labels = gen.integers(0, model.config.class_count, size=4)
        feature = model.features(sets, "train")
        logits = model.head.forward(feature, "train")
        smallest = min((float(np.min(np.abs(a))) for a in relu_inputs(logits)), default=np.inf)
        if smallest > margin:
            return sets, labels, feature, logits
    raise RuntimeError("could not draw a batch clear of activation kinks")


def _directional_probe(
    model, sets, labels, feature: Tensor, gradients: dict, state: RngState, h: float
) -> list[tuple[float, float]]:
    """Each parameter's analytic gradient ``g`` along a seeded Gaussian
    direction ``v``, against the central difference ``D_v`` of the
    train-mode loss of one batch along ``v``; the parameters in
    ``model.parameters()`` order, ``v`` drawn from ``state.child(name)``.

    ``D_v`` is :func:`finite_difference_gradient` of a one-element ``t``:
    each loss runs under ``no_grad`` with the tensor's ``.data`` bound to
    ``own + t[0] * v``, and the tensor gets its own array back afterwards.
    For a ``head.*`` tensor the loss runs only the head, on ``feature``,
    the batch's train-mode features from :func:`_draw_gradcheck_batch`:
    those are the ops ``Model.forward`` runs after ``Model.features``,
    which do not read the head. Every other loss runs one whole
    ``Model.forward``. The forwards move the running statistics, which no
    train-mode forward reads.

    Returns, per tensor, the guarded relative error of ``<g, v>`` against
    ``D_v``, and ``|<g, v> - D_v|`` as a ratio of the bound ``1e-8 *
    sqrt(|v|) + 1e-6 * sum|g_i v_i|``: a floor far above the difference's
    own error, and a slope that a 1e-3 scale error of a tensor with a real
    gradient exceeds unless ``<g, v>`` cancels."""

    def loss_along(p: Tensor, v: np.ndarray, head_only: bool):
        own = p.data

        @no_grad()
        def loss(t: np.ndarray) -> float:
            try:
                p.data = own + t[0] * v
                logits = model.head.forward(feature, "train") if head_only else model.forward(sets, "train")
                return float(softmax_cross_entropy(logits, labels).data)
            finally:
                p.data = own

        return loss

    rows = []
    for name, p in model.parameters().items():
        v = state.child(name).generator().standard_normal(p.data.shape)
        fd = finite_difference_gradient(loss_along(p, v, name.startswith("head.")), np.zeros(1), h=h)[0]
        gv = gradients[p] * v
        along = float(gv.sum())
        bound = 1e-8 * np.sqrt(v.size) + 1e-6 * float(np.abs(gv).sum())
        rows.append((relative_error(along, fd), float(abs(along - fd) / bound)))
    return rows


def run_gradcheck(seed: int) -> SuiteResult:
    """Analytic gradients of a sub-1k-parameter classifier against central
    finite differences along one seeded random direction per parameter
    tensor and batch (see :func:`_directional_probe`)."""
    root = RngState(seed).child("gradcheck")
    batches = 10
    step = 1e-5
    model = build_model(gradcheck_config(), root.child("model"))
    params = model.parameters()
    n_params = sum(p.data.size for p in params.values())

    rows = []
    for bi in range(batches):
        sets, labels, feature, logits = _draw_gradcheck_batch(model, root, bi, margin=10 * step)
        grad_map = backward(softmax_cross_entropy(logits, labels), list(params.values()))
        rows += _directional_probe(model, sets, labels, feature, grad_map, root.child("direction", bi), step)
    properties = [
        _within_tolerance(
            "parameter_gradients_match_fd",
            [err for err, _ in rows],
            1e-4,
            f"{n_params} scalars in {len(params)} tensors, one Gaussian direction v "
            f"per tensor and batch, h={step}, guarded relative error of <g, v> "
            "against the central difference along v, tolerance 1e-4",
        ),
        _within_tolerance(
            "parameter_gradients_match_fd_scaled",
            [ratio for _, ratio in rows],
            1.0,
            "per tensor and batch, |<g, v> - D_v| <= 1e-8 * sqrt(|v|) + "
            "1e-6 * sum|g_i v_i| (absolute floor 1e-8, relative slope 1e-6); "
            "worst is the largest ratio of the two sides",
        ),
    ]
    return SuiteResult("gradcheck", seed, properties)


# ---------------------------------------------------------------------------
# collapse and element-wise decomposition


def _linear_block(rng: RngState, final1: str, final2: str) -> AggregationBlock:
    linear = dict(use_batchnorm=False, use_bias=False)
    spec = AggregationSpec(
        MlpSpec([6, 8], final_activation=final1, **linear),
        MlpSpec([6, 8], final_activation=final2, **linear),
        dropout_ratio=0.0,
    )
    return AggregationBlock(spec, rng)


def _elementwise_block(rng: RngState) -> AggregationBlock:
    spec = AggregationSpec(
        MlpSpec([3, 8, 6], final_activation="none"),
        MlpSpec([3, 8, 5], final_activation="none"),
        dropout_ratio=0.0,
    )
    return AggregationBlock(spec, rng)


def _elementwise_trials(block: AggregationBlock, sets: np.ndarray) -> tuple[list[float], list[int]]:
    """For (B, N, p) sets: each set's max |sum of its per-element
    contributions - aggregate|, and each contribution's numeric rank. One
    eval aggregate of all the sets, one :func:`per_element_contribution`
    of all their rows and one stacked SVD of the contributions, each
    matrix's rank judged as :func:`decomp.numeric_rank` judges it."""
    b, n, p = sets.shape
    rows = sets.reshape(b * n, p)
    totals = aggregate(block, Tensor(rows), n, "eval").data
    contributions = per_element_contribution(block, rows)
    sums = contributions.reshape(b, n, -1).sum(axis=1)
    diffs = np.max(np.abs(sums - totals), axis=1).tolist()
    ranks = [decomp._rank(s, decomp.RANK_TOL) for s in np.linalg.svd(contributions, compute_uv=False)]
    return diffs, ranks


@no_grad()
def run_collapse(seed: int) -> SuiteResult:
    """Bias-free linear aggregation sees only X^T X (orthogonal mixes
    agree); one set-softmax breaks that; element-wise blocks decompose
    into rank-<=1 per-element contributions that sum to the aggregate.

    Each block runs its 50 X and 50 QX sets as one eval forward
    (:func:`_pair_gaps`), and the element-wise trials run all 100 of
    their sets at once (:func:`_elementwise_trials`)."""
    root = RngState(seed).child("collapse")
    pairs = 50
    deepsets_sets = 100
    n_elements = 32

    # same derivation path: identical weights, different activations; one
    # set-softmax is enough to couple rows (two would shrink the output
    # scale quadratically and mask the effect)
    linear_block = _linear_block(root.child("linear"), "none", "none")
    softmax_block = _linear_block(root.child("linear"), "softmax_set", "none")

    mixes = np.empty((2, pairs, n_elements, 6))
    for i in range(pairs):
        gen = root.child("pair", i).generator()
        x = gen.uniform(-1.0, 1.0, size=(n_elements, 6))
        q, _ = np.linalg.qr(gen.standard_normal((n_elements, n_elements)))
        mixes[0, i], mixes[1, i] = x, q @ x
    agree_diffs = _pair_gaps(linear_block, mixes)
    broken_diffs = _pair_gaps(softmax_block, mixes)
    differing = sum(d > 1e-3 for d in broken_diffs)

    sets = np.stack(
        [root.child("deepsets", i).generator().uniform(-1.0, 1.0, size=(16, 3)) for i in range(deepsets_sets)]
    )
    sum_diffs, ranks = _elementwise_trials(_elementwise_block(root.child("elem")), sets)

    try:
        per_element_contribution(softmax_block, np.zeros((1, 6)))
        softmax_rejected = False
    except ValueError:
        softmax_rejected = True
    properties = [
        _within_tolerance(
            "no_activation_collapse",
            agree_diffs,
            1e-10,
            "orthogonal row mixes give identical features without "
            "activations, tolerance 1e-10",
        ),
        PropertyResult(
            name="set_softmax_breaks_collapse",
            trials=pairs,
            failures=int(differing < int(np.ceil(0.9 * pairs))),
            worst=min(broken_diffs),
            detail=f"{differing}/{pairs} mixed pairs differ by more than 1e-3 "
            "(need >= 90%)",
        ),
        _within_tolerance(
            "elementwise_sum_matches_aggregate",
            sum_diffs,
            1e-10,
            "sum of per-element contributions equals the aggregate, "
            "tolerance 1e-10",
        ),
        _holds(
            "contributions_rank_le_1", [r <= 1 for r in ranks], "each per-element contribution has numeric rank <= 1"
        ),
        _holds(
            "set_softmax_contribution_rejected",
            [softmax_rejected],
            "per-element decomposition refuses set-softmax blocks",
        ),
    ]
    return SuiteResult("collapse", seed, properties)


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


SUITE_NAMES = tuple(_RUNNERS)


def run_suites(names, seed: int) -> list[SuiteResult]:
    return [_RUNNERS[name](seed) for name in names]


def report_json(results: list[SuiteResult], seed: int) -> str:
    report = {"seed": seed, "passed": all(r.passed for r in results), "suites": [r.as_dict() for r in results]}
    return json.dumps(report, indent=2, allow_nan=False)


def format_property_line(suite: str, prop: PropertyResult) -> str:
    worst = "" if prop.worst is None else f" worst={prop.worst:.3e}"
    status = "PASS" if prop.passed else "FAIL"
    return (
        f"[{suite}] {prop.name:42s} trials={prop.trials:<6d} "
        f"failures={prop.failures}{worst}  {status}"
    )
