"""The verify suites' shared forwards give every trial the value of its own
one-set (or one-matrix) computation, and still catch what they test."""

import numpy as np
import pytest

from pinset import decomp, verify
from pinset.blocks import aggregate, per_element_contribution
from pinset.models import Model
from pinset.rng import RngState
from pinset.tensor import Tensor, no_grad

SEEDS = (0, 4242)


def test_logits_trials_match_one_set_forwards(monkeypatch):
    calls = []
    eval_logits = Model.eval_logits

    def recording(self, sets, block_rows):
        logits = eval_logits(self, sets, block_rows)
        calls.append((self, sets, block_rows, logits.data))
        return logits

    monkeypatch.setattr(Model, "eval_logits", recording)
    assert verify.run_invariance(0).passed
    group = verify.LOGITS_GROUP
    assert len(calls) == 100 // group
    root = RngState(0).child("invariance")
    with no_grad():
        for k, (model, sets, block_rows, logits) in enumerate(calls):
            assert sets.shape == (2 * group, 784, 3) and block_rows == 784
            features = []
            for j in range(group):
                gen = root.child("logits", k * group + j).generator()
                x = gen.uniform(-1.0, 1.0, size=(784, 3))
                perm = gen.permutation(784)
                for row, s in zip((2 * j, 2 * j + 1), (x, x[perm])):
                    assert np.array_equal(sets[row], s)
                    features.append(model.features(s[None], "eval").data[0])
                    # the head's GEMM over the group's rows may round other last bits
                    ref = model.forward(s[None], "eval").data[0]
                    assert np.max(np.abs(logits[row] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(logits, model.head.forward(Tensor(np.stack(features)), "eval").data)


def test_logits_invariance_catches_order_dependent_features(monkeypatch):
    # negative control for the grouped head: features that depend on the
    # order of a set's rows must fail every classifier trial
    exact = Model.features

    def order_dependent(self, sets, mode="eval", gen=None):
        return Tensor(exact(self, sets, mode, gen).data + 1e-9 * np.asarray(sets)[:, 0, :1])

    monkeypatch.setattr(Model, "features", order_dependent)
    props = verify.run_invariance(0).properties
    assert all(p.passed for p in props[:16])
    assert props[16].name == "classifier_logits_invariance"
    assert (props[16].trials, props[16].failures) == (100, 100)


@no_grad()
def _one_set_collapse_trials(seed: int) -> dict:
    """Every collapse trial's value, one set per forward and one matrix
    per rank, as the suite computed them before it shared its forwards."""
    root = RngState(seed).child("collapse")
    linear = verify._linear_block(root.child("linear"), "none", "none")
    softmax = verify._linear_block(root.child("linear"), "softmax_set", "none")

    def gap(block, a, b):
        return float(np.max(np.abs(aggregate(block, Tensor(a), len(a)).data - aggregate(block, Tensor(b), len(b)).data)))

    out = {"agree": [], "broken": [], "sums": [], "ranks": [], "mixes": [], "sets": []}
    for i in range(50):
        gen = root.child("pair", i).generator()
        x = gen.uniform(-1.0, 1.0, size=(32, 6))
        q, _ = np.linalg.qr(gen.standard_normal((32, 32)))
        out["agree"].append(gap(linear, x, q @ x))
        out["broken"].append(gap(softmax, x, q @ x))
        out["mixes"].append((x, q @ x))
    block = verify._elementwise_block(root.child("elem"))
    for i in range(100):
        x = root.child("deepsets", i).generator().uniform(-1.0, 1.0, size=(16, 3))
        total = aggregate(block, Tensor(x), 16).data.reshape(6, 5)
        contributions = per_element_contribution(block, x)
        out["sums"].append(float(np.max(np.abs(contributions.sum(axis=0) - total))))
        out["ranks"] += [decomp.numeric_rank(h) for h in contributions]
        out["sets"].append(x)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@no_grad()
def test_collapse_trials_equal_one_set_references(seed):
    ref = _one_set_collapse_trials(seed)
    root = RngState(seed).child("collapse")
    mixes = np.stack([np.stack(pair) for pair in ref["mixes"]], axis=1)
    agree = verify._pair_gaps(verify._linear_block(root.child("linear"), "none", "none"), mixes)
    broken = verify._pair_gaps(verify._linear_block(root.child("linear"), "softmax_set", "none"), mixes)
    block = verify._elementwise_block(root.child("elem"))
    sums, ranks = verify._elementwise_trials(block, np.stack(ref["sets"]))
    assert (agree, broken, sums, ranks) == (ref["agree"], ref["broken"], ref["sums"], ref["ranks"])

    props = {p.name: p for p in verify.run_collapse(seed).properties}
    assert props["no_activation_collapse"].worst == max(ref["agree"])
    assert props["set_softmax_breaks_collapse"].worst == min(ref["broken"])
    assert props["elementwise_sum_matches_aggregate"].worst == max(ref["sums"])
    rank_prop = props["contributions_rank_le_1"]
    assert (rank_prop.trials, rank_prop.failures) == (1600, sum(r > 1 for r in ref["ranks"]))


def _one_matrix_stability(y, epsilon, trials, rng) -> float:
    """rank_stability_trial with one SVD per perturbed matrix."""
    gen = rng.generator()
    survived = 0
    for _ in range(trials):
        if epsilon == 0.0:
            delta = np.zeros_like(y)
        else:
            direction = gen.standard_normal(y.shape)
            norm = np.linalg.norm(direction)
            delta = direction * (epsilon * gen.random() / norm) if norm > 0 else direction
        survived += decomp.numeric_rank(y + delta) == y.shape[1]
    return survived / trials


@pytest.mark.parametrize("seed", SEEDS)
def test_rankstab_trials_equal_one_matrix_references(seed):
    root = RngState(seed).child("rankstab")
    fracs = []
    for i in range(50):
        gen = root.child("stable", i).generator()
        s = int(gen.integers(1, 17))
        n = int(gen.integers(s, 17))
        y = gen.standard_normal((n, s))
        eps = 0.49 * np.linalg.svd(y, compute_uv=False)[-1]
        frac = decomp.rank_stability_trial(y, eps, 20, root.child("stable-draw", i))
        assert frac == _one_matrix_stability(y, eps, 20, root.child("stable-draw", i))
        fracs.append(frac)
    assert verify.run_rankstab(seed).properties[2].worst == min(fracs)


@pytest.mark.parametrize("epsilon", [0.0, 1e-10, 2e-10, 4e-10])
def test_rank_stability_near_the_tolerance_equals_one_matrix_reference(epsilon):
    # a smallest singular value just above RANK_TOL: perturbations of this
    # size drop some matrices' numeric rank, so the fractions lie in (0, 1)
    y = np.vstack([np.diag([1.0, 1.5e-10]), np.zeros((3, 2))])
    frac = decomp.rank_stability_trial(y, epsilon, 200, RngState(7))
    assert frac == _one_matrix_stability(y, epsilon, 200, RngState(7))
    if epsilon >= 2e-10:
        assert 0.0 < frac < 1.0


@no_grad()
def test_stacked_svd_equals_one_matrix_svds():
    root = RngState(0).child("collapse")
    block = verify._elementwise_block(root.child("elem"))
    rows = root.child("rows").generator().uniform(-1.0, 1.0, size=(1600, 3))
    stacks = [per_element_contribution(block, rows)]  # the collapse shape (1600, 6, 5)
    gen = RngState(1).generator()
    stacks += [gen.standard_normal((20, n, s)) for s in range(1, 17) for n in range(s, 17)]  # rankstab's
    for stack in stacks:
        singular = np.linalg.svd(stack, compute_uv=False)
        assert np.array_equal(singular, np.stack([np.linalg.svd(m, compute_uv=False) for m in stack]))


def _square_systems_get_a_kernel_column(monkeypatch):
    solve = decomp.mdd_solve

    def solve_wrong(b, a):
        sol = solve(b, a)
        if b.shape[0] == b.shape[1]:
            sol.kernel_basis = np.zeros((b.shape[1], 1))
        return sol

    monkeypatch.setattr(decomp, "mdd_solve", solve_wrong)
    monkeypatch.setattr(decomp, "sample_solution", lambda sol, lam: sol.particular)


def _odd_systems_solve_to_nan(monkeypatch):
    solve = decomp.mdd_solve

    def solve_nan(b, a):
        sol = solve(b, a)
        if b.shape[0] % 2:
            sol.particular = np.full_like(sol.particular, np.nan)
        return sol

    monkeypatch.setattr(decomp, "mdd_solve", solve_nan)


def _matrices_and_cubes_reconstruct_badly(monkeypatch):
    decompose = decomp.cp_decompose

    def decompose_badly(t, count, nodes=None):
        factors = decompose(t, count, nodes)
        factors.rel_residual = {2: np.nan, 3: 2e-6}.get(t.ndim, factors.rel_residual)
        return factors

    monkeypatch.setattr(decomp, "cp_decompose", decompose_badly)


def _matrices_accept_one_below_the_bound(monkeypatch):
    decompose = decomp.cp_decompose

    def decompose_below(t, count, nodes=None):
        try:
            return decompose(t, count, nodes)
        except decomp.CardinalityError:
            if t.ndim != 2:
                raise
            return decompose(t, count + 1, nodes)

    monkeypatch.setattr(decomp, "cp_decompose", decompose_below)


def _even_flattenings_lose_a_rank(monkeypatch):
    rank = decomp.numeric_rank
    monkeypatch.setattr(decomp, "numeric_rank", lambda m, tol=decomp.RANK_TOL: rank(m, tol) - (m.shape[0] % 2 == 0))


def _perturbations_overshoot_or_give_up(monkeypatch):
    perturb = decomp.perturb_to_full_rank

    def perturb_far(y, epsilon):
        if y.shape[1] % 3 == 0:
            raise decomp.ProbeFailureError("forced")
        delta = perturb(y, epsilon)
        return delta * (2 * epsilon / np.linalg.norm(delta))

    monkeypatch.setattr(decomp, "perturb_to_full_rank", perturb_far)


def _four_column_matrices_lose_a_quarter(monkeypatch):
    trial = decomp.rank_stability_trial
    monkeypatch.setattr(
        decomp,
        "rank_stability_trial",
        lambda y, eps, trials, rng: trial(y, eps, trials, rng) - 0.25 * (y.shape[1] == 4),
    )


def _every_seventh_contribution_gains_a_rank(monkeypatch):
    contribute = verify.per_element_contribution

    def contribute_rank_two(block, elements):
        out = contribute(block, elements)
        out[::7] += 1e-3 * np.eye(*out.shape[1:])
        return out

    monkeypatch.setattr(verify, "per_element_contribution", contribute_rank_two)


def _set_softmax_contributions_accepted(monkeypatch):
    contribute = verify.per_element_contribution

    def contribute_anyway(block, elements):
        try:
            return contribute(block, elements)
        except ValueError:
            return np.zeros((len(elements), 8, 8))

    monkeypatch.setattr(verify, "per_element_contribution", contribute_anyway)


# (force the failure, suite, {property: (trials, failures, worst)}); the
# figures are those of the suites before they shared one pass rule
FORCED_FAILURES = {
    "kernel_dimension": (
        _square_systems_get_a_kernel_column, "mdd", {"kernel_dimension": (200, 44, None)}
    ),
    "solution_residual": (_odd_systems_solve_to_nan, "mdd", {"solution_residual": (200, 94, "nan")}),
    "reconstruction_at_bound": (
        _matrices_and_cubes_reconstruct_badly, "cp", {"reconstruction_at_bound": (197, 118, "nan")}
    ),
    "below_bound_rejected": (
        _matrices_accept_one_below_the_bound, "cp", {"below_bound_rejected": (197, 80, None)}
    ),
    "flattened_rank": (_even_flattenings_lose_a_rank, "cp", {"flattened_rank": (197, 99, None)}),
    "perturbation": (
        _perturbations_overshoot_or_give_up,
        "rankstab",
        {"perturb_reaches_full_rank": (100, 26, "inf"), "perturbation_inside_ball": (100, 100, "inf")},
    ),
    "full_rank_survives": (
        _four_column_matrices_lose_a_quarter,
        "rankstab",
        {"full_rank_survives_small_perturbation": (50, 4, 0.75)},
    ),
    "contributions_rank_le_1": (
        _every_seventh_contribution_gains_a_rank,
        "collapse",
        {
            "elementwise_sum_matches_aggregate": (100, 100, 0.0030000000000002247),
            "contributions_rank_le_1": (1600, 229, None),
        },
    ),
    "set_softmax_contribution_rejected": (
        _set_softmax_contributions_accepted, "collapse", {"set_softmax_contribution_rejected": (1, 1, None)}
    ),
}


@pytest.mark.parametrize("case", list(FORCED_FAILURES))
def test_forced_failures_are_counted_as_before(case, monkeypatch):
    # negative controls: the report digests cover only runs in which every
    # property passes, so each pass rule is also run on failing trials
    force, suite, expected = FORCED_FAILURES[case]
    force(monkeypatch)
    got = {
        p.name: tuple(p.as_dict()[k] for k in ("trials", "failures", "worst"))
        for p in verify.run_suites([suite], 0)[0].properties
    }
    assert {k: v for k, v in got.items() if v[1]} == expected
