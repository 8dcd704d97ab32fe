"""The verify suites' shared forwards give every trial the value of its own
one-set (or one-matrix) computation, and still catch what they test."""

import numpy as np
import pytest

from pinset import decomp, verify
from pinset.blocks import aggregate, per_element_contribution
from pinset.models import Model, build_model, pixel_s_config
from pinset.rng import RngState
from pinset.tensor import Tensor, no_grad

SEEDS = (0, 4242)


@no_grad()
def test_logits_trials_match_one_set_forwards():
    root = RngState(0).child("invariance")
    model = build_model(pixel_s_config(), root.child("model"))
    for start in range(0, 5 * verify.LOGITS_GROUP, verify.LOGITS_GROUP):
        group = range(start, start + verify.LOGITS_GROUP)
        features, logits = verify._logits_group(model, root, group)
        assert features.shape[0] == logits.shape[0] == 2 * len(group)
        for j, i in enumerate(group):
            gen = root.child("logits", i).generator()
            x = gen.uniform(-1.0, 1.0, size=(784, 3))
            perm = gen.permutation(784)
            for row, s in zip((2 * j, 2 * j + 1), (x, x[perm])):
                assert np.array_equal(features[row], model.features(s[None], "eval").data[0])
                # the head's GEMM over the group's rows may round other last bits
                ref = model.forward(s[None], "eval").data[0]
                assert np.max(np.abs(logits[row] - ref)) <= 1e-13 * np.max(np.abs(ref))


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
        return float(np.max(np.abs(aggregate(block, Tensor(a[None])).data - aggregate(block, Tensor(b[None])).data)))

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
        total = aggregate(block, Tensor(x[None])).data.reshape(6, 5)
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
