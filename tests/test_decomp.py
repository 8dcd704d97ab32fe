import warnings

import numpy as np
import pytest

from pinset import decomp, kernels
from pinset.decomp import (
    CardinalityError,
    ConditioningWarning,
    CpFactors,
    NodeError,
    ProbeFailureError,
    RankDeficiencyError,
    cp_decompose,
    default_nodes,
    kernel_basis,
    mdd_solve,
    numeric_rank,
    perturb_to_full_rank,
    rank_stability_trial,
    reconstruct_cp,
    sample_solution,
    vandermonde_factors,
)
from pinset.rng import RngState


def _count_svd_calls(monkeypatch) -> list:
    """Record the shape of each ``np.linalg.svd`` operand from now on."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape) or svd(a, *args, **kw))
    return calls


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((2, 5))) == 0

    def test_outer_product_is_rank_one(self):
        gen = RngState(1).generator()
        for _ in range(10):
            u = gen.uniform(0.1, 1, size=4)
            v = gen.uniform(0.1, 1, size=6)
            assert numeric_rank(np.outer(u, v)) == 1

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), tol=0.0)


class TestKernelBasis:
    def test_hand_null_space(self):
        basis = kernel_basis(np.array([[1.0, 1.0]]))
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        sign = np.sign(basis[0, 0]) or 1.0
        np.testing.assert_allclose(basis * sign, expected, rtol=0, atol=1e-12)

    def test_identity_has_empty_kernel(self):
        assert kernel_basis(np.eye(3)).shape == (3, 0)

    def test_random_full_row_rank(self):
        gen = RngState(2).generator()
        b = gen.standard_normal((3, 5))
        basis = kernel_basis(b)
        assert basis.shape == (5, 2)
        assert np.max(np.abs(b @ basis)) < 1e-10
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), rtol=0, atol=1e-12)

    def test_rank_deficient_reports_detected_rank(self):
        b = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficiencyError) as info:
            kernel_basis(b)
        assert info.value.detected_rank == 1
        assert str(info.value) == "matrix of shape (2, 2) has numeric rank 1, need full row rank 2"

    @pytest.mark.parametrize("shape", [(1, 4), (1, 1), (3, 3), (2, 7), (5, 9)])
    def test_equals_the_trailing_right_singular_vectors_bitwise(self, shape):
        b = RngState(shape[0] * 10 + shape[1]).generator().standard_normal(shape)
        vt = np.linalg.svd(b, full_matrices=True)[2]
        basis = kernel_basis(b)
        assert basis.tobytes() == vt[shape[0]:].T.copy().tobytes()
        assert basis.shape == (shape[1], shape[1] - shape[0]) and basis.flags.c_contiguous


class TestMddSolve:
    def test_identity_system(self):
        a = np.arange(6.0).reshape(2, 3)
        sol = mdd_solve(np.eye(2), a)
        np.testing.assert_allclose(sol.particular, a, rtol=0, atol=1e-14)
        assert sol.kernel_basis.shape == (2, 0)

    def test_min_norm_hand_case(self):
        sol = mdd_solve(np.array([[1.0, 1.0]]), np.array([[2.0]]))
        np.testing.assert_allclose(sol.particular, [[1.0], [1.0]], rtol=0, atol=1e-12)
        assert sol.kernel_basis.shape == (2, 1)

    def test_all_sampled_solutions_solve_the_system(self):
        gen = RngState(3).generator()
        b = gen.standard_normal((3, 5))
        a = gen.standard_normal((3, 4))
        sol = mdd_solve(b, a)
        denom = np.linalg.norm(a) + 1.0
        for _ in range(10):
            lam = gen.standard_normal((2, 4))
            c = sample_solution(sol, lam)
            assert np.linalg.norm(b @ c - a) / denom < 1e-8

    def test_wide_systems_solve(self):
        # more rows than right-hand-side columns (m > n)
        b = np.eye(3)
        a = np.ones((3, 2))
        sol = mdd_solve(b, a)
        np.testing.assert_allclose(sol.particular, a, rtol=0, atol=1e-14)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficiencyError):
            mdd_solve(np.zeros((2, 4)), np.ones((2, 3)))

    def test_residual_property_many_instances(self):
        root = RngState(4)
        for i in range(200):
            gen = root.child(i).generator()
            m = int(gen.integers(1, 13))
            l = int(gen.integers(m, 13))
            n = int(gen.integers(m, 13))
            b = gen.standard_normal((m, l))
            if numeric_rank(b) < m:
                continue
            a = gen.standard_normal((m, n))
            sol = mdd_solve(b, a)
            assert sol.kernel_basis.shape == (l, l - m)
            denom = np.linalg.norm(a) + 1.0
            assert np.linalg.norm(b @ sol.particular - a) / denom < 1e-8


class TestSampleSolution:
    def test_zero_lambda_returns_particular(self):
        sol = mdd_solve(np.array([[1.0, 1.0]]), np.array([[2.0]]))
        np.testing.assert_array_equal(sample_solution(sol, np.zeros((1, 1))), sol.particular)

    def test_distinct_lambdas_distinct_solutions_same_product(self):
        b = np.array([[1.0, 1.0]])
        a = np.array([[2.0]])
        sol = mdd_solve(b, a)
        c1 = sample_solution(sol, np.array([[1.0]]))
        c2 = sample_solution(sol, np.array([[-1.0]]))
        assert np.max(np.abs(c1 - c2)) > 0.1
        np.testing.assert_allclose(b @ c1, a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b @ c2, a, rtol=0, atol=1e-12)

    def test_empty_kernel_ignores_empty_lambda(self):
        sol = mdd_solve(np.eye(2), np.ones((2, 2)))
        out = sample_solution(sol, np.zeros((0, 2)))
        np.testing.assert_array_equal(out, sol.particular)

    def test_shape_mismatch(self):
        sol = mdd_solve(np.array([[1.0, 1.0]]), np.array([[2.0]]))
        with pytest.raises(ValueError, match="shape"):
            sample_solution(sol, np.zeros((2, 1)))


class TestVandermondeFactors:
    def test_explicit_nodes_single_axis(self):
        (factor,) = vandermonde_factors([2], 2, nodes=[1.0, 2.0])
        np.testing.assert_array_equal(factor, [[1.0, 1.0], [1.0, 2.0]])
        assert numeric_rank(factor) == 2

    def test_two_axes_flatten_to_full_rank(self):
        factors = vandermonde_factors([2, 2], 4)
        flat = np.ones((4, 1))
        for f in factors:
            flat = (flat[:, :, None] * f[:, None, :]).reshape(4, -1)
        assert numeric_rank(flat) == 4
        # flattened entry (i, d) must be nodes[i] ** d
        nodes = default_nodes(4)
        np.testing.assert_allclose(flat, nodes[:, None] ** np.arange(4)[None, :], rtol=1e-12)

    def test_too_few_elements_rejected(self):
        with pytest.raises(CardinalityError, match="N >= 3"):
            vandermonde_factors([3], 2)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(NodeError, match="distinct"):
            vandermonde_factors([2], 3, nodes=[1.0, 1.0, 2.0])

    def test_default_nodes_distinct(self):
        for count in (1, 2, 7, 33, 64):
            nodes = default_nodes(count)
            assert np.unique(nodes).size == count


class TestCpDecompose:
    def test_zero_tensor(self):
        factors = cp_decompose(np.zeros((2, 3)), 2)
        np.testing.assert_allclose(reconstruct_cp(factors), np.zeros((2, 3)), rtol=0, atol=1e-12)

    def test_rank_one_matrix_exact(self):
        gen = RngState(5).generator()
        t = np.outer(gen.uniform(0.5, 1, size=2), gen.uniform(0.5, 1, size=3))
        factors = cp_decompose(t, 2)
        err = np.linalg.norm(reconstruct_cp(factors) - t) / np.linalg.norm(t)
        assert err < 1e-8

    def test_random_3d_at_bound(self):
        gen = RngState(6).generator()
        t = gen.uniform(-1, 1, size=(2, 2, 3))
        factors = cp_decompose(t, 4)  # bound: 2*2 with the largest axis last
        recon = reconstruct_cp(factors)
        assert np.linalg.norm(recon - t) / np.linalg.norm(t) < 1e-6

    def test_axis_order_restored(self):
        gen = RngState(7).generator()
        t = gen.uniform(-1, 1, size=(5, 2, 3))  # unsorted extents
        factors = cp_decompose(t, 6)
        assert tuple(f.shape[1] for f in factors.factors) == (5, 2, 3)
        recon = reconstruct_cp(factors)
        assert np.linalg.norm(recon - t) / np.linalg.norm(t) < 1e-6

    def test_below_bound_rejected(self):
        with pytest.raises(CardinalityError, match="N >= 4"):
            cp_decompose(np.ones((4, 4)), 3)

    @pytest.mark.parametrize("shape, count", [((2, 3), 2), ((3, 4, 5), 12), ((2,) * 6, 32)])
    def test_factors_the_system_once(self, monkeypatch, shape, count):
        # the condition number comes from the solve's own SVD of B
        calls = _count_svd_calls(monkeypatch)
        t = RngState(9).generator().uniform(-1, 1, size=shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            factors = cp_decompose(t, count)
        b = kernels._khatri_rao(vandermonde_factors(sorted(shape)[:-1], count), count).T
        assert calls == [b.shape]
        s = np.linalg.svd(b, full_matrices=True)[1]
        assert factors.condition == s[0] / s[-1]

    def test_conditioning_warning_attached(self):
        gen = RngState(8).generator()
        t = gen.uniform(-1, 1, size=(2, 2, 2, 2, 2, 2))
        with pytest.warns(ConditioningWarning):
            factors = cp_decompose(t, 32)
        assert factors.conditioning_warning is not None
        assert factors.condition > 1e10
        assert factors.rel_residual < 1e-6

    def test_vector_decomposition(self):
        # the bound is 1 component; the entry count, 3, is the most allowed
        t = np.array([1.0, -2.0, 3.0])
        factors = cp_decompose(t, 3)
        np.testing.assert_allclose(reconstruct_cp(factors), t, rtol=0, atol=1e-10)
        with pytest.raises(CardinalityError, match="^at most 3 components"):
            cp_decompose(t, 5)


class TestReconstructCp:
    def test_single_component_outer_product(self):
        u = np.array([[1.0, 2.0]])
        v = np.array([[3.0, 4.0, 5.0]])
        out = reconstruct_cp(CpFactors(factors=[u, v]))
        np.testing.assert_array_equal(out, np.outer(u[0], v[0]))

    def test_all_ones_factors_give_constant(self):
        n = 7
        factors = [np.ones((n, 2)), np.ones((n, 3)), np.ones((n, 2))]
        out = reconstruct_cp(CpFactors(factors=factors))
        np.testing.assert_array_equal(out, np.full((2, 3, 2), float(n)))

    def test_inconsistent_shapes_rejected(self):
        # every factor needs one row per component
        with pytest.raises(ValueError, match="factor 1 has 4 rows, expected 3"):
            reconstruct_cp(CpFactors(factors=[np.ones((3, 2)), np.ones((4, 2))]))

    def test_round_trip_matches_sum_product_oracle(self):
        gen = RngState(9).generator()
        factors = [gen.uniform(-1, 1, size=(4, c)) for c in (2, 3, 2)]
        out = reconstruct_cp(CpFactors(factors=factors))
        brute = np.zeros((2, 3, 2))
        for a in range(2):
            for b in range(3):
                for c in range(2):
                    brute[a, b, c] = sum(
                        factors[0][i, a] * factors[1][i, b] * factors[2][i, c]
                        for i in range(4)
                    )
        np.testing.assert_allclose(out, brute, rtol=0, atol=1e-12)


class TestPerturbToFullRank:
    def test_zero_matrix(self):
        delta = perturb_to_full_rank(np.zeros((3, 2)), 0.1)
        assert numeric_rank(delta) == 2
        assert np.linalg.norm(delta) < 0.1

    def test_rank_one_duplicated_column(self):
        gen = RngState(10).generator()
        u = gen.uniform(0.5, 1.0, size=4)
        y = np.column_stack([u, 2 * u])
        delta = perturb_to_full_rank(y, 1e-3)
        assert numeric_rank(y + delta) == 2

    def test_full_rank_input_gets_zero_delta(self):
        gen = RngState(11).generator()
        y = gen.standard_normal((5, 3))
        delta = perturb_to_full_rank(y, 1e-3)
        np.testing.assert_array_equal(delta, 0.0)
        assert delta.shape == y.shape

    def test_seeded_sweep_always_succeeds(self):
        root = RngState(12)
        for i in range(100):
            gen = root.child(i).generator()
            s = int(gen.integers(1, 17))
            n = int(gen.integers(s, 17))
            r = int(gen.integers(0, s))
            y = gen.standard_normal((n, r)) @ gen.standard_normal((r, s)) if r else np.zeros((n, s))
            delta = perturb_to_full_rank(y, 1e-3)
            assert numeric_rank(y + delta) == s
            assert np.linalg.norm(delta) < 1e-3

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            perturb_to_full_rank(np.zeros((3, 2)), 0.0)


class TestRankStabilityTrial:
    def test_well_separated_identity_block(self):
        y = np.vstack([np.eye(2), np.zeros((2, 2))])
        frac = rank_stability_trial(y, 1e-6, 100, RngState(13))
        assert frac == 1.0

    def test_zero_epsilon_degenerate(self):
        y = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert rank_stability_trial(y, 0.0, 10, RngState(14)) == 1.0

    def test_weyl_bound_guarantee(self):
        root = RngState(15)
        for i in range(50):
            gen = root.child(i).generator()
            s = int(gen.integers(1, 17))
            n = int(gen.integers(s, 17))
            y = gen.standard_normal((n, s))
            sigma_min = np.linalg.svd(y, compute_uv=False)[-1]
            frac = rank_stability_trial(y, 0.49 * sigma_min, 20, root.child("d", i))
            assert frac == 1.0

    def test_rank_deficient_input_rejected(self):
        with pytest.raises(RankDeficiencyError, match="detected rank 0 < 2$") as info:
            rank_stability_trial(np.zeros((3, 2)), 1e-3, 5, RngState(16))
        assert info.value.detected_rank == 0
        y = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        y[0, 0] += 1e-12  # below the rank tolerance
        with pytest.raises(RankDeficiencyError) as info:
            rank_stability_trial(y, 0.0, 5, RngState(16))
        assert info.value.detected_rank == 1

    @pytest.mark.parametrize("epsilon, trials, message", [(-1e-3, 5, "epsilon"), (1e-3, 0, "trials")])
    def test_bad_arguments_rejected_before_the_rank_check(self, epsilon, trials, message):
        with pytest.raises(ValueError, match=f"^{message} must be"):
            rank_stability_trial(np.zeros((3, 2)), epsilon, trials, RngState(17))

    @staticmethod
    def _two_svd_fraction(y, epsilon, trials, rng):
        """The fraction as computed with the input's rank from its own
        SVD and the perturbed matrices' ranks from a second one."""
        assert numeric_rank(y) == y.shape[1]
        gen = rng.generator()
        deltas = np.zeros((trials,) + y.shape)
        if epsilon > 0.0:
            for delta in deltas:
                direction = gen.standard_normal(y.shape)
                norm = np.linalg.norm(direction)
                delta[...] = direction * (epsilon * gen.random() / norm) if norm > 0 else direction
        singular = np.linalg.svd(y + deltas, compute_uv=False)
        return sum(decomp._rank(sv, decomp.RANK_TOL) == y.shape[1] for sv in singular) / trials

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4242])
    def test_equals_the_two_svd_fraction(self, seed):
        # sigma_min just above the rank tolerance: the perturbations drop
        # the rank of some draws, not all
        gen = RngState(seed).generator()
        u = np.linalg.qr(gen.standard_normal((6, 3)))[0]
        v = np.linalg.qr(gen.standard_normal((3, 3)))[0]
        y = u @ np.diag([1.0, 0.5, 1.2e-10]) @ v.T
        fractions = []
        for i, epsilon in enumerate((0.0, 5e-11, 1e-10, 2e-10, 1e-9)):
            want = self._two_svd_fraction(y, epsilon, 40, RngState(seed).child(i))
            got = rank_stability_trial(y, epsilon, 40, RngState(seed).child(i))
            assert got == want
            fractions.append(got)
        assert fractions[0] == 1.0 and min(fractions) < 1.0

    def test_one_svd_per_trial(self, monkeypatch):
        calls = _count_svd_calls(monkeypatch)
        rank_stability_trial(np.vstack([np.eye(2), np.zeros((2, 2))]), 1e-3, 7, RngState(18))
        assert calls == [(8, 4, 2)]


def test_probe_failure_is_loud():
    # deficient first rows are still repaired by the identity block
    y = np.zeros((3, 2))
    y[2, 0] = 1.0
    assert numeric_rank(y + perturb_to_full_rank(y, 1e-3)) == 2

    # against a huge sigma_max the scanned scales can never lift the zero
    # singular value past RANK_TOL * sigma_max, so the scan must fail loudly
    with pytest.raises(ProbeFailureError, match="rank tolerance 1.0e-10"):
        perturb_to_full_rank(np.array([[1e20, 0.0], [0.0, 0.0]]), 1e-3)
