import numpy as np
import pytest

from pinset import decomp
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

    def test_conditioning_warning_attached(self):
        gen = RngState(8).generator()
        t = gen.uniform(-1, 1, size=(2, 2, 2, 2, 2, 2))
        with pytest.warns(ConditioningWarning):
            factors = cp_decompose(t, 32)
        assert factors.conditioning_warning is not None
        assert factors.condition > 1e10
        assert factors.rel_residual < 1e-6

    def test_vector_decomposition(self):
        t = np.array([1.0, -2.0, 3.0])
        factors = cp_decompose(t, 5)
        np.testing.assert_allclose(reconstruct_cp(factors), t, rtol=0, atol=1e-10)


class TestReconstructCp:
    def test_single_component_outer_product(self):
        u = np.array([[1.0, 2.0]])
        v = np.array([[3.0, 4.0, 5.0]])
        out = reconstruct_cp(CpFactors(factors=[u, v], dims=(2, 3), components=1))
        np.testing.assert_array_equal(out, np.outer(u[0], v[0]))

    def test_all_ones_factors_give_constant(self):
        n = 7
        factors = [np.ones((n, 2)), np.ones((n, 3)), np.ones((n, 2))]
        out = reconstruct_cp(CpFactors(factors=factors, dims=(2, 3, 2), components=n))
        np.testing.assert_array_equal(out, np.full((2, 3, 2), float(n)))

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            reconstruct_cp(CpFactors(factors=[np.ones((3, 2))], dims=(4,), components=3))

    def test_round_trip_matches_sum_product_oracle(self):
        gen = RngState(9).generator()
        factors = [gen.uniform(-1, 1, size=(4, c)) for c in (2, 3, 2)]
        out = reconstruct_cp(CpFactors(factors=factors, dims=(2, 3, 2), components=4))
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
        probe = perturb_to_full_rank(np.zeros((3, 2)), 0.1)
        assert probe.achieved_rank == 2
        assert np.linalg.norm(probe.delta) < 0.1

    def test_rank_one_duplicated_column(self):
        gen = RngState(10).generator()
        u = gen.uniform(0.5, 1.0, size=4)
        y = np.column_stack([u, 2 * u])
        probe = perturb_to_full_rank(y, 1e-3)
        assert probe.achieved_rank == 2
        assert numeric_rank(y + probe.delta) == 2

    def test_full_rank_input_gets_zero_delta(self):
        gen = RngState(11).generator()
        y = gen.standard_normal((5, 3))
        probe = perturb_to_full_rank(y, 1e-3)
        np.testing.assert_array_equal(probe.delta, 0.0)
        assert probe.achieved_rank == 3

    def test_seeded_sweep_always_succeeds(self):
        root = RngState(12)
        for i in range(100):
            gen = root.child(i).generator()
            s = int(gen.integers(1, 17))
            n = int(gen.integers(s, 17))
            r = int(gen.integers(0, s))
            y = gen.standard_normal((n, r)) @ gen.standard_normal((r, s)) if r else np.zeros((n, s))
            probe = perturb_to_full_rank(y, 1e-3)
            assert probe.achieved_rank == s
            assert np.linalg.norm(probe.delta) < 1e-3

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
        with pytest.raises(RankDeficiencyError):
            rank_stability_trial(np.zeros((3, 2)), 1e-3, 5, RngState(16))


def test_probe_failure_is_loud():
    # deficient first rows are still repaired by the identity block
    y = np.zeros((3, 2))
    y[2, 0] = 1.0
    probe = perturb_to_full_rank(y, 1e-3)
    assert probe.achieved_rank == 2

    # with a coarse tolerance the scanned scales can never lift the tiny
    # singular value past tol * sigma_max, so the scan must fail loudly
    with pytest.raises(ProbeFailureError):
        perturb_to_full_rank(np.array([[1.0, 0.0], [0.0, 0.0]]), 1e-3, tol=0.5)
