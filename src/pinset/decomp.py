"""Numerical decomposition lab.

Executable linear-algebra procedures behind the dot-product aggregation:
the full solution set of ``B C = A`` for full-row-rank ``B``, a
constructive sum-product decomposition of arbitrary tensors built from
Vandermonde-structured factors, and rank-stability probes for nearly
rank-deficient matrices.

All functions take numpy arrays and operate in float64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .rng import RngState

RANK_TOL = 1e-10

# Default Vandermonde nodes are Chebyshev points inflated by this factor.
# Equispaced or all-positive node sets condition exponentially worse
# (factor ~1e12 at 32 columns), which wrecks the decomposition solve; the
# scale was picked by measuring the achievable float64 residual.
NODE_SCALE = 1.1

# Construction-internal rank checks run at this tighter tolerance: a
# square Vandermonde at 32 columns has condition ~3e11 for *any* real
# nodes, so its smallest singular value legitimately sits below
# RANK_TOL * sigma_max even though the matrix is exactly full rank.
_CONSTRUCTED_RANK_TOL = 1e-13

_CONDITION_WARN_THRESHOLD = 1e10
_REFINE_MAX_STEPS = 30


class RankDeficiencyError(ValueError):
    def __init__(self, message: str, detected_rank: int):
        super().__init__(message)
        self.detected_rank = detected_rank


class CardinalityError(ValueError):
    """A component count the decomposition cannot take: too few set
    elements, or more than the tensor has entries."""


class TensorInputError(ValueError):
    """A tensor the decomposition cannot take: no axis, an empty axis, or
    a non-finite entry."""


class NodeError(ValueError):
    """Invalid Vandermonde node set."""


class ProbeFailureError(RuntimeError):
    """Perturbation scan exhausted without reaching full rank."""


class ConditioningWarning(UserWarning):
    """The decomposition's linear solve is badly conditioned."""


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must have 2 axes, got shape {arr.shape}")
    return arr


@dataclass
class MddSolution:
    """Every solution of ``B C = A``: ``particular + kernel_basis @ lam``."""

    particular: np.ndarray  # (l, n)
    kernel_basis: np.ndarray  # (l, l - m)
    singular_values: np.ndarray  # (m,) B's, descending


@dataclass
class CpFactors:
    """Sum-product factorization of a dense tensor: factor j has one row
    per component and one column per index of axis j."""

    factors: list[np.ndarray]
    condition: float = float("nan")
    conditioning_warning: str | None = None
    rel_residual: float = float("nan")


def _rank(s: np.ndarray, tol: float) -> int:
    """Count singular values ``s`` (descending) above ``tol`` times the largest."""
    return 0 if (s.size == 0 or s[0] == 0.0) else int(np.count_nonzero(s > tol * s[0]))


def numeric_rank(m, tol: float = RANK_TOL) -> int:
    """Count singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return _rank(np.linalg.svd(_as_matrix(m, "m"), compute_uv=False), tol)


def _full_row_rank_svd(b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The SVD ``B = u diag(s) v_rows`` of an (m, l) matrix and an
    orthonormal (l, l-m) basis of its null space; raises unless B's
    numeric rank at ``tol`` is its full row count m."""
    m = b.shape[0]
    u, s, vt = np.linalg.svd(b, full_matrices=True)
    rank = _rank(s, tol)
    if rank < m:
        raise RankDeficiencyError(
            f"matrix of shape {b.shape} has numeric rank {rank}, need full row rank {m}",
            detected_rank=rank,
        )
    return u, s, vt[:m], vt[m:].T.copy()


def kernel_basis(b) -> np.ndarray:
    """Orthonormal basis of the null space of a full-row-rank matrix.

    Returns an (l, l-m) matrix; raises if the detected rank falls short
    of the row count.
    """
    return _full_row_rank_svd(_as_matrix(b, "b"), RANK_TOL)[3]


def _refine_solution(b: np.ndarray, a: np.ndarray, c: np.ndarray, apply_pinv) -> np.ndarray:
    """Iterative refinement with extended-precision residuals.

    Drives ``||B C - A||`` down to the float64 representability floor,
    which matters when B is a large-ish Vandermonde system.
    """
    b_l = b.astype(np.longdouble)
    a_l = a.astype(np.longdouble)
    best = c
    best_norm = np.inf
    for _ in range(_REFINE_MAX_STEPS):
        resid = np.asarray(a_l - b_l @ c.astype(np.longdouble), dtype=np.float64)
        norm = float(np.linalg.norm(resid))
        if norm < best_norm:
            best, best_norm = c, norm
        else:
            break
        if norm == 0.0:
            break
        c = c + apply_pinv(resid)
    return best


def mdd_solve(b, a, rank_tol: float = RANK_TOL) -> MddSolution:
    """Solve ``B C = A`` for full-row-rank ``B`` of shape (m, l) and ``A``
    of shape (m, n), for any n.

    Returns the minimum-Frobenius-norm particular solution together with
    an orthonormal kernel basis and B's singular values; every solution
    is ``particular + kernel_basis @ lam`` for a free (l-m, n) matrix.
    Raises :class:`RankDeficiencyError` when ``B``'s numeric rank at
    ``rank_tol`` falls short of m.
    """
    b_arr = _as_matrix(b, "b")
    a_arr = _as_matrix(a, "a")
    if a_arr.shape[0] != b_arr.shape[0]:
        raise ValueError(
            f"row mismatch: b has shape {b_arr.shape}, a has shape {a_arr.shape}"
        )

    u, s, v_rows, kernel = _full_row_rank_svd(b_arr, rank_tol)

    def apply_pinv(rhs):
        return v_rows.T @ ((u.T @ rhs) / s[:, None])

    particular = _refine_solution(b_arr, a_arr, apply_pinv(a_arr), apply_pinv)
    return MddSolution(particular=particular, kernel_basis=kernel, singular_values=s)


def sample_solution(sol: MddSolution, lam) -> np.ndarray:
    """Materialize ``particular + kernel_basis @ lam``."""
    lam_arr = _as_matrix(lam, "lam")
    want = (sol.kernel_basis.shape[1], sol.particular.shape[1])
    if lam_arr.shape != want:
        raise ValueError(f"lam must have shape {want}, got {lam_arr.shape}")
    return sol.particular + sol.kernel_basis @ lam_arr


def default_nodes(count: int) -> np.ndarray:
    """Scaled Chebyshev points: distinct, symmetric, well conditioned."""
    k = np.arange(count)
    return NODE_SCALE * np.cos(np.pi * (2 * k + 1) / (2 * count))


def vandermonde_factors(dims, count: int, nodes=None) -> list[np.ndarray]:
    """Power-structured factor matrices whose row-wise products flatten to
    a Vandermonde matrix.

    Factor j holds ``nodes[i] ** (a * stride_j)`` where ``stride_j`` is the
    row-major stride of axis j in the dims list, so the induced flattened
    matrix has entry ``nodes[i] ** d`` at flat column d and full column
    rank ``prod(dims)`` whenever the nodes are distinct and
    ``count >= prod(dims)``.
    """
    dims = [int(c) for c in dims]
    if any(c < 1 for c in dims):
        raise ValueError(f"factor extents must be positive, got {dims}")
    total = int(np.prod(dims)) if dims else 1
    if count < total:
        raise CardinalityError(
            f"decomposition requires N >= {total} set elements, got {count}"
        )
    if nodes is None:
        node_arr = default_nodes(count)
    else:
        node_arr = np.asarray(nodes, dtype=np.float64).reshape(-1)
        if node_arr.shape[0] != count:
            raise NodeError(f"expected {count} nodes, got {node_arr.shape[0]}")
        if np.unique(node_arr).size != count:
            raise NodeError("nodes must be distinct")

    factors = []
    stride = total
    for c in dims:
        stride //= c
        exponents = np.arange(c) * stride
        factors.append(node_arr[:, None] ** exponents[None, :])
    return factors


def cp_decompose(t, count: int, nodes=None) -> CpFactors:
    """Decompose a dense tensor into ``count`` sum-product components.

    With the tensor's axes sorted ascending, the leading n-1 factors come
    from :func:`vandermonde_factors`; the last factor solves the induced
    linear system through :func:`mdd_solve`. Requires
    ``prod(sorted_dims[:-1]) <= count <= t.size`` (the cap comes before
    anything is allocated), and raises
    :class:`TensorInputError` for a tensor with no axis, an empty axis or
    a non-finite entry, and for one whose factors or reconstruction error
    overflow float64. A conditioning warning is issued
    (and recorded on the result) when the solve's condition number makes
    the reconstruction delicate.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if t_arr.ndim < 1 or 0 in t_arr.shape:
        raise TensorInputError(f"cp_decompose needs at least one axis and no empty axis, got shape {t_arr.shape}")
    if not np.isfinite(t_arr).all():
        raise TensorInputError("cp_decompose needs finite entries; the tensor holds nan or inf")
    if count > t_arr.size:
        # the construction never needs more than prod(sorted_dims[:-1])
        raise CardinalityError(f"at most {t_arr.size} components (the tensor's entry count) are allowed, got {count}")
    dims = t_arr.shape
    order = sorted(range(len(dims)), key=lambda j: dims[j])
    sorted_dims = [dims[j] for j in order]

    lead_factors = vandermonde_factors(sorted_dims[:-1], count, nodes)
    # the Khatri-Rao product of the sum-product kernel, multiplied left to right
    b = kernels._khatri_rao(lead_factors, count).T.copy()  # (prod(lead dims), count)
    a = np.ascontiguousarray(np.transpose(t_arr, order).reshape(b.shape[0], sorted_dims[-1]))

    sol = mdd_solve(b, a, rank_tol=_CONSTRUCTED_RANK_TOL)
    sorted_factors = lead_factors + [sol.particular]
    # full row rank leaves the smallest singular value positive
    condition = float(sol.singular_values[0] / sol.singular_values[-1])
    warning = None
    if condition > _CONDITION_WARN_THRESHOLD:
        warning = (
            f"linear solve condition {condition:.2e}; reconstruction accuracy "
            f"is limited to roughly {condition * np.finfo(np.float64).eps:.1e}"
        )
        warnings.warn(warning, ConditioningWarning, stacklevel=2)

    factors: list[np.ndarray] = [None] * len(dims)  # type: ignore[list-item]
    for pos, axis in enumerate(order):
        factors[axis] = sorted_factors[pos]

    result = CpFactors(factors=factors, condition=condition, conditioning_warning=warning)
    recon = reconstruct_cp(result)
    # both norms scaled by a power of two, which is exact, that brings the
    # largest entry into [1, 2), so that their squares cannot overflow
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(t_arr))))[1] - 1)
    denom = float(np.linalg.norm(t_arr / scale))
    err = float(np.linalg.norm(recon / scale - t_arr / scale))
    result.rel_residual = err / denom if denom > 0 else err * scale
    # a non-finite factor entry makes its reconstructed entries, and so the
    # error, non-finite too
    if not math.isfinite(result.rel_residual):
        raise TensorInputError(
            "cp_decompose needs a tensor whose factors and reconstruction error are finite in "
            f"float64; with entries up to {np.max(np.abs(t_arr)):.3e} they overflow"
        )
    return result


def reconstruct_cp(f: CpFactors) -> np.ndarray:
    """Evaluate the sum-product form: entry (a_1..a_n) is the sum over
    components of the product of factor entries."""
    return kernels.sum_product_forward(f.factors).reshape([fac.shape[1] for fac in f.factors])


def perturb_to_full_rank(y, epsilon: float) -> np.ndarray:
    """Find a tiny identity-block perturbation ``delta`` such that
    ``y + delta`` has full column rank s, and return it.

    Scans scales ``epsilon / (2 sqrt(s) 2^k)`` for k = 0..40, adding the
    scale times an identity block on the first s rows, until the numeric
    rank reaches s. Already-full-rank inputs get a zero perturbation; an
    exhausted scan raises :class:`ProbeFailureError` rather than returning
    a partial result.
    """
    y_arr = _as_matrix(y, "y")
    n_rows, s = y_arr.shape
    if n_rows < s:
        raise ValueError(f"need at least as many rows as columns, got {y_arr.shape}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    if numeric_rank(y_arr) == s:
        return np.zeros_like(y_arr)

    base = epsilon / (2.0 * np.sqrt(s))
    for k in range(41):
        x0 = base / (2.0**k)
        delta = np.zeros_like(y_arr)
        delta[:s, :] = x0 * np.eye(s)
        if numeric_rank(y_arr + delta) == s:
            return delta
    raise ProbeFailureError(
        f"no scale in [{base / 2.0**40:.3e}, {base:.3e}] restored rank {s} "
        f"for a {y_arr.shape} matrix (rank tolerance {RANK_TOL:.1e})"
    )


def rank_stability_trial(y_full, epsilon: float, trials: int, rng: RngState) -> float:
    """Fraction of random perturbations with ``||delta||_F < epsilon`` that
    leave a full-column-rank matrix at full rank.

    The perturbations are drawn one after another, then the input's and
    every perturbed matrix's rank come from one stacked SVD, judged as
    :func:`numeric_rank` judges it."""
    y_arr = _as_matrix(y_full, "y_full")
    n_rows, s = y_arr.shape
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    gen = rng.generator()
    stack = np.zeros((trials + 1, n_rows, s))  # the input, then the perturbed matrices
    if epsilon > 0.0:
        for delta in stack[1:]:
            direction = gen.standard_normal(y_arr.shape)
            norm = np.linalg.norm(direction)
            delta[...] = direction * (epsilon * gen.random() / norm) if norm > 0 else direction
    stack[1:] += y_arr
    stack[0] = y_arr
    singular = np.linalg.svd(stack, compute_uv=False)
    rank = _rank(singular[0], RANK_TOL)
    if rank < s:
        raise RankDeficiencyError(
            f"rank_stability_trial needs a full-rank input, detected rank {rank} < {s}",
            detected_rank=rank,
        )
    return sum(_rank(sv, RANK_TOL) == s for sv in singular[1:]) / trials
