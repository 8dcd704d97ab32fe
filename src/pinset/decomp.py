"""Numerical decomposition lab.

Executable linear-algebra procedures behind the dot-product aggregation:
the full solution set of ``B C = A`` for full-row-rank ``B``, a
constructive sum-product decomposition of arbitrary tensors built from
Vandermonde-structured factors, and rank-stability probes for nearly
rank-deficient matrices.

All functions accept plain numpy arrays or :class:`~pinset.tensor.Tensor`
values and operate in float64.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .rng import RngState
from .tensor import Tensor

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
    """Too few set elements for the requested decomposition."""


class NodeError(ValueError):
    """Invalid Vandermonde node set."""


class ProbeFailureError(RuntimeError):
    """Perturbation scan exhausted without reaching full rank."""


class ConditioningWarning(UserWarning):
    """The decomposition's linear solve is badly conditioned."""


def _as_matrix(x, name: str, ndim: int | None = 2) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    arr = np.asarray(arr, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} axes, got shape {arr.shape}")
    return arr


@dataclass
class MddSolution:
    """Every solution of ``B C = A``: ``particular + kernel_basis @ lam``."""

    particular: np.ndarray
    kernel_basis: np.ndarray
    source_shapes: tuple[int, int, int]  # (m, n, l)


@dataclass
class CpFactors:
    """Rank-``components`` sum-product factorization of a dense tensor."""

    factors: list[np.ndarray]
    dims: tuple[int, ...]
    components: int
    condition: float = float("nan")
    conditioning_warning: str | None = None
    rel_residual: float = float("nan")


@dataclass
class PerturbationProbe:
    target: np.ndarray
    epsilon: float
    delta: np.ndarray
    achieved_rank: int


def _rank(s: np.ndarray, tol: float, need_rows_of: tuple[int, int] | None = None) -> int:
    """Count singular values ``s`` (descending) above ``tol`` times the
    largest. With ``need_rows_of``, the shape of the matrix they came
    from, raise unless that rank is its full row count."""
    rank = 0 if (s.size == 0 or s[0] == 0.0) else int(np.count_nonzero(s > tol * s[0]))
    if need_rows_of is not None and rank < need_rows_of[0]:
        raise RankDeficiencyError(
            f"matrix of shape {need_rows_of} has numeric rank {rank}, "
            f"need full row rank {need_rows_of[0]}",
            detected_rank=rank,
        )
    return rank


def numeric_rank(m, tol: float = RANK_TOL) -> int:
    """Count singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return _rank(np.linalg.svd(_as_matrix(m, "m"), compute_uv=False), tol)


def kernel_basis(b, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space of a full-row-rank matrix.

    Returns an (l, l-m) matrix; raises if the detected rank falls short
    of the row count.
    """
    arr = _as_matrix(b, "b")
    _, s, vt = np.linalg.svd(arr, full_matrices=True)
    _rank(s, tol, arr.shape)
    return vt[arr.shape[0]:].T.copy()


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
    an orthonormal kernel basis; every solution is
    ``particular + kernel_basis @ lam`` for a free (l-m, n) matrix.
    Raises :class:`RankDeficiencyError` when ``B``'s numeric rank at
    ``rank_tol`` falls short of m.
    """
    b_arr = _as_matrix(b, "b")
    a_arr = _as_matrix(a, "a")
    m, l = b_arr.shape
    if a_arr.shape[0] != m:
        raise ValueError(
            f"row mismatch: b has shape {b_arr.shape}, a has shape {a_arr.shape}"
        )
    n = a_arr.shape[1]

    u, s, vt = np.linalg.svd(b_arr, full_matrices=True)
    _rank(s, rank_tol, b_arr.shape)

    def apply_pinv(rhs):
        return vt[:m].T @ ((u.T @ rhs) / s[:, None])

    particular = _refine_solution(b_arr, a_arr, apply_pinv(a_arr), apply_pinv)
    basis = vt[m:].T.copy()
    return MddSolution(particular=particular, kernel_basis=basis, source_shapes=(m, n, l))


def sample_solution(sol: MddSolution, lam) -> np.ndarray:
    """Materialize ``particular + kernel_basis @ lam``."""
    lam_arr = _as_matrix(lam, "lam")
    m, n, l = sol.source_shapes
    want = (l - m, n)
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
    ``count >= prod(sorted_dims[:-1])``. A conditioning warning is issued
    (and recorded on the result) when the solve's condition number makes
    the reconstruction delicate.
    """
    t_arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
    t_arr = np.asarray(t_arr, dtype=np.float64)
    if t_arr.ndim < 1:
        raise ValueError("cp_decompose needs a tensor with at least one axis")
    dims = t_arr.shape
    order = sorted(range(len(dims)), key=lambda j: dims[j])
    sorted_dims = [dims[j] for j in order]
    lead_dims = sorted_dims[:-1]
    bound = int(np.prod(lead_dims)) if lead_dims else 1
    if count < bound:
        raise CardinalityError(
            f"decomposition requires N >= {bound} set elements, got {count}"
        )

    lead_factors = vandermonde_factors(lead_dims, count, nodes)
    # the Khatri-Rao product of the sum-product kernel, multiplied left to right
    flat = kernels._khatri_rao(lead_factors, count)  # (count, bound)
    b = flat.T.copy()
    a = np.ascontiguousarray(np.transpose(t_arr, order).reshape(bound, sorted_dims[-1]))

    s = np.linalg.svd(b, compute_uv=False)
    condition = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    warning = None
    if condition > _CONDITION_WARN_THRESHOLD:
        warning = (
            f"linear solve condition {condition:.2e}; reconstruction accuracy "
            f"is limited to roughly {condition * np.finfo(np.float64).eps:.1e}"
        )
        warnings.warn(warning, ConditioningWarning, stacklevel=2)

    sol = mdd_solve(b, a, rank_tol=_CONSTRUCTED_RANK_TOL)
    sorted_factors = lead_factors + [sol.particular]

    factors: list[np.ndarray] = [None] * len(dims)  # type: ignore[list-item]
    for pos, axis in enumerate(order):
        factors[axis] = sorted_factors[pos]

    result = CpFactors(
        factors=factors,
        dims=tuple(int(d) for d in dims),
        components=int(count),
        condition=condition,
        conditioning_warning=warning,
    )
    recon = reconstruct_cp(result)
    denom = float(np.linalg.norm(t_arr))
    err = float(np.linalg.norm(recon - t_arr))
    result.rel_residual = err / denom if denom > 0 else err
    return result


def reconstruct_cp(f: CpFactors) -> np.ndarray:
    """Evaluate the sum-product form: entry (a_1..a_n) is the sum over
    components of the product of factor entries."""
    if len(f.factors) != len(f.dims):
        raise ValueError(
            f"{len(f.factors)} factors for {len(f.dims)} axes"
        )
    for j, (fac, c) in enumerate(zip(f.factors, f.dims)):
        if fac.shape != (f.components, c):
            raise ValueError(
                f"factor {j} has shape {fac.shape}, expected {(f.components, c)}"
            )
    return kernels.sum_product_forward(f.factors).reshape(f.dims)


def perturb_to_full_rank(y, epsilon: float, tol: float = RANK_TOL) -> PerturbationProbe:
    """Find a tiny identity-block perturbation restoring full column rank.

    Scans scales ``epsilon / (2 sqrt(s) 2^k)`` for k = 0..40, adding the
    scale times an identity block on the first s rows, until the numeric
    rank reaches s. Already-full-rank inputs get a zero perturbation; an
    exhausted scan raises rather than returning a partial result.
    """
    y_arr = _as_matrix(y, "y")
    n_rows, s = y_arr.shape
    if n_rows < s:
        raise ValueError(f"need at least as many rows as columns, got {y_arr.shape}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    if numeric_rank(y_arr, tol) == s:
        return PerturbationProbe(
            target=y_arr, epsilon=float(epsilon), delta=np.zeros_like(y_arr), achieved_rank=s
        )

    base = epsilon / (2.0 * np.sqrt(s))
    for k in range(41):
        x0 = base / (2.0**k)
        delta = np.zeros_like(y_arr)
        delta[:s, :] = x0 * np.eye(s)
        achieved = numeric_rank(y_arr + delta, tol)
        if achieved == s:
            return PerturbationProbe(
                target=y_arr, epsilon=float(epsilon), delta=delta, achieved_rank=achieved
            )
    raise ProbeFailureError(
        f"no scale in [{base / 2.0**40:.3e}, {base:.3e}] restored rank {s} "
        f"for a {y_arr.shape} matrix (rank tolerance {tol:.1e})"
    )


def rank_stability_trial(
    y_full, epsilon: float, trials: int, rng: RngState, tol: float = RANK_TOL
) -> float:
    """Fraction of random perturbations with ``||delta||_F < epsilon`` that
    leave a full-column-rank matrix at full rank."""
    y_arr = _as_matrix(y_full, "y_full")
    n_rows, s = y_arr.shape
    rank = numeric_rank(y_arr, tol)
    if rank < s:
        raise RankDeficiencyError(
            f"rank_stability_trial needs a full-rank input, detected rank {rank} < {s}",
            detected_rank=rank,
        )
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    gen = rng.generator()
    survived = 0
    for _ in range(trials):
        if epsilon == 0.0:
            delta = np.zeros_like(y_arr)
        else:
            direction = gen.standard_normal(y_arr.shape)
            norm = np.linalg.norm(direction)
            delta = direction * (epsilon * gen.random() / norm) if norm > 0 else direction
        if numeric_rank(y_arr + delta, tol) == s:
            survived += 1
    return survived / trials
