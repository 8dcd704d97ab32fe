"""The order-n sum-product aggregation as BLAS matrix products.

    out[a_1, ..., a_n] = sum_i  prod_j  F_j[i, a_j]

With KR the row-wise Khatri-Rao product, the output matricized at a split k
is ``KR(F_1..F_k)^T KR(F_{k+1}..F_n)``, one GEMM; ``_split`` picks the
narrowest k for both passes. The backward pass is reverse mode through that
same product (the dimension-tree idea for all-mode MTTKRP; Phan, Tichavsky
& Cichocki, IEEE TSP 2013): two GEMMs give the gradients of the two
Khatri-Rao products, ``dKR_L = G KR_R`` and ``dKR_R = G^T KR_L``, and each
side's chain of Khatri-Rao steps is then walked back, every step becoming
two per-row contractions, one for each of its operands.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def active_backend() -> str:
    return "numpy"


def _khatri_rao(factors, rows: int) -> np.ndarray:
    """Row-wise Khatri-Rao product, ``(rows, prod c_j)`` in row-major order,
    multiplied left to right; no factors give a column of ones. ``decomp``
    builds its solve coefficients with it too."""
    # one factor is passed through untouched, so that order 2 is the very
    # product tensor.pair_aggregate computes, bit for bit
    if len(factors) < 2:
        return factors[0] if factors else np.ones((rows, 1))
    return functools.reduce(_outer_columns, [np.ascontiguousarray(f.T) for f in factors]).T


def _outer_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One Khatri-Rao step on transposed ``(width, rows)`` operands; with the
    rows contiguous every multiply runs along them, several times faster than
    broadcasting over a narrow trailing axis."""
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


def _checked(factors) -> list[np.ndarray]:
    arrays = [np.asarray(f, dtype=np.float64) for f in factors]
    for j, f in enumerate(arrays):
        if f.shape[0] != arrays[0].shape[0]:
            raise ValueError(f"factor {j} has {f.shape[0]} rows, expected {arrays[0].shape[0]}")
    return arrays


def _split(widths) -> int:
    """The split k of both passes: the narrowest pair of Khatri-Rao
    products; ties go to the later k, so an empty side is the right one."""
    return min(range(len(widths) + 1), key=lambda k: (math.prod(widths[:k]) + math.prod(widths[k:]), -k))


def sum_product_forward(factors) -> np.ndarray:
    """Flat sum-over-rows of entrywise factor products, row-major order."""
    arrays = _checked(factors)
    k = _split([f.shape[1] for f in arrays])
    rows = arrays[0].shape[0]
    return (_khatri_rao(arrays[:k], rows).T @ _khatri_rao(arrays[k:], rows)).reshape(-1)


def _unwind(cols, chain, d) -> list[np.ndarray]:
    """Gradients of the transposed factors ``cols`` from ``d``, the gradient
    of their Khatri-Rao product, given the chain of partial products that
    built it: each step ``t = t_prev (x) c`` is taken apart, last first."""
    grads = []
    for c, prev in zip(cols[:0:-1], chain[-2::-1]):
        d = d.reshape(prev.shape[0], c.shape[0], -1)
        grads.append(np.einsum("abi,ai->bi", d, prev))
        d = np.einsum("abi,bi->ai", d, c)
    return [d, *grads[::-1]] if cols else []


def sum_product_backward(factors, grad_flat) -> list[np.ndarray]:
    """Gradients of ``sum(grad_flat * forward)`` with respect to each factor."""
    arrays = _checked(factors)
    widths = [f.shape[1] for f in arrays]
    g = np.asarray(grad_flat, dtype=np.float64).reshape(-1)
    if g.size != math.prod(widths):
        raise ValueError(f"grad_flat has {g.size} entries, expected {math.prod(widths)} for widths {tuple(widths)}")
    k = _split(widths)
    cols = [np.ascontiguousarray(f.T) for f in arrays]
    # an empty side's product is a row of ones
    ones = [np.ones((1, arrays[0].shape[0]))]
    left = list(itertools.accumulate(cols[:k], _outer_columns)) or ones
    right = list(itertools.accumulate(cols[k:], _outer_columns)) or ones
    g = g.reshape(left[-1].shape[0], right[-1].shape[0])
    grads = _unwind(cols[:k], left, g @ right[-1]) + _unwind(cols[k:], right, g.T @ left[-1])
    return [np.ascontiguousarray(d.T) for d in grads]
