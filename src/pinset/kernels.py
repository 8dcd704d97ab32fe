"""The order-n sum-product aggregation as BLAS matrix products.

    out[a_1, ..., a_n] = sum_i  prod_j  F_j[i, a_j]

With KR the row-wise Khatri-Rao product, the output matricized at any split
k is ``KR(F_1..F_k)^T KR(F_{k+1}..F_n)``, one GEMM; the forward pass takes
the narrowest split. The gradient for factor j is an MTTKRP (matricized
tensor times Khatri-Rao product; Kolda & Bader, SIAM Review 2009),
``grad_j[i, a] = sum_{l, r} P_j[i, l] G[l, a, r] S_j[i, r]``, with prefix
``P_j = KR(F_1..F_{j-1})`` and suffix ``S_j = KR(F_{j+1}..F_n)`` built once
per backward pass: the wider meets G in a GEMM, the narrower a per-row sum.
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
    builds its solve coefficients with it too, and the ``cp`` verify suite
    its flattened Vandermonde matrix."""
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


def sum_product_forward(factors) -> np.ndarray:
    """Flat sum-over-rows of entrywise factor products, row-major order."""
    arrays = _checked(factors)
    widths = [f.shape[1] for f in arrays]
    # the narrowest split; ties go to the later k
    k = min(range(len(arrays) + 1), key=lambda k: (math.prod(widths[:k]) + math.prod(widths[k:]), -k))
    rows = arrays[0].shape[0]
    return (_khatri_rao(arrays[:k], rows).T @ _khatri_rao(arrays[k:], rows)).reshape(-1)


def sum_product_backward(factors, grad_flat) -> list[np.ndarray]:
    """Gradients of ``sum(grad_flat * forward)`` with respect to each factor."""
    cols = [np.ascontiguousarray(f.T) for f in _checked(factors)]
    ones = np.ones((1, cols[0].shape[1]))
    prefixes = [ones, *itertools.accumulate(cols[:-1], _outer_columns)]
    suffixes = [*itertools.accumulate(cols[:0:-1], lambda s, f: _outer_columns(f, s))][::-1] + [ones]
    g = np.asarray(grad_flat, dtype=np.float64).reshape(-1)
    grads = []
    for f, p, s in zip(cols, prefixes, suffixes):
        c, rows = f.shape
        if p.shape[0] >= s.shape[0]:
            t = (g.reshape(p.shape[0], -1).T @ p).reshape(c, -1, rows)
            grads.append(np.ascontiguousarray(np.einsum("ari,ri->ia", t, s)))
        else:
            t = (g.reshape(-1, s.shape[0]) @ s).reshape(-1, c, rows)
            grads.append(np.ascontiguousarray(np.einsum("lai,li->ia", t, p)))
    return grads
