"""Symmetric-matrix utilities shared by the estimators and the test engines.

Half-vectorization follows a fixed row-major upper-triangle order,
(1,1), (1,2), ..., (1,d), (2,2), ..., (d,d); the strict variant drops the
diagonal entries and keeps the same scan order.  ``vech`` and
``vech_strict`` return new read-only 1-D float arrays, which share no
memory with the matrix; symmetric matrices are plain float ndarrays.
"""

from __future__ import annotations

import numpy as np


def full_length(d: int) -> int:
    """Length of the half-vectorization including the diagonal, d(d+1)/2."""
    return d * (d + 1) // 2


def strict_length(d: int) -> int:
    """Length of the half-vectorization without the diagonal, d(d-1)/2."""
    return d * (d - 1) // 2


def _check_square_symmetric(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"matrix must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix entries must be finite, got NaN or inf")
    scale = np.max(np.abs(S)) if S.size else 0.0
    if not np.allclose(S, S.T, rtol=1e-9, atol=1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    return S


def vech(S) -> np.ndarray:
    """Row-major upper-triangle vectorization of a symmetric matrix."""
    S = _check_square_symmetric(S)
    v = S[np.triu_indices(S.shape[0])]
    v.setflags(write=False)
    return v


def vech_strict(S) -> np.ndarray:
    """Row-major upper-triangle vectorization without the diagonal."""
    S = _check_square_symmetric(S)
    d = S.shape[0]
    if d < 2:
        raise ValueError("strict vectorization needs d >= 2")
    v = S[np.triu_indices(d, k=1)]
    v.setflags(write=False)
    return v


def vech_pairs(d: int, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index pairs of the half-vector entries, in vector order."""
    return np.triu_indices(d, k=1 if strict else 0)


def vech_diag_positions(d: int) -> np.ndarray:
    """Positions of the diagonal entries inside the full half-vector."""
    rows, cols = np.triu_indices(d)
    return np.flatnonzero(rows == cols)


def _row_blocks(B: int, width: int, elements: int):
    """Consecutive (lo, hi) ranges covering B rows of a width-wide array,
    about ``elements`` entries at a time."""
    step = max(elements // max(width, 1), 1)
    for lo in range(0, B, step):
        yield lo, min(lo + step, B)


def centering_matrix(n: int) -> np.ndarray:
    """The projection I_n - J_n/n removing the mean of an n-vector."""
    if n < 1:
        raise ValueError(f"centering matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)
