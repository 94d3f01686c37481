"""Symmetric-matrix utilities shared by the estimators and the test engines.

Half-vectorization follows a fixed row-major upper-triangle order,
(1,1), (1,2), ..., (1,d), (2,2), ..., (d,d); the strict variant drops the
diagonal entries and keeps the same scan order.  Symmetric matrices are
plain float ndarrays throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULL = "full"
STRICT = "strict"

_KINDS = (FULL, STRICT)


def full_length(d: int) -> int:
    """Length of the half-vectorization including the diagonal, d(d+1)/2."""
    return d * (d + 1) // 2


def strict_length(d: int) -> int:
    """Length of the half-vectorization without the diagonal, d(d-1)/2."""
    return d * (d - 1) // 2


def _dim_from_length(length: int, kind: str) -> int:
    if kind == FULL:
        d = (math.isqrt(8 * length + 1) - 1) // 2
        if full_length(d) == length:
            return d
    else:
        d = (math.isqrt(8 * length + 1) + 1) // 2
        # strict vectors need d >= 2; length 0 has no admissible dimension
        if length > 0 and strict_length(d) == length:
            return d
    raise ValueError(
        f"length {length} is not a triangular number for kind {kind!r}"
    )


@dataclass(frozen=True)
class HalfVec:
    """Half-vectorized symmetric matrix.

    ``kind`` is ``"full"`` when the diagonal is included and ``"strict"``
    when it is dropped; ``values`` holds the upper-triangle entries in
    row-major order.
    """

    values: np.ndarray
    d: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown half-vector kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("half-vector values must be one-dimensional")
        expected = full_length(self.d) if self.kind == FULL else strict_length(self.d)
        if len(vals) != expected:
            raise ValueError(
                f"half-vector of kind {self.kind!r} for d={self.d} needs "
                f"{expected} entries, got {len(vals)}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values, kind: str = FULL) -> "HalfVec":
        vals = np.asarray(values, dtype=float).ravel()
        if kind not in _KINDS:
            raise ValueError(f"unknown half-vector kind {kind!r}")
        return cls(vals, _dim_from_length(len(vals), kind), kind)

    def __len__(self) -> int:
        return len(self.values)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


def _check_square_symmetric(S: np.ndarray, what: str = "matrix") -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{what} must be square, got shape {S.shape}")
    scale = np.max(np.abs(S)) if S.size else 0.0
    if not np.allclose(S, S.T, rtol=1e-9, atol=1e-12 * max(scale, 1.0)):
        raise ValueError(f"{what} is not symmetric")
    return S


def vech(S) -> HalfVec:
    """Row-major upper-triangle vectorization of a symmetric matrix."""
    S = _check_square_symmetric(S)
    d = S.shape[0]
    return HalfVec(S[np.triu_indices(d)], d, FULL)


def vech_strict(S) -> HalfVec:
    """Row-major upper-triangle vectorization without the diagonal."""
    S = _check_square_symmetric(S)
    d = S.shape[0]
    if d < 2:
        raise ValueError("strict vectorization needs d >= 2")
    return HalfVec(S[np.triu_indices(d, k=1)], d, STRICT)


def unvech(v, kind: str | None = None) -> np.ndarray:
    """Rebuild the symmetric matrix from a half-vector.

    For strict half-vectors the diagonal is filled with ones (correlation
    convention).  Raw arrays default to the full kind.
    """
    if isinstance(v, HalfVec):
        if kind is not None and kind != v.kind:
            raise ValueError(f"kind {kind!r} conflicts with half-vector kind {v.kind!r}")
        hv = v
    else:
        hv = HalfVec.from_values(v, FULL if kind is None else kind)
    d = hv.d
    out = np.zeros((d, d))
    if hv.kind == FULL:
        iu = np.triu_indices(d)
    else:
        iu = np.triu_indices(d, k=1)
        np.fill_diagonal(out, 1.0)
    out[iu] = hv.values
    out.T[iu] = hv.values
    return out


def vech_pairs(d: int, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index pairs of the half-vector entries, in vector order."""
    return np.triu_indices(d, k=1 if strict else 0)


def vech_diag_positions(d: int) -> np.ndarray:
    """Positions of the diagonal entries inside the full half-vector."""
    rows, cols = np.triu_indices(d)
    return np.flatnonzero(rows == cols)


def vech_offdiag_positions(d: int) -> np.ndarray:
    """Positions of the off-diagonal entries inside the full half-vector."""
    rows, cols = np.triu_indices(d)
    return np.flatnonzero(rows < cols)


def vech_subdiagonal_positions(d: int, offset: int, strict: bool = False) -> np.ndarray:
    """Half-vector positions with column minus row equal to ``offset``."""
    if not 0 <= offset <= d - 1:
        raise ValueError(f"offset must lie in [0, {d - 1}], got {offset}")
    if strict and offset == 0:
        raise ValueError("strict half-vectors have no diagonal entries")
    rows, cols = vech_pairs(d, strict=strict)
    return np.flatnonzero(cols - rows == offset)


def centering_matrix(n: int) -> np.ndarray:
    """The projection I_n - J_n/n removing the mean of an n-vector."""
    if n < 1:
        raise ValueError(f"centering matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def psd_factor(S, clamp_tol: float = 1e-10) -> np.ndarray:
    """Factor L with L @ L.T equal to S for a positive semidefinite S.

    Built from the eigendecomposition so that rank-deficient inputs are
    accepted; eigenvalues below ``clamp_tol`` times the largest one are
    clamped to zero.  An eigenvalue below ``-clamp_tol * ||S||`` means the
    input is materially indefinite and is rejected.
    """
    S = _check_square_symmetric(S)
    w, Q = np.linalg.eigh(S)
    scale = np.max(np.abs(w)) if w.size else 0.0
    if w.size and w[0] < -clamp_tol * scale:
        raise ValueError("matrix not positive semidefinite")
    w = np.where(w < clamp_tol * max(w[-1], 0.0), 0.0, w)
    return Q * np.sqrt(w)


def block_diag(blocks, weights=None) -> np.ndarray:
    """Block-diagonal assembly of square blocks, optionally scaled per block."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    for b in blocks:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"blocks must be square, got shape {b.shape}")
    if weights is None:
        weights = np.ones(len(blocks))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(blocks),):
            raise ValueError(
                f"got {len(blocks)} blocks but {weights.size} weights"
            )
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total))
    at = 0
    for w, b in zip(weights, blocks):
        size = b.shape[0]
        out[at:at + size, at:at + size] = w * b
        at += size
    return out
