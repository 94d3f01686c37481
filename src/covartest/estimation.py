"""Moment estimators for grouped multivariate samples.

Observations are stored column-wise: each group is a d x n_i array whose
columns are independent subjects.  The estimators produce, per group, the
half-vectorized covariance ``vhat`` and correlation ``rhat``, an exact
factor F_i of the empirical fourth-moment covariance ``Sigma`` of
``sqrt(n) * vhat`` (F_i F_i^T = Sigma_i, at most min(n_i, p) columns), and
the delta-method Jacobian M_i mapping covariance coordinates to correlation
coordinates, so that M_i F_i factors the correlation-scale covariance
``Upsilon``.  The engines and the combined test work on these factors
alone: their references take the estimates only, never the raw sample.
The block-diagonal pools of the dense matrices with weights N/n_i are
built from the factors on first access only.  Half-vectors are plain 1-D
arrays.  The estimates store every array read-only, copying those a
caller could still write, so a contrast the engines cache on the
estimates cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    _read_only,
    full_length,
    strict_length,
    unvech,
    vech,
    vech_pairs,
    vech_strict,
)


@dataclass(frozen=True)
class GroupedSample:
    """Independent groups of column-wise observations sharing one dimension."""

    groups: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.groups) < 1:
            raise ValueError("a grouped sample needs at least one group")
        cleaned = []
        for i, g in enumerate(self.groups):
            g = np.asarray(g, dtype=float)
            if g.ndim != 2:
                raise ValueError(f"group {i + 1} must be a 2-d array, got ndim={g.ndim}")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"group {i + 1} contains non-finite values")
            cleaned.append(g)
        d = cleaned[0].shape[0]
        for i, g in enumerate(cleaned):
            if g.shape[0] != d:
                raise ValueError(
                    f"group {i + 1} has dimension {g.shape[0]}, expected {d}"
                )
            if g.shape[1] < 2:
                raise ValueError(
                    f"group {i + 1} needs at least 2 observations, got {g.shape[1]}"
                )
        object.__setattr__(self, "groups", tuple(cleaned))

    @property
    def a(self) -> int:
        return len(self.groups)

    @property
    def d(self) -> int:
        return self.groups[0].shape[0]

    @property
    def n(self) -> tuple[int, ...]:
        return tuple(g.shape[1] for g in self.groups)

    @property
    def N(self) -> int:
        return sum(self.n)


def group_cov_vector(X) -> np.ndarray:
    """Half-vectorized empirical covariance (divisor n - 1) of one group."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("covariance needs a d x n array with n >= 2")
    n = X.shape[1]
    Xc = X - X.mean(axis=1, keepdims=True)
    S = Xc @ Xc.T / (n - 1)
    return vech((S + S.T) / 2.0)


def _outer_product_contributions(X) -> np.ndarray:
    """p x n matrix whose k-th column is vech of the k-th centered outer
    product, recentered by the group mean of those outer products."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("fourth-moment covariance needs a d x n array with n >= 2")
    Xc = X - X.mean(axis=1, keepdims=True)
    rows, cols = vech_pairs(X.shape[0])
    W = Xc[rows] * Xc[cols]
    return W - W.mean(axis=1, keepdims=True)


def group_fourth_moment_factor(X) -> np.ndarray:
    """Exact factor F of the fourth-moment covariance, F @ F.T = Sigma.

    The narrower of two exact factors, chosen by the group's shape: with
    n <= p the recentered contributions over sqrt(n - 1) (n columns);
    otherwise the eigenvectors of the p x p estimate scaled by the roots of
    their eigenvalues, dropping those that rounding left at or below zero.
    """
    Wc = _outer_product_contributions(X)
    p, n = Wc.shape
    if n <= p:
        return Wc / np.sqrt(n - 1)
    w, Q = np.linalg.eigh(Wc @ Wc.T / (n - 1))
    keep = w > 0.0
    return Q[:, keep] * np.sqrt(w[keep])


def group_corr_vector(X) -> np.ndarray:
    """Strict half-vectorization of the empirical correlation of one group."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("correlation vectorization needs d >= 2")
    V = unvech(group_cov_vector(X))
    if np.any(np.diag(V) <= 0.0):
        raise ValueError("degenerate component: zero sample variance")
    sd = np.sqrt(np.diag(V))
    R = V / np.outer(sd, sd)
    R = np.clip((R + R.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    return vech_strict(R)


def correlation_jacobian(v) -> np.ndarray:
    """Delta-method Jacobian of the correlation vector in the covariance vector.

    Row (j, k) has entry (v_jj v_kk)^(-1/2) at position (j, k),
    -r_jk / (2 v_jj) at (j, j) and -r_jk / (2 v_kk) at (k, k); all other
    entries vanish.
    """
    V = unvech(v)
    d = V.shape[0]
    if d < 2:
        raise ValueError("correlation vectorization needs d >= 2")
    var = np.diag(V).copy()
    if np.any(var <= 0.0):
        raise ValueError("degenerate component: nonpositive variance")
    rows_j, rows_k = vech_pairs(d, strict=True)
    r = V[rows_j, rows_k] / np.sqrt(var[rows_j] * var[rows_k])
    M = np.zeros((strict_length(d), full_length(d)))
    t = np.arange(len(rows_j))

    def pos(j, k):
        # full half-vector position of (j, k) with j <= k: row j starts
        # after the d + (d - 1) + ... + (d - j + 1) entries of rows 0..j-1
        return j * (2 * d - j + 1) // 2 + k - j

    M[t, pos(rows_j, rows_k)] = 1.0 / np.sqrt(var[rows_j] * var[rows_k])
    M[t, pos(rows_j, rows_j)] = -r / (2.0 * var[rows_j])
    M[t, pos(rows_k, rows_k)] = -r / (2.0 * var[rows_k])
    return M


def _frozen(x) -> np.ndarray:
    """x as a float array that no reference can write: read-only arrays
    owning their data pass through, all others are copied."""
    x = np.asarray(x, dtype=float)
    if x.flags.writeable or not x.flags.owndata:
        x = _read_only(x.copy())
    return x


@dataclass(frozen=True)
class MomentEstimates:
    """Per-group moment estimates for one grouped sample.

    ``Sigma_factor`` holds exact factors of the fourth-moment covariances;
    the block-diagonal pools ``Sigma_pooled`` and ``Upsilon_pooled`` are
    dense matrices built from the factors on first access.
    """

    d: int
    n: tuple[int, ...]
    vhat: tuple[np.ndarray, ...]
    Sigma_factor: tuple[np.ndarray, ...]
    rhat: tuple[np.ndarray, ...] | None = None
    jacobian: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        # the engines cache a contrast on the estimates, so every array is
        # stored read-only
        for name in ("vhat", "Sigma_factor", "rhat", "jacobian"):
            arrays = getattr(self, name)
            if arrays is not None:
                object.__setattr__(self, name, tuple(_frozen(x) for x in arrays))

    @property
    def a(self) -> int:
        return len(self.n)

    @property
    def N(self) -> int:
        return sum(self.n)

    @property
    def vhat_pooled(self) -> np.ndarray:
        return np.concatenate(self.vhat)

    @property
    def rhat_pooled(self) -> np.ndarray:
        if self.rhat is None:
            raise ValueError("correlation estimates were not computed")
        return np.concatenate(self.rhat)

    @property
    def has_correlation(self) -> bool:
        return self.rhat is not None

    @cached_property
    def Upsilon_factor(self) -> tuple[np.ndarray, ...] | None:
        """Factors M_i F_i of the correlation-scale covariances."""
        if self.jacobian is None:
            return None
        return tuple(_read_only(M @ F) for M, F in zip(self.jacobian, self.Sigma_factor))

    @cached_property
    def Sigma_pooled(self) -> np.ndarray:
        return self._pooled(self.Sigma_factor)

    @cached_property
    def Upsilon_pooled(self) -> np.ndarray | None:
        if self.Upsilon_factor is None:
            return None
        return self._pooled(self.Upsilon_factor)

    def _pooled(self, factors) -> np.ndarray:
        # block i is (N/n_i) F_i F_i^T; every group's factor has p rows
        p = factors[0].shape[0]
        out = np.zeros((self.a * p, self.a * p))
        for i, (n_i, F) in enumerate(zip(self.n, factors)):
            out[i * p:(i + 1) * p, i * p:(i + 1) * p] = (self.N / n_i) * (F @ F.T)
        return out


def pool_estimates(sample: GroupedSample, include_correlation: bool | None = None) -> MomentEstimates:
    """All per-group estimates, with the fourth-moment covariances as factors.

    Correlation-scale quantities are included when ``include_correlation``
    is true; the default computes them whenever d >= 2.
    """
    if include_correlation is None:
        include_correlation = sample.d >= 2
    vhat = tuple(group_cov_vector(g) for g in sample.groups)
    factors = tuple(_read_only(group_fourth_moment_factor(g)) for g in sample.groups)
    if not include_correlation:
        return MomentEstimates(d=sample.d, n=sample.n, vhat=vhat, Sigma_factor=factors)
    return MomentEstimates(
        d=sample.d,
        n=sample.n,
        vhat=vhat,
        Sigma_factor=factors,
        rhat=tuple(group_corr_vector(g) for g in sample.groups),
        jacobian=tuple(_read_only(correlation_jacobian(v)) for v in vhat),
    )
