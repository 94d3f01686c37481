"""Moment estimators for grouped multivariate samples.

Observations are stored column-wise: each group is a d x n_i array whose
columns are independent subjects.  ``pool_estimates`` is the one entry:
it centres each group once, forms its covariance matrix V once, and takes
from them the half-vectorized covariance ``vhat`` and correlation
``rhat``, an exact factor F_i of the empirical fourth-moment covariance
``Sigma`` of ``sqrt(n) * vhat`` (F_i F_i^T = Sigma_i, at most
min(n_i, p) columns), and the delta-method Jacobian M_i mapping covariance
coordinates to correlation coordinates, so that M_i F_i factors the
correlation-scale covariance ``Upsilon``.  The engines and the combined
test work on these factors alone: their references take the estimates
only, never the raw sample.  The block-diagonal pools of the dense
matrices with weights N/n_i, and the correlation-scale factors, are built
from the stored arrays on every access.  The half-vectors
``pool_estimates`` returns are read-only 1-D arrays.  The estimates store
the arrays they are given, without a copy, and cache nothing, so every
value read from them reflects the arrays as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
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


@dataclass(frozen=True)
class MomentEstimates:
    """Per-group moment estimates for one grouped sample.

    ``Sigma_factor`` holds exact factors of the fourth-moment covariances;
    ``Upsilon_factor`` and the block-diagonal pools ``Sigma_pooled`` and
    ``Upsilon_pooled`` are built from the stored arrays on every access.
    """

    d: int
    n: tuple[int, ...]
    vhat: tuple[np.ndarray, ...]
    Sigma_factor: tuple[np.ndarray, ...]
    rhat: tuple[np.ndarray, ...] | None = None
    jacobian: tuple[np.ndarray, ...] | None = None

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

    @property
    def Upsilon_factor(self) -> tuple[np.ndarray, ...] | None:
        """Factors M_i F_i of the correlation-scale covariances."""
        if self.jacobian is None:
            return None
        return tuple(M @ F for M, F in zip(self.jacobian, self.Sigma_factor))

    @property
    def Sigma_pooled(self) -> np.ndarray:
        return self._pooled(self.Sigma_factor)

    @property
    def Upsilon_pooled(self) -> np.ndarray | None:
        factors = self.Upsilon_factor
        return None if factors is None else self._pooled(factors)

    def _pooled(self, factors) -> np.ndarray:
        # block i is (N/n_i) F_i F_i^T; every group's factor has p rows
        p = factors[0].shape[0]
        out = np.zeros((self.a * p, self.a * p))
        for i, (n_i, F) in enumerate(zip(self.n, factors)):
            out[i * p:(i + 1) * p, i * p:(i + 1) * p] = (self.N / n_i) * (F @ F.T)
        return out


def _group_estimates(X: np.ndarray, correlation: bool):
    """(vhat, F, rhat, M) of one group, from one centring of X and one V.

    F is the narrower exact factor of the fourth-moment covariance
    (F @ F.T = Sigma): the recentred outer products over sqrt(n - 1) when
    n <= p, else the eigenvectors of the p x p estimate times the roots of
    their positive eigenvalues.  rhat and M are None without ``correlation``.
    """
    d, n = X.shape
    Xc = X - X.mean(axis=1, keepdims=True)
    # a product with its own transpose runs as a symmetric rank-k update,
    # so V (and every F @ F.T downstream) is exactly symmetric
    V = Xc @ Xc.T / (n - 1)
    vhat = vech(V)
    rows, cols = vech_pairs(d)
    W = Xc[rows] * Xc[cols]
    W -= W.mean(axis=1, keepdims=True)
    if n <= len(rows):
        F = W / np.sqrt(n - 1)
    else:
        w, Q = np.linalg.eigh(W @ W.T / (n - 1))
        keep = w > 0.0
        F = Q[:, keep] * np.sqrt(w[keep])
    if not correlation:
        return vhat, F, None, None
    if d < 2:
        raise ValueError("correlation vectorization needs d >= 2")
    if np.any(np.diag(V) <= 0.0):
        raise ValueError("degenerate component: zero sample variance")
    sd = np.sqrt(np.diag(V))
    R = np.clip(V / np.outer(sd, sd), -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    return vhat, F, vech_strict(R), correlation_jacobian(vhat)


def pool_estimates(sample: GroupedSample, include_correlation: bool | None = None) -> MomentEstimates:
    """All per-group estimates, with the fourth-moment covariances as factors.

    Correlation-scale quantities are included when ``include_correlation``
    is true; the default computes them whenever d >= 2.
    """
    if include_correlation is None:
        include_correlation = sample.d >= 2
    groups = (_group_estimates(X, include_correlation) for X in sample.groups)
    vhat, factors, rhat, jacobian = zip(*groups)
    if not include_correlation:
        rhat = jacobian = None
    return MomentEstimates(
        d=sample.d, n=sample.n, vhat=vhat, Sigma_factor=factors, rhat=rhat, jacobian=jacobian
    )
