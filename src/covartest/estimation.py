"""Moment estimators for grouped multivariate samples.

Observations are stored column-wise: each group is a d x n_i array whose
columns are independent subjects.  ``pool_estimates`` is the one entry:
it centres each group once, forms its covariance matrix V once, and takes
from them the half-vectorized covariance ``vhat`` and correlation
``rhat``, an exact factor F_i of the empirical fourth-moment covariance
``Sigma`` of ``sqrt(n) * vhat`` (F_i F_i^T = Sigma_i, at most
min(n_i, p) columns), and the factor U_i = M_i F_i of the correlation-scale
covariance ``Upsilon``.  M_i is the delta-method Jacobian mapping
covariance coordinates to correlation coordinates; it has three nonzeros
per row, so U_i is formed row by row from three rows of F_i and M_i is
never built.  The engines and the combined test work on these factors
alone: their references take the estimates only, never the raw sample.
The block-diagonal pools of the dense matrices with weights N/n_i are
built from the stored factors on every access.  The half-vectors
``pool_estimates`` returns are read-only 1-D arrays.  The estimates store
the arrays they are given, without a copy, and cache nothing, so every
value read from them reflects the arrays as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import vech, vech_pairs, vech_strict


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


def _jacobian_terms(var: np.ndarray, r: np.ndarray):
    """Nonzeros of the delta-method Jacobian M of the correlation half-vector
    in the covariance half-vector, as three (columns, entries) pairs.

    Row (j, k) of M has 1/sqrt(v_jj v_kk) at (j, k), -r_jk/(2 v_jj) at
    (j, j) and -r_jk/(2 v_kk) at (k, k), and no other nonzero (Neudecker
    and Wesselman 1990).  Each pair holds, for every row in strict order,
    the full half-vector column of one of these entries and its value.
    """
    rows, cols = vech_pairs(len(var))
    off = rows < cols
    j, k = rows[off], cols[off]
    diag = np.flatnonzero(~off)
    return (
        (np.flatnonzero(off), 1.0 / np.sqrt(var[j] * var[k])),
        (diag[j], -r / (2.0 * var[j])),
        (diag[k], -r / (2.0 * var[k])),
    )


@dataclass(frozen=True)
class MomentEstimates:
    """Per-group moment estimates for one grouped sample.

    ``Sigma_factor`` holds exact factors F_i of the fourth-moment
    covariances and ``Upsilon_factor`` the factors M_i F_i of the
    correlation-scale covariances; both correlation fields are None when
    correlations were not estimated.  The block-diagonal pools
    ``Sigma_pooled`` and ``Upsilon_pooled`` are built from the stored
    factors on every access.
    """

    d: int
    n: tuple[int, ...]
    vhat: tuple[np.ndarray, ...]
    Sigma_factor: tuple[np.ndarray, ...]
    rhat: tuple[np.ndarray, ...] | None = None
    Upsilon_factor: tuple[np.ndarray, ...] | None = None

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
        return self.rhat is not None and self.Upsilon_factor is not None

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


def _check_in_range(M: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(M)):
        raise ValueError(f"the data's magnitude is out of floating-point range: its {what} overflows")


def _group_estimates(X: np.ndarray, correlation: bool):
    """(vhat, F, rhat, U) of one group, from one centring of X and one V.

    F is the narrower exact factor of the fourth-moment covariance
    (F @ F.T = Sigma): the recentred outer products over sqrt(n - 1) when
    n <= p, else the eigenvectors of the p x p estimate times the roots of
    their positive eigenvalues.  U = M F is the correlation-scale factor.
    rhat and U are None without ``correlation``.  Data so large that V or
    the p x p estimate overflows raise ValueError.
    """
    d, n = X.shape
    Xc = X - X.mean(axis=1, keepdims=True)
    # a product with its own transpose runs as a symmetric rank-k update,
    # so V (and every F @ F.T downstream) is exactly symmetric
    V = Xc @ Xc.T / (n - 1)
    _check_in_range(V, "covariance")
    vhat = vech(V)
    rows, cols = vech_pairs(d)
    W = Xc[rows] * Xc[cols]
    W -= W.mean(axis=1, keepdims=True)
    if n <= len(rows):
        F = W / np.sqrt(n - 1)
    else:
        G = W @ W.T / (n - 1)
        _check_in_range(G, "fourth-moment covariance")
        w, Q = np.linalg.eigh(G)
        keep = w > 0.0
        F = Q[:, keep] * np.sqrt(w[keep])
    if not correlation:
        return vhat, F, None, None
    if d < 2:
        raise ValueError("correlation vectorization needs d >= 2")
    var = np.diag(V)
    if np.any(var <= 0.0):
        raise ValueError("degenerate component: zero sample variance")
    sd = np.sqrt(var)
    R = np.clip(V / np.outer(sd, sd), -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    rhat = vech_strict(R)
    U = sum(c[:, None] * F[cols] for cols, c in _jacobian_terms(var, rhat))
    return vhat, F, rhat, U


def pool_estimates(sample: GroupedSample, include_correlation: bool | None = None) -> MomentEstimates:
    """All per-group estimates, with the fourth-moment covariances as factors.

    Correlation-scale quantities are included when ``include_correlation``
    is true; the default computes them whenever d >= 2.
    """
    if include_correlation is None:
        include_correlation = sample.d >= 2
    groups = (_group_estimates(X, include_correlation) for X in sample.groups)
    vhat, factors, rhat, upsilon = zip(*groups)
    if not include_correlation:
        rhat = upsilon = None
    return MomentEstimates(
        d=sample.d, n=sample.n, vhat=vhat, Sigma_factor=factors, rhat=rhat,
        Upsilon_factor=upsilon,
    )
