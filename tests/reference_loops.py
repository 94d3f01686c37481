"""Per-repetition reference loops kept as test oracles.

These are the original BT, TAY, combined and MC draw loops of
``covartest.engine`` and ``covartest.combined``: every repetition derives
its own generator from ``(seed, repetition)`` and redraws the groups (BT)
or the normal vectors (TAY, combined) one at a time.  The package now draws
all repetitions at once from one root stream, on exact factors of the
fourth-moment covariances; these loops still read the dense pooled
covariances through their own ``_theta_and_pooled`` and take factors from
``psd_factor``, so they stay independent of that path.  The tests compare
the laws of the two by two-sample KS tests.  Worker threads are left out:
they never changed the output.

The dense helpers below the loops have no caller in the package, so they
live here: ``psd_factor``, ``group_fourth_moment_cov``, the dense
per-group matrices ``dense_sigma`` and ``dense_upsilon``, the band
helpers ``reference_bands`` and ``calibration_rejection_rate`` of the
combined test, and the dense delta-method Jacobian ``correlation_jacobian``
with the ``unvech`` it reads.  The package forms the correlation-scale
factors M_i F_i from the three nonzeros of each row of M_i; the TAY and
combined loops here build the dense M_i from the covariance half-vector
instead.  The band helpers are written from the definition of the lower
quantile and share no code with ``covartest.combined``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from covartest.engine import (
    _check_compatible,
    _check_repetitions,
    _check_trace,
    _normalize_seed,
    _resolve,
)
from covartest.estimation import GroupedSample, MomentEstimates, pool_estimates
from covartest.hypotheses import CORRELATION, COVARIANCE, HypothesisSpec
from covartest.linalg import (
    _check_square_symmetric,
    full_length,
    strict_length,
    vech_diag_positions,
    vech_pairs,
)

_MC_CHUNK_ELEMENTS = 1 << 22


def _theta_and_pooled(spec: HypothesisSpec, est: MomentEstimates):
    if spec.target == COVARIANCE:
        return est.vhat_pooled, est.Sigma_pooled
    return est.rhat_pooled, est.Upsilon_pooled


def _trace_quad(E: np.ndarray, S: np.ndarray) -> float:
    """trace(E @ S @ E.T) without forming the product."""
    return float(((E @ S) * E).sum())


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    # counter-based derivation: the stream of repetition b is a fixed
    # function of (seed, b), independent of scheduling
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _run_reps(B: int, body) -> np.ndarray:
    out = np.empty(B)
    for b in range(B):
        out[b] = body(b)
    return out


def mc_reference_loop(
    spec: HypothesisSpec, est: MomentEstimates, B: int, seed: int
) -> np.ndarray:
    """B draws from the estimated weighted chi-square limit distribution."""
    _check_compatible(spec, est)
    _check_repetitions(B)
    theta, pooled = _theta_and_pooled(spec, est)
    _, E = _resolve(spec, theta)
    H = E @ pooled @ E.T
    H = (H + H.T) / 2.0
    tr = float(np.trace(H))
    _check_trace(tr, E, theta)
    lam = np.linalg.eigvalsh(H) / tr
    rng = np.random.default_rng(np.random.SeedSequence(entropy=_normalize_seed(seed)))
    out = np.empty(B)
    chunk = max(_MC_CHUNK_ELEMENTS // max(len(lam), 1), 1)
    at = 0
    while at < B:
        take = min(chunk, B - at)
        out[at:at + take] = rng.chisquare(1.0, size=(take, len(lam))) @ lam
        at += take
    return out


def _bootstrap_ingredients(spec: HypothesisSpec, est: MomentEstimates):
    theta, _ = _theta_and_pooled(spec, est)
    _, E = _resolve(spec, theta)
    if spec.target == COVARIANCE:
        dim, mats = full_length(est.d), dense_sigma(est)
    else:
        dim, mats = strict_length(est.d), dense_upsilon(est)
    factors = [psd_factor(S) for S in mats]
    blocks = [E[:, i * dim:(i + 1) * dim] for i in range(est.a)]
    return E, dim, factors, blocks


def bootstrap_reference_loop(
    sample: GroupedSample,
    spec: HypothesisSpec,
    B: int,
    seed: int,
    est: MomentEstimates | None = None,
) -> np.ndarray:
    """Parametric-bootstrap draws, one redrawn sample per repetition."""
    if est is None:
        est = pool_estimates(sample, include_correlation=spec.target == CORRELATION)
    _check_compatible(spec, est)
    _check_repetitions(B)
    seed = _normalize_seed(seed)
    _, dim, factors, blocks = _bootstrap_ingredients(spec, est)
    n = est.n
    N = est.N
    m = blocks[0].shape[0]

    def body(b: int) -> float:
        rng = _rep_rng(seed, b)
        num = np.zeros(m)
        denom = 0.0
        for n_i, L, E_i in zip(n, factors, blocks):
            Z = rng.standard_normal((n_i, dim)) @ L.T
            zbar = Z.mean(axis=0)
            Zc = Z - zbar
            S = Zc.T @ Zc / (n_i - 1)
            num += E_i @ zbar
            denom += (N / n_i) * _trace_quad(E_i, S)
        if not denom > 0.0:
            raise ValueError("hypothesis covariance degenerate: zero trace")
        return N * float(num @ num) / denom

    return _run_reps(B, body)


def taylor_reference_loop(
    sample: GroupedSample,
    spec: HypothesisSpec,
    B: int,
    seed: int,
    est: MomentEstimates | None = None,
) -> np.ndarray:
    """Delta-method draws, one normal vector per group and repetition."""
    if spec.target != CORRELATION:
        raise ValueError("Taylor method applies to correlation targets only")
    if est is None:
        est = pool_estimates(sample, include_correlation=True)
    _check_compatible(spec, est)
    _check_repetitions(B)
    seed = _normalize_seed(seed)
    theta, pooled = _theta_and_pooled(spec, est)
    _, E = _resolve(spec, theta)
    denom = _trace_quad(E, pooled)
    if not denom > 0.0:
        raise ValueError("hypothesis covariance degenerate: zero trace")
    N = est.N
    ps = strict_length(est.d)
    p = full_length(est.d)
    K = []
    for i, (n_i, Sig, v) in enumerate(zip(est.n, dense_sigma(est), est.vhat)):
        M = correlation_jacobian(v)
        L = psd_factor(Sig)
        K.append(E[:, i * ps:(i + 1) * ps] @ (np.sqrt(N / n_i) * (M @ L)))

    def body(b: int) -> float:
        rng = _rep_rng(seed, b)
        u = np.zeros(E.shape[0])
        for K_i in K:
            u += K_i @ rng.standard_normal(p)
        return float(u @ u) / denom

    return _run_reps(B, body)


def simulate_reference_loop(est: MomentEstimates, B: int, seed: int) -> np.ndarray:
    """Combined-test draws, one pair of normal vectors per repetition."""
    if est.a != 2:
        raise ValueError(f"the combined test requires exactly two groups, got {est.a}")
    if not est.has_correlation:
        raise ValueError("estimates lack correlation components")
    _check_repetitions(B)
    seed = _normalize_seed(seed)
    N = est.N
    d = est.d
    p = full_length(d)
    diag = vech_diag_positions(d)
    selector = np.zeros((d, p))
    selector[np.arange(d), diag] = 1.0
    W = []
    for n_i, Sig, v in zip(est.n, dense_sigma(est), est.vhat):
        A = np.vstack([selector, correlation_jacobian(v)])
        W.append(np.sqrt(N / n_i) * (A @ psd_factor(Sig)))
    out = np.empty((B, W[0].shape[0]))
    for b in range(B):
        rng = _rep_rng(seed, b)
        draw = W[0] @ rng.standard_normal(p)
        draw -= W[1] @ rng.standard_normal(p)
        out[b] = draw
    return out


# ----------------------------------------------------- dense helpers

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


def group_fourth_moment_cov(X) -> np.ndarray:
    """Empirical covariance of sqrt(n) times the half-vectorized covariance.

    Each centered observation contributes the half-vectorization of its
    outer product, recentered by the group mean of those outer products;
    the estimator is the outer-product average of these contributions with
    divisor n - 1.
    """
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=1, keepdims=True)
    rows, cols = np.triu_indices(X.shape[0])
    W = Xc[rows] * Xc[cols]
    Wc = W - W.mean(axis=1, keepdims=True)
    S = Wc @ Wc.T / (Wc.shape[1] - 1)
    return (S + S.T) / 2.0


def dense_sigma(est: MomentEstimates) -> tuple[np.ndarray, ...]:
    """Dense per-group fourth-moment covariances F_i F_i^T."""
    return tuple(F @ F.T for F in est.Sigma_factor)


def dense_upsilon(est: MomentEstimates) -> tuple[np.ndarray, ...] | None:
    """Dense per-group correlation-scale covariances U_i U_i^T, from the
    stored factors U_i = M_i F_i."""
    if est.Upsilon_factor is None:
        return None
    return tuple(F @ F.T for F in est.Upsilon_factor)


def unvech(v) -> np.ndarray:
    """Rebuild the symmetric matrix from a full half-vector."""
    v = np.asarray(v, dtype=float).ravel()
    d = (math.isqrt(8 * len(v) + 1) - 1) // 2
    if full_length(d) != len(v):
        raise ValueError(f"length {len(v)} is not a triangular number for a full half-vector")
    out = np.zeros((d, d))
    iu = vech_pairs(d)
    out[iu] = v
    out.T[iu] = v
    return out


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


def reference_bands(draws: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise order-statistic band [q_{beta/2}, q_{1-beta/2}].

    q_t is the lower inverse-CDF quantile of the B draws: the sorted draw
    at index floor((B - 1) t), numpy's method="lower", with t taken as an
    exact fraction so that no grid level rounds across an index.
    """
    draws = np.asarray(draws, dtype=float)
    B = draws.shape[0]
    half = Fraction(_beta_to_grid(B, beta), 2 * B)  # beta / 2
    srt = np.sort(draws, axis=0)
    return srt[math.floor((B - 1) * half)], srt[math.floor((B - 1) * (1 - half))]


def _beta_to_grid(B: int, beta: float) -> int:
    k = int(round(beta * B))
    if not 0 <= k <= B - 1 or abs(k - beta * B) > 1e-9:
        raise ValueError(
            f"beta must be a grid value j/B with 0 <= j < B, got {beta} for B={B}"
        )
    return k


def calibration_rejection_rate(draws: np.ndarray, beta: float) -> float:
    """Share of draws with any component strictly outside its band."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must be a B x P array")
    lo, hi = reference_bands(draws, beta)
    return int(np.any((draws < lo) | (draws > hi), axis=1).sum()) / draws.shape[0]
