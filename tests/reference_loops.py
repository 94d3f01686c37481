"""Per-repetition reference loops kept as test oracles.

These are the original BT, TAY, combined and MC draw loops of
``covartest.engine`` and ``covartest.combined``: every repetition derives
its own generator from ``(seed, repetition)`` and redraws the groups (BT)
or the normal vectors (TAY, combined) one at a time.  The package now draws
all repetitions at once from one root stream; the tests compare the laws
of the two (two-sample KS) and, for MC, whose stream did not change, the
exact bytes.  Worker threads are left out: they never changed the output.
"""

from __future__ import annotations

import numpy as np

from covartest.engine import (
    _check_compatible,
    _check_repetitions,
    _check_trace,
    _normalize_seed,
    _resolve,
    _theta_and_pooled,
    _trace_quad,
)
from covartest.estimation import GroupedSample, MomentEstimates, pool_estimates
from covartest.hypotheses import CORRELATION, COVARIANCE, HypothesisSpec
from covartest.linalg import psd_factor, vech_diag_positions

_MC_CHUNK_ELEMENTS = 1 << 22


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
        dim, mats = est.p, est.Sigma
    else:
        dim, mats = est.p_strict, est.Upsilon
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
    ps = est.p_strict
    p = est.p
    K = []
    for i, (n_i, Sig, M) in enumerate(zip(est.n, est.Sigma, est.jacobian)):
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
    p = est.p
    diag = vech_diag_positions(d)
    selector = np.zeros((d, p))
    selector[np.arange(d), diag] = 1.0
    W = []
    for n_i, Sig, M in zip(est.n, est.Sigma, est.jacobian):
        A = np.vstack([selector, M])
        W.append(np.sqrt(N / n_i) * (A @ psd_factor(Sig)))
    out = np.empty((B, W[0].shape[0]))
    for b in range(B):
        rng = _rep_rng(seed, b)
        draw = W[0] @ rng.standard_normal(p)
        draw -= W[1] @ rng.standard_normal(p)
        out[b] = draw
    return out
