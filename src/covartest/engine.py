"""Quadratic-form test statistic and its three resampling reference schemes.

The statistic is N times the squared residual of the hypothesis contrast,
divided by the trace of the contrasted pooled covariance.  Its null
distribution is approximated by one of

* ``MC``  -- draws from the limiting weighted chi-square mixture, with
  weights read off the contrasted pooled covariance;
* ``BT``  -- a parametric bootstrap that redraws group means and
  covariances from centered normals per group;
* ``TAY`` -- correlation targets only: normal draws on the covariance scale
  pushed through the delta-method linearization.

Every engine draws all B repetitions from one generator rooted at the
seed, with array operations over blocks of rows whose size depends only on
the problem's dimensions, so a rerun with the same seed is byte-identical.
BT draws from its exact law: for Gaussian pseudo-samples the redrawn mean
and covariance are independent, so numerator and denominator are weighted
chi-square sums.  ``threads`` arguments are accepted and have no effect.
"""

from __future__ import annotations

import secrets
import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import GroupedSample, MomentEstimates, pool_estimates
from .hypotheses import CORRELATION, COVARIANCE, HypothesisSpec
from .linalg import psd_factor

_METHODS = ("MC", "BT", "TAY")

# array entries per block of draws: chi-square draws in the weighted kernel,
# and each m-wide temporary in the factor draws of TAY and the combined test;
# the draws for a given seed depend on these sizes
_CHUNK_ELEMENTS = 1 << 22
_FACTOR_CHUNK_ELEMENTS = 1 << 18


def fresh_seed() -> int:
    """A new root seed drawn from OS entropy."""
    return secrets.randbits(32)


def _normalize_seed(seed: int | None) -> int:
    if seed is None:
        return fresh_seed()
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _root_rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=_normalize_seed(seed)))


def _row_blocks(B: int, width: int, elements: int):
    """Consecutive (lo, hi) ranges covering B rows of a width-wide array,
    about ``elements`` entries at a time."""
    step = max(elements // max(width, 1), 1)
    for lo in range(0, B, step):
        yield lo, min(lo + step, B)


def _weighted_chisquare(
    rng: np.random.Generator, B: int, weights: np.ndarray, df=1.0
) -> np.ndarray:
    """B draws of sum_k weights[k] chi2_{df[k]}; ``df`` is a scalar or one
    value per weight."""
    out = np.empty(B)
    for lo, hi in _row_blocks(B, len(weights), _CHUNK_ELEMENTS):
        out[lo:hi] = rng.chisquare(df, size=(hi - lo, len(weights))) @ weights
    return out


def _gram_spectrum(A: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of A @ A.T, taken from the smaller Gram matrix."""
    w = np.linalg.eigvalsh(A.T @ A if A.shape[1] < A.shape[0] else A @ A.T)
    return w[w > 1e-12 * w.max(initial=0.0)]


def _factor(S: np.ndarray) -> np.ndarray:
    """psd_factor(S) without the zero columns of clamped eigenvalues, which
    would feed standard normal coordinates into nothing."""
    L = psd_factor(S)
    return L[:, L.any(axis=0)]


def _check_compatible(spec: HypothesisSpec, est: MomentEstimates) -> None:
    if spec.a != est.a:
        raise ValueError(f"hypothesis is for a={spec.a} groups, estimates have {est.a}")
    if spec.d != est.d:
        raise ValueError(f"hypothesis is for d={spec.d}, estimates have d={est.d}")
    if spec.target == CORRELATION and not est.has_correlation:
        raise ValueError("estimates lack correlation components")


def _theta_and_pooled(spec: HypothesisSpec, est: MomentEstimates):
    if spec.target == COVARIANCE:
        return est.vhat_pooled, est.Sigma_pooled
    return est.rhat_pooled, est.Upsilon_pooled


def _resolve(spec: HypothesisSpec, theta: np.ndarray):
    """Residual C f(theta) - zeta and the linearized contrast C J(theta)."""
    if spec.transform is None:
        return spec.C @ theta - spec.zeta, spec.C
    return (
        spec.C @ spec.transform.map(theta) - spec.zeta,
        spec.C @ spec.transform.jacobian(theta),
    )


def _trace_quad(E: np.ndarray, S: np.ndarray) -> float:
    """trace(E @ S @ E.T) without forming the product."""
    return float(((E @ S) * E).sum())


def _check_trace(tr: float, E: np.ndarray, theta: np.ndarray) -> None:
    # an analytically zero estimator covariance leaves rounding residue of
    # order eps^2 relative to (|E| |theta|)^2, so the cutoff is relative,
    # not exact; genuine traces sit many orders of magnitude above it
    scale = np.abs(E).max() * max(np.abs(theta).max(), np.finfo(float).tiny)
    if not tr > 1e-20 * scale * scale:
        raise ValueError("hypothesis covariance degenerate: zero trace")


def statistic_covariance(spec: HypothesisSpec, est: MomentEstimates) -> np.ndarray:
    """Covariance of the contrasted parameter estimate, E Sigma E^T."""
    _check_compatible(spec, est)
    theta, pooled = _theta_and_pooled(spec, est)
    _, E = _resolve(spec, theta)
    H = E @ pooled @ E.T
    return (H + H.T) / 2.0


def ats(spec: HypothesisSpec, est: MomentEstimates, N: int | None = None) -> float:
    """Observed value of the trace-normalized quadratic-form statistic."""
    _check_compatible(spec, est)
    if N is None:
        N = est.N
    theta, pooled = _theta_and_pooled(spec, est)
    u, E = _resolve(spec, theta)
    denom = _trace_quad(E, pooled)
    _check_trace(denom, E, theta)
    return float(N * (u @ u) / denom)


def mc_reference(
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
    return _weighted_chisquare(_root_rng(seed), B, lam)


def mc_pvalue(
    spec: HypothesisSpec,
    est: MomentEstimates,
    N: int,
    statistic: float,
    B: int,
    seed: int,
) -> float:
    """Share of weighted chi-square draws at or above the observed statistic."""
    del N  # the limit draws do not rescale with the sample size
    ref = mc_reference(spec, est, B, seed)
    return float(np.mean(ref >= statistic))


def bootstrap_reference(
    sample: GroupedSample,
    spec: HypothesisSpec,
    B: int,
    seed: int,
    est: MomentEstimates | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Parametric-bootstrap draws of the statistic under the null.

    A repetition redraws every group from a centered normal with the
    estimated covariance (correlation-scale covariance for correlation
    targets) and recomputes both the contrasted mean and the trace
    denominator.  The redrawn mean and covariance of a normal sample are
    independent, so with K_i = sqrt(N/n_i) E_i L_i the weighted contrasted
    factor of group i the draws come from the statistic's exact law
    sum_k w_k chi2_1 / sum_i sum_j mu_ij chi2_{n_i-1} / (n_i-1), where
    w = eig(sum_i K_i K_i^T) and mu_i = eig(K_i^T K_i).  ``threads`` has
    no effect.
    """
    del threads
    if est is None:
        est = pool_estimates(sample, include_correlation=spec.target == CORRELATION)
    _check_compatible(spec, est)
    _check_repetitions(B)
    theta, _ = _theta_and_pooled(spec, est)
    _, E = _resolve(spec, theta)
    if spec.target == COVARIANCE:
        dim, mats = est.p, est.Sigma
    else:
        dim, mats = est.p_strict, est.Upsilon
    N = est.N
    K = [
        np.sqrt(N / n_i) * (E[:, i * dim:(i + 1) * dim] @ _factor(S))
        for i, (n_i, S) in enumerate(zip(est.n, mats))
    ]
    _check_trace(sum(float((K_i * K_i).sum()) for K_i in K), E, theta)
    w = _gram_spectrum(np.hstack(K))
    mu = [_gram_spectrum(K_i) / (n_i - 1) for n_i, K_i in zip(est.n, K)]
    df = [np.full(len(mu_i), n_i - 1.0) for n_i, mu_i in zip(est.n, mu)]
    rng = _root_rng(seed)
    num = _weighted_chisquare(rng, B, w)
    return num / _weighted_chisquare(rng, B, np.concatenate(mu), np.concatenate(df))


def bootstrap_pvalue(
    sample: GroupedSample,
    spec: HypothesisSpec,
    B: int,
    seed: int,
    est: MomentEstimates | None = None,
    threads: int = 1,
) -> float:
    """Share of bootstrap draws at or above the observed statistic."""
    if est is None:
        est = pool_estimates(sample, include_correlation=spec.target == CORRELATION)
    observed = ats(spec, est)
    ref = bootstrap_reference(sample, spec, B, seed, est=est, threads=threads)
    return float(np.mean(ref >= observed))


def taylor_reference(
    sample: GroupedSample,
    spec: HypothesisSpec,
    B: int,
    seed: int,
    est: MomentEstimates | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Delta-method reference draws for correlation targets.

    Per repetition and group a normal vector on the covariance scale is
    mapped through the estimated Jacobian; the trace denominator stays
    fixed at its observed value.  ``threads`` has no effect.
    """
    del threads
    if spec.target != CORRELATION:
        raise ValueError("Taylor method applies to correlation targets only")
    if est is None:
        est = pool_estimates(sample, include_correlation=True)
    _check_compatible(spec, est)
    _check_repetitions(B)
    theta, pooled = _theta_and_pooled(spec, est)
    _, E = _resolve(spec, theta)
    denom = _trace_quad(E, pooled)
    if not denom > 0.0:
        raise ValueError("hypothesis covariance degenerate: zero trace")
    N = est.N
    ps = est.p_strict
    m = E.shape[0]
    # per group: contrast block times sqrt(N/n_i) M_i L_i, so a block of
    # draws is a sum of standard normal matrices times these factors
    K = [
        E[:, i * ps:(i + 1) * ps] @ (np.sqrt(N / n_i) * (M @ _factor(Sig)))
        for i, (n_i, Sig, M) in enumerate(zip(est.n, est.Sigma, est.jacobian))
    ]
    rng = _root_rng(seed)
    out = np.empty(B)
    for lo, hi in _row_blocks(B, m, _FACTOR_CHUNK_ELEMENTS):
        U = rng.standard_normal((hi - lo, K[0].shape[1])) @ K[0].T
        for K_i in K[1:]:
            U += rng.standard_normal((hi - lo, K_i.shape[1])) @ K_i.T
        out[lo:hi] = np.einsum("ij,ij->i", U, U)
    return out / denom


def taylor_pvalue(
    sample: GroupedSample,
    spec: HypothesisSpec,
    B: int,
    seed: int,
    est: MomentEstimates | None = None,
    threads: int = 1,
) -> float:
    """Share of delta-method draws at or above the observed statistic."""
    if est is None:
        est = pool_estimates(sample, include_correlation=True)
    observed = ats(spec, est)
    ref = taylor_reference(sample, spec, B, seed, est=est, threads=threads)
    return float(np.mean(ref >= observed))


def _check_repetitions(B: int) -> None:
    if B < 1:
        raise ValueError(f"repetitions must be positive, got {B}")
    if B < 500:
        warnings.warn(
            f"only {B} resampling repetitions; p-values are coarse below 500",
            UserWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test run."""

    statistic: float
    p_value: float
    method: str
    repetitions: int
    seed: int
    label: str
    target: str
    n: tuple[int, ...]
    alpha: float
    critical_value: float


def run_test(
    sample: GroupedSample,
    spec: HypothesisSpec,
    method: str = "MC",
    repetitions: int = 1000,
    seed: int | None = None,
    alpha: float = 0.05,
    threads: int = 1,
    est: MomentEstimates | None = None,
) -> TestReport:
    """Full test run: estimate, contrast, resample, and summarize.

    ``threads`` is accepted for compatibility and has no effect.
    """
    del threads
    method = str(method).upper()
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {', '.join(_METHODS)}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if method == "TAY" and spec.target != CORRELATION:
        raise ValueError("Taylor method applies to correlation targets only")
    seed = _normalize_seed(seed)
    if est is None:
        est = pool_estimates(sample, include_correlation=spec.target == CORRELATION)
    observed = ats(spec, est)
    if method == "MC":
        ref = mc_reference(spec, est, repetitions, seed)
    elif method == "BT":
        ref = bootstrap_reference(sample, spec, repetitions, seed, est=est)
    else:
        ref = taylor_reference(sample, spec, repetitions, seed, est=est)
    return TestReport(
        statistic=observed,
        p_value=float(np.mean(ref >= observed)),
        method=method,
        repetitions=repetitions,
        seed=seed,
        label=spec.label,
        target=spec.target,
        n=sample.n,
        alpha=alpha,
        critical_value=float(np.quantile(ref, 1.0 - alpha)),
    )
