"""Joint two-group test of equal variances and equal correlations.

The statistic stacks the scaled differences of the d group variances and
the d(d-1)/2 correlations.  Reference draws push per-group normal vectors
on the covariance scale through the variance selector and the delta-method
Jacobian; all repetitions come from one generator rooted at the seed, a
block of rows at a time, so a rerun with the same seed is byte-identical
(``threads`` arguments are accepted and have no effect).  A single
miscoverage level beta is calibrated so that the familywise rejection rate
over all components, estimated on the reference draws themselves, stays at
the requested level; the componentwise bands are order-statistic quantiles
of the draws.  Rejection of a block (the variance part or the correlation
part) is inverted into a p-value on a grid, and the global p-value for
equality of the two covariance matrices is the smaller of the two block
p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _FACTOR_CHUNK_ELEMENTS,
    _check_repetitions,
    _factor,
    _normalize_seed,
    _root_rng,
    _row_blocks,
)
from .estimation import GroupedSample, MomentEstimates, pool_estimates
from .linalg import vech_diag_positions


def combined_statistic(sample: GroupedSample, est: MomentEstimates | None = None) -> np.ndarray:
    """sqrt(N) times the difference of stacked variances and correlations."""
    if sample.a != 2:
        raise ValueError(f"the combined test requires exactly two groups, got {sample.a}")
    if sample.d < 2:
        raise ValueError("the combined test requires d >= 2")
    if est is None:
        est = pool_estimates(sample, include_correlation=True)
    diag = vech_diag_positions(est.d)
    parts = [
        np.concatenate([est.vhat[i].values[diag], est.rhat[i].values])
        for i in range(2)
    ]
    return np.sqrt(est.N) * (parts[0] - parts[1])


def simulate_reference(
    est: MomentEstimates, B: int, seed: int, threads: int = 1
) -> np.ndarray:
    """B reference draws of the combined statistic under the null.

    Per repetition and group, a normal vector with the estimated
    fourth-moment covariance is mapped to the variance/correlation scale by
    the stacked selector and Jacobian, then the two groups are differenced
    with their sqrt(N/n_i) weights.  ``threads`` has no effect.
    """
    del threads
    if est.a != 2:
        raise ValueError(f"the combined test requires exactly two groups, got {est.a}")
    if not est.has_correlation:
        raise ValueError("estimates lack correlation components")
    _check_repetitions(B)
    rng = _root_rng(seed)
    N = est.N
    d = est.d
    p = est.p
    diag = vech_diag_positions(d)
    selector = np.zeros((d, p))
    selector[np.arange(d), diag] = 1.0
    # draw matrices: each column of the per-group factor feeds a standard
    # normal coordinate, so a block of draws is G_0 W_0^T - G_1 W_1^T with
    # standard normal G_i
    W = []
    for n_i, Sig, M in zip(est.n, est.Sigma, est.jacobian):
        A = np.vstack([selector, M])
        W.append(np.sqrt(N / n_i) * (A @ _factor(Sig)))

    out = np.empty((B, W[0].shape[0]))
    for lo, hi in _row_blocks(B, out.shape[1], _FACTOR_CHUNK_ELEMENTS):
        out[lo:hi] = rng.standard_normal((hi - lo, W[0].shape[1])) @ W[0].T
        out[lo:hi] -= rng.standard_normal((hi - lo, W[1].shape[1])) @ W[1].T
    return out


def _band_indices(B: int, k: int) -> tuple[int, int]:
    # order-statistic indices of the empirical beta/2 and 1 - beta/2
    # quantiles at beta = k/B, inverse-CDF with downward rounding; exact
    # integer arithmetic keeps grid boundaries stable
    return ((B - 1) * k) // (2 * B), ((B - 1) * (2 * B - k)) // (2 * B)


def reference_bands(draws: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise order-statistic band [q_{beta/2}, q_{1-beta/2}]."""
    draws = np.asarray(draws, dtype=float)
    B = draws.shape[0]
    k = _beta_to_grid(B, beta)
    lo, hi = _band_indices(B, k)
    srt = np.sort(draws, axis=0)
    return srt[lo], srt[hi]


def _beta_to_grid(B: int, beta: float) -> int:
    k = int(round(beta * B))
    if not 0 <= k <= B - 1 or abs(k - beta * B) > 1e-9:
        raise ValueError(
            f"beta must be a grid value j/B with 0 <= j < B, got {beta} for B={B}"
        )
    return k


def _outside_counts(srt: np.ndarray, draws: np.ndarray, k: int) -> int:
    lo_idx, hi_idx = _band_indices(draws.shape[0], k)
    outside = (draws < srt[lo_idx]) | (draws > srt[hi_idx])
    return int(np.any(outside, axis=1).sum())


def calibration_rejection_rate(draws: np.ndarray, beta: float) -> float:
    """Share of draws with any component strictly outside its band."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must be a B x P array")
    B = draws.shape[0]
    srt = np.sort(draws, axis=0)
    return _outside_counts(srt, draws, _beta_to_grid(B, beta)) / B


def calibrate_beta(draws: np.ndarray, alpha: float) -> float:
    """Largest grid miscoverage beta = k/B whose familywise rejection rate
    on the draws themselves stays at or below alpha."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] < 1:
        raise ValueError("draws must be a nonempty B x P array")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    B = draws.shape[0]
    srt = np.sort(draws, axis=0)
    bound = alpha * B
    # the rejection rate grows with k, so the feasible set is an interval
    lo, hi = 0, B - 1
    if _outside_counts(srt, draws, hi) <= bound:
        return hi / B
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _outside_counts(srt, draws, mid) <= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo / B


def _exit_grid_index(col_sorted: np.ndarray, t: float, B: int) -> int | None:
    """Smallest k at which t falls strictly outside the component band."""

    def outside(k: int) -> bool:
        lo_idx, hi_idx = _band_indices(B, k)
        return t < col_sorted[lo_idx] or t > col_sorted[hi_idx]

    if not outside(B - 1):
        return None
    lo, hi = 0, B - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if outside(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class CombinedReport:
    """Outcome of the joint variance/correlation comparison of two groups."""

    statistic: np.ndarray
    beta_tilde: float
    p_variances: float
    p_correlations: float
    p_total: float
    repetitions: int
    seed: int
    alpha: float
    n: tuple[int, ...]
    d: int


def combined_test(
    sample: GroupedSample,
    repetitions: int = 1000,
    seed: int | None = None,
    alpha: float = 0.05,
    alpha_step: float | None = None,
    threads: int = 1,
) -> CombinedReport:
    """Joint test of equal variances and equal correlations for two groups.

    The two block p-values are the smallest levels on the alpha grid
    (step ``alpha_step``, default 1/B) at which the calibrated bands
    exclude some component of the block; the global p-value is their
    minimum.  ``beta_tilde`` reports the calibrated miscoverage at the
    requested ``alpha``.  ``threads`` has no effect.
    """
    del threads
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    seed = _normalize_seed(seed)
    est = pool_estimates(sample, include_correlation=True)
    T = combined_statistic(sample, est=est)
    draws = simulate_reference(est, repetitions, seed)
    B = repetitions
    if alpha_step is not None and not 0.0 < alpha_step <= 1.0:
        raise ValueError(f"alpha_step must lie in (0, 1], got {alpha_step}")
    srt = np.sort(draws, axis=0)
    beta_tilde = calibrate_beta(draws, alpha)

    d = est.d
    exits = [_exit_grid_index(srt[:, j], T[j], B) for j in range(len(T))]

    def block_pvalue(block: list[int | None]) -> float:
        ks = [k for k in block if k is not None]
        if not ks:
            return 1.0
        count = _outside_counts(srt, draws, min(ks))
        if alpha_step is None:
            # the default alpha grid has step 1/B, where count/B is exact
            return count / B
        steps = math.ceil(count / B / alpha_step - 1e-12)
        return float(min(steps * alpha_step, 1.0))

    p_var = block_pvalue(exits[:d])
    p_corr = block_pvalue(exits[d:])
    return CombinedReport(
        statistic=T,
        beta_tilde=beta_tilde,
        p_variances=p_var,
        p_correlations=p_corr,
        p_total=min(p_var, p_corr),
        repetitions=B,
        seed=seed,
        alpha=alpha,
        n=est.n,
        d=d,
    )
