"""Joint two-group test of equal variances and equal correlations.

The statistic stacks the scaled differences of the d group variances and
the d(d-1)/2 correlations.  Reference draws push per-group normal vectors
on the covariance scale through the variance selector and the delta-method
Jacobian M_i: each group's draw is a normal vector times the variance rows
of the covariance factor F_i stacked on the stored correlation-scale
factor M_i F_i.  All repetitions come from one generator rooted at the
seed, a block of rows at a time, so a rerun with the same seed is
byte-identical.
A single miscoverage level beta is calibrated so that the familywise
rejection rate over all components, estimated on the reference draws
themselves, stays at the requested level; the componentwise bands are
order-statistic quantiles of the draws.  Rejection of a block (the
variance part or the correlation part) is inverted into a p-value on the
grid of steps 1/B, and the global p-value for equality of the two
covariance matrices is the smaller of the two block p-values.  The
statistic and the reference take the moment estimates only;
``combined_test`` pools the sample once and passes the estimates to both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    _check_repetitions,
    _check_trace,
    _normalize_seed,
    _root_rng,
    _row_blocks,
    _warn_coarse,
)
from .estimation import GroupedSample, MomentEstimates, _jacobian_terms, pool_estimates
from .linalg import vech_diag_positions

# array entries per m-wide temporary in a block of reference draws; the
# draws for a given seed depend on this size
_FACTOR_CHUNK_ELEMENTS = 1 << 18


def combined_statistic(est: MomentEstimates) -> np.ndarray:
    """sqrt(N) times the difference of stacked variances and correlations."""
    if est.a != 2:
        raise ValueError(f"the combined test requires exactly two groups, got {est.a}")
    if est.d < 2:
        raise ValueError("the combined test requires d >= 2")
    if not est.has_correlation:
        raise ValueError("estimates lack correlation components")
    diag = vech_diag_positions(est.d)
    parts = [
        np.concatenate([est.vhat[i][diag], est.rhat[i]])
        for i in range(2)
    ]
    return np.sqrt(est.N) * (parts[0] - parts[1])


def simulate_reference(est: MomentEstimates, B: int, seed: int) -> np.ndarray:
    """B reference draws of the combined statistic under the null.

    Per repetition and group, a normal vector with the estimated
    fourth-moment covariance is mapped to the variance/correlation scale by
    the stacked selector and Jacobian, then the two groups are differenced
    with their sqrt(N/n_i) weights.  Weighted factors whose total trace is
    rounding residue, by the relative rule of the Anova-type statistic,
    raise ``ValueError``.
    """
    if est.a != 2:
        raise ValueError(f"the combined test requires exactly two groups, got {est.a}")
    if not est.has_correlation:
        raise ValueError("estimates lack correlation components")
    _check_repetitions(B)
    diag = vech_diag_positions(est.d)
    # per group, the stacked selector and Jacobian A_i times the factor F_i
    # is [F_i[diag]; M_i F_i], weighted by sqrt(N/n_i); a block of draws is
    # Z_0 W_0^T - Z_1 W_1^T with standard normal Z_i
    W = [
        np.sqrt(est.N / n_i) * np.vstack([F[diag], U])
        for n_i, F, U in zip(est.n, est.Sigma_factor, est.Upsilon_factor)
    ]
    # the rows of A_i are selector rows (entries 1) and Jacobian rows,
    # whose nonzeros are the entries of _jacobian_terms
    A_max = np.array([1.0, *(
        np.abs(c).max()
        for v, r in zip(est.vhat, est.rhat)
        for _, c in _jacobian_terms(v[diag], r)
    )])
    _check_trace(sum(float(np.vdot(W_i, W_i)) for W_i in W), A_max, est.vhat_pooled)
    rng = _root_rng(seed)
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


def _outside_counts(srt: np.ndarray, draws: np.ndarray, k: int) -> int:
    lo_idx, hi_idx = _band_indices(draws.shape[0], k)
    outside = (draws < srt[lo_idx]) | (draws > srt[hi_idx])
    return int(np.any(outside, axis=1).sum())


def calibrate_beta(
    draws: np.ndarray, alpha: float, *, srt: np.ndarray | None = None
) -> float:
    """Largest grid miscoverage beta = k/B whose familywise rejection rate
    on the draws themselves stays at or below alpha.

    ``srt`` is ``draws`` sorted along its first axis when the caller has
    sorted them already.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] < 1:
        raise ValueError("draws must be a nonempty B x P array")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    B = draws.shape[0]
    if srt is None:
        srt = np.sort(draws, axis=0)
    bound = alpha * B
    # the rejection rate grows with k, so the feasible set is an interval
    lo, hi = 0, B - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _outside_counts(srt, draws, mid) <= bound:
            lo = mid
        else:
            hi = mid - 1
    return lo / B


def _exit_levels(srt: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Per component, the smallest grid k at which T falls strictly outside
    the band, or B where it never does.

    T_j < srt[lo_k, j] exactly when lo_k reaches the count of draws <= T_j,
    and T_j > srt[hi_k, j] exactly when hi_k falls below the count of draws
    < T_j; lo_k grows and hi_k shrinks with k, so both are sorted lookups.
    """
    B = srt.shape[0]
    lo, hi = _band_indices(B, np.arange(B))
    below = np.searchsorted(lo, (srt <= T).sum(axis=0), side="left")
    above = np.searchsorted(-hi, -(srt < T).sum(axis=0), side="right")
    return np.minimum(below, above)


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
) -> CombinedReport:
    """Joint test of equal variances and equal correlations for two groups.

    The two block p-values are the smallest levels on the alpha grid of
    step 1/B at which the calibrated bands exclude some component of the
    block; the global p-value is their minimum.  ``beta_tilde`` reports the
    calibrated miscoverage at the requested ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    seed = _normalize_seed(seed)
    est = pool_estimates(sample, include_correlation=True)
    T = combined_statistic(est)
    _warn_coarse(repetitions)
    draws = simulate_reference(est, repetitions, seed)
    B = repetitions
    srt = np.sort(draws, axis=0)
    beta_tilde = calibrate_beta(draws, alpha, srt=srt)

    d = est.d
    exits = _exit_levels(srt, T)

    def block_pvalue(block: np.ndarray) -> float:
        k = int(block.min())
        return 1.0 if k == B else _outside_counts(srt, draws, k) / B

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
