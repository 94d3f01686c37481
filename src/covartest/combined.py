"""Joint two-group test of equal variances and equal correlations.

The statistic stacks the scaled differences of the d group variances and
the d(d-1)/2 correlations: the contrast [1, -1] kron I on the stacked
half-vectors, whose per-group factors P_i are the variance rows of the
covariance factor F_i on top of the correlation-scale factor M_i F_i.
The engine's contrast builder weights them, under the engine's trace rule,
into G = [sqrt(N/n_0) P_0, -sqrt(N/n_1) P_1], and each block of reference
draws is the one product Z G^T, with Z one standard normal draw of the
block's rows, filled in C order from one generator rooted at the seed:
the normals do not depend on the block size, and a rerun with the same
seed is byte-identical.  The draws are stored component-major, so each
component's B draws, which the bands sort, are contiguous.
A single miscoverage level beta is calibrated so that the familywise
rejection rate over all components, estimated on the reference draws
themselves, stays at the requested level; the componentwise bands are
order-statistic quantiles of the draws.  Rejection of a block (the
variance part or the correlation part) is inverted into a p-value on the
grid of steps 1/B, and the global p-value is the smaller of the two.
One rule, whether a vector leaves the band of grid level k, and one
search from the bottom for the first such k, in at most 2 ceil(log2(k + 2))
band passes, give both: beta is one step below the first level at which
more than alpha B draws leave, and a block's p-value is the share of draws
that leave at the first level the statistic's block leaves, 1 where it
never does.  The statistic and the reference take the moment estimates
only; ``combined_test`` pools the sample once and passes them to both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    _check_repetitions,
    _factored_contrast,
    _normalize_seed,
    _root_rng,
    _warn_coarse,
)
from .estimation import GroupedSample, MomentEstimates, pool_estimates
from .linalg import _row_blocks, vech_diag_positions

# array entries per block of reference draws, written straight into the
# output; numpy fills each block element by element in C order, so the
# variates for a given seed do not depend on this size, though BLAS may
# round the products of differently sized blocks apart in the last bit
_FACTOR_CHUNK_ELEMENTS = 1 << 18


def _check_layout(a: int, d: int) -> None:
    """The combined test compares two groups of at least two variables."""
    if a != 2:
        raise ValueError(f"the combined test requires exactly two groups, got {a}")
    if d < 2:
        raise ValueError("the combined test requires d >= 2")


def _check_estimates(est: MomentEstimates) -> None:
    _check_layout(est.a, est.d)
    if not est.has_correlation:
        raise ValueError("estimates lack correlation components")


def combined_statistic(est: MomentEstimates) -> np.ndarray:
    """sqrt(N) times the difference of stacked variances and correlations."""
    _check_estimates(est)
    diag = vech_diag_positions(est.d)
    parts = [
        np.concatenate([est.vhat[i][diag], est.rhat[i]])
        for i in range(2)
    ]
    return np.sqrt(est.N) * (parts[0] - parts[1])


def simulate_reference(est: MomentEstimates, B: int, seed: int) -> np.ndarray:
    """B reference draws of the combined statistic under the null.

    Each group's normal vector on the covariance scale is mapped to the
    variance/correlation scale by its stacked factor [F_i[diag]; M_i F_i],
    weighted into the engine's contrast G, formed once: a block of draws is
    Z G^T, Z one C-order draw of standard normals with a row per draw,
    written into a P x B array whose transpose is returned, so each
    component's draws are contiguous.  A contrast whose trace is rounding
    residue, by the engine's relative rule, raises ``ValueError``.
    """
    _check_estimates(est)
    _check_repetitions(B)
    diag = vech_diag_positions(est.d)
    theta = np.concatenate([np.concatenate([v[diag], r]) for v, r in zip(est.vhat, est.rhat)])
    c = _factored_contrast(np.array([[1.0, -1.0]]), None, theta, [
        np.vstack([F[diag], U]) for F, U in zip(est.Sigma_factor, est.Upsilon_factor)
    ], est.n)
    rng = _root_rng(seed)
    G = c.G()
    out = np.empty((G.shape[0], B))
    for lo, hi in _row_blocks(B, out.shape[0], _FACTOR_CHUNK_ELEMENTS):
        np.matmul(G, rng.standard_normal((hi - lo, G.shape[1])).T, out=out[:, lo:hi])
    return out.T


def _outside(srt: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Which rows of X have a component strictly outside the level-k band."""
    # the band's ends are the empirical beta/2 and 1 - beta/2 quantiles at
    # beta = k/B, inverse-CDF with downward rounding; exact integer
    # arithmetic keeps grid boundaries stable
    B = srt.shape[0]
    lo, hi = srt[(B - 1) * k // (2 * B)], srt[(B - 1) * (2 * B - k) // (2 * B)]
    return np.any((X < lo) | (X > hi), axis=-1)


def _first_level(outside, n: int) -> int:
    """Smallest level k < n at which ``outside(k)`` holds, or n where it
    never does.  The bands shrink as k grows, so a vector outside at level
    k stays outside above it.  Answers are usually low, so the search probes
    levels 0, 1, 3, 7, ... until ``outside`` holds or n is passed, then
    bisects the last gap: at most 2 ceil(log2(k + 2)) probes (Bentley-Yao)."""
    lo, probe = 0, 0
    while probe < n and not outside(probe):
        lo, probe = probe + 1, 2 * probe + 1
    hi = min(probe, n)
    while lo < hi:
        mid = (lo + hi - 1) // 2
        if outside(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    elif srt.shape != draws.shape:
        raise ValueError(f"srt must be draws sorted, shape {draws.shape}, got {srt.shape}")
    # sorting puts NaN last and infinities at the ends: two rows hold them all
    if not np.isfinite(srt[[0, -1]]).all():
        raise ValueError("draws must be finite")
    # beta is j/B with j + 1 the first level that rejects too often; no
    # draw leaves the level-0 band, the range of the draws, so j + 1 >= 1
    j = _first_level(lambda j: _outside(srt, draws, j + 1).sum() > alpha * B, B - 1)
    return j / B


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
    draws = simulate_reference(est, repetitions, seed)
    _warn_coarse(repetitions)
    B = repetitions
    srt = np.sort(draws, axis=0)
    beta_tilde = calibrate_beta(draws, alpha, srt=srt)
    # a block's p-value is the rejection rate of the draws at the first
    # grid level whose band T leaves in that block, 1 where it never does
    d = est.d
    exits = [
        _first_level(lambda k: _outside(srt[:, block], T[block], k), B)
        for block in (slice(None, d), slice(d, None))
    ]
    # no draw leaves the level-0 band, the range of the draws
    p_var, p_corr = (
        int(_outside(srt, draws, k).sum()) / B if 0 < k < B else float(k == B) for k in exits
    )
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
