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

Nothing here forms the dense pooled covariance.  With F_i the exact factor
of group i's fourth-moment covariance (M_i F_i on the correlation scale)
and E_i the contrast block of group i, the contrasted factor
G = [sqrt(N/n_i) E_i F_i] satisfies G G^T = E Sigma_pooled E^T.  For a
contrast kept as C = A kron B, E_i F_i is column i of A kron (B F_i), so
the contrast keeps A and the products P_i = B F_i (E_i F_i under a row of
ones for a dense C); neither C nor G is formed unless a caller asks for G.
The trace ||G||_F^2 is summed group by group.  ``_law`` reads every
engine's law off per-group Gram matrices and never forms G: G G^T shares
its nonzero spectrum with sum_i R[:, i] R[:, i]^T kron P_i P_i^T, r*q
square for R the thin factor of A's weighted Gram, r its rank and q the
rows of each P_i, and with G^T G; ``_law`` takes the smaller.
TAY's draws ||G z||^2 / ||G||_F^2 follow exactly the MC law, so for the
same seed TAY returns MC's draws.

Every engine draws all B repetitions from one generator rooted at the
seed, in blocks of rows whose size depends only on the problem's
dimensions, so a rerun with the same seed is byte-identical.  Each chi2_1
variate is a squared standard normal; only BT's denominator goes through
numpy's chi-square sampler.

The three references take the hypothesis and the moment estimates only,
never the raw sample.  ``run_test`` pools the sample once, unless the
caller passes estimates, contrasts the hypothesis against them once, and
hands that one contrast to the statistic and to the reference.  Nothing
is stored on the estimates: a call without a contrast builds its own.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .estimation import GroupedSample, MomentEstimates, _check_in_range, pool_estimates
from .hypotheses import CORRELATION, COVARIANCE, HypothesisSpec
from .linalg import _row_blocks

_METHODS = ("MC", "BT", "TAY")

# variates per block of draws in the weighted kernel, normals for chi2_1
# and gamma draws for BT's denominator; numpy fills each block element by
# element in C order, so the variates for a given seed do not depend on
# this size, though BLAS may round the weighted sums of differently sized
# blocks apart in the last bit
_CHUNK_ELEMENTS = 1 << 22


def fresh_seed() -> int:
    """A new root seed drawn from OS entropy."""
    return int.from_bytes(os.urandom(4), "little")


def _normalize_seed(seed: int | None) -> int:
    if seed is None:
        return fresh_seed()
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _root_rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=_normalize_seed(seed)))


def _weighted_chisquare(
    rng: np.random.Generator, B: int, weights: np.ndarray, df: np.ndarray | None = None
) -> np.ndarray:
    """B draws of sum_k weights[k] chi2_{df[k]}, ``df`` one value per weight.

    ``df`` None means chi2_1 throughout, drawn as squared standard normals:
    the same law as numpy's gamma sampler at shape 1/2, at a fraction of
    its cost.  A ``df`` array goes to ``rng.chisquare``, as one scalar when
    its entries are all equal: numpy fills the same variates in the same
    order either way, and a scalar skips its broadcast loop.
    """
    if df is not None and df.min() == df.max():
        df = df[0]
    out = np.empty(B)
    for lo, hi in _row_blocks(B, len(weights), _CHUNK_ELEMENTS):
        if df is None:
            z = rng.standard_normal((hi - lo, len(weights)))
            z *= z
        else:
            z = rng.chisquare(df, size=(hi - lo, len(weights)))
        out[lo:hi] = z @ weights
    return out


def _nonzero(w: np.ndarray) -> np.ndarray:
    return w[w > 1e-12 * w.max(initial=0.0)]


def _gram_spectrum(A: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of A @ A.T, taken from the smaller Gram matrix."""
    return _nonzero(np.linalg.eigvalsh(A.T @ A if A.shape[1] < A.shape[0] else A @ A.T))


def _check_compatible(spec: HypothesisSpec, est: MomentEstimates) -> None:
    if spec.a != est.a:
        raise ValueError(f"hypothesis is for a={spec.a} groups, estimates have {est.a}")
    if spec.d != est.d:
        raise ValueError(f"hypothesis is for d={spec.d}, estimates have d={est.d}")
    if spec.target == CORRELATION and not est.has_correlation:
        raise ValueError("estimates lack correlation components")


def _check_trace(tr: float, e_max: float, theta: np.ndarray) -> None:
    """``e_max`` is the largest absolute entry of the linearized contrast at
    the factors' own scale: a correlation-scale factor M_i F_i has taken in
    the Jacobian M_i, so only C, linearized by a transform's J(theta), counts."""
    _check_in_range(tr, "statistic covariance")
    # an analytically zero estimator covariance leaves rounding residue of
    # order eps^2 relative to (|E| |theta|)^2, so the cutoff is relative,
    # not exact; genuine traces sit many orders of magnitude above it, and
    # data whose positive scale squares to zero are out of range instead
    scale = e_max * np.abs(theta).max()
    if 0.0 < scale < 1.0:
        _check_in_range(scale * scale, "statistic covariance", positive=True)
    if not tr > 1e-20 * scale * scale:
        raise ValueError("hypothesis covariance degenerate: zero trace")


@dataclass(frozen=True)
class _Contrast:
    """One hypothesis contrasted against one set of estimates: ``u`` is the
    residual C f(theta) - zeta, ``A`` C's rows across the groups (a row of
    ones for a dense C) and ``P`` the per-group products P_i = B F_i (F_i
    itself for B = I, E_i F_i for a dense C).  ``trace`` is ||G||_F^2,
    already checked against zero, and ``G()`` forms G anew on each call."""

    u: np.ndarray
    A: np.ndarray
    P: tuple[np.ndarray, ...]
    n: tuple[int, ...]
    trace: float

    def G(self) -> np.ndarray:
        """G = [sqrt(N/n_i) A[:, i] kron P_i], written one group's columns at a time."""
        widths = [P_i.shape[1] for P_i in self.P]
        G = np.empty((len(self.u), sum(widths)))
        blocks = np.split(G, np.cumsum(widths[:-1]), axis=1)
        for i, (G_i, P_i, n_i) in enumerate(zip(blocks, self.P, self.n)):
            # row block r of G_i is A[r, i] P_i; splitting G_i's rows is a view
            np.multiply(self.A[:, i, None, None], P_i, out=G_i.reshape(len(self.A), *P_i.shape))
            # a zero of A times a negative entry is -0.0 where the dense
            # product sums to +0.0; adding 0.0 keeps G's bytes
            G_i += 0.0
            G_i *= np.sqrt(sum(self.n) / n_i)
        return G


def _factored_contrast(A, B, theta: np.ndarray, factors, n: tuple[int, ...]) -> _Contrast:
    """``theta`` and its per-group ``factors`` contrasted by C = A kron B,
    B None the identity, without forming C or any of its blocks."""
    # C theta is A Theta B^T read row by row, with row i of Theta group i's
    # half-vector, and group i's block of C is column i of A kron B
    u = A @ theta.reshape(len(factors), -1)
    u = (u if B is None else u @ B.T).ravel()
    P = tuple(factors) if B is None else tuple(B @ F for F in factors)
    # max|A kron B| = max|A| max|B|, exactly: rounding is monotone
    e_max = np.abs(A).max() * (1.0 if B is None else np.abs(B).max())
    return _from_products(u, A, P, n, e_max, theta)


def _from_products(u, A, P, n: tuple[int, ...], e_max: float, theta) -> _Contrast:
    """The contrast of rows ``A`` and products ``P``, its trace
    ||G||_F^2 = sum_i |A[:, i]|^2 (N/n_i) ||P_i||_F^2 checked against zero."""
    trace = float(sum((A[:, i] @ A[:, i]) * (sum(n) / n_i) * np.vdot(P_i, P_i)
                      for i, (P_i, n_i) in enumerate(zip(P, n))))
    _check_trace(trace, e_max, theta)
    return _Contrast(u, A, P, n, trace)


def _contrast(spec: HypothesisSpec, est: MomentEstimates) -> _Contrast:
    _check_compatible(spec, est)
    if spec.target == COVARIANCE:
        theta, factors = est.vhat_pooled, est.Sigma_factor
    else:
        theta, factors = est.rhat_pooled, est.Upsilon_factor
    if spec.factors is not None:
        c = _factored_contrast(*spec.factors, theta, factors, est.n)
    else:
        # a transformed null's C acts on f(theta) and is linearized by J(theta)
        f, J = (theta, None) if spec.transform is None else spec.transform(theta)
        if len(f) != spec.dense.shape[1]:
            raise ValueError(
                f"the transform maps theta to {len(f)} coordinates "
                f"but C has {spec.dense.shape[1]} columns"
            )
        E = spec.dense if J is None else spec.dense @ J
        dim = len(theta) // est.a
        P = tuple(E[:, i * dim:(i + 1) * dim] @ F for i, F in enumerate(factors))
        c = _from_products(spec.dense @ f, np.ones((1, est.a)), P, est.n, np.abs(E).max(), theta)
    return replace(c, u=c.u - spec.zeta)


def statistic_covariance(spec: HypothesisSpec, est: MomentEstimates) -> np.ndarray:
    """Covariance of the contrasted parameter estimate, E Sigma E^T = G G^T."""
    G = _contrast(spec, est).G()
    return G @ G.T


def ats(
    spec: HypothesisSpec, est: MomentEstimates, *, contrast: _Contrast | None = None
) -> float:
    """Observed value of the trace-normalized quadratic-form statistic.

    ``contrast`` is ``spec`` contrasted against ``est`` when the caller
    has built it already; the references take it the same way.
    """
    c = _contrast(spec, est) if contrast is None else contrast
    return float(est.N * (c.u @ c.u) / c.trace)


def _law(c: _Contrast, method: str):
    """``method``'s reference law on contrast ``c`` as (w, mu, df): MC and TAY
    draw sum_k w_k chi2_1 with w = eig(G G^T) / ||G||_F^2, mu and df None;
    BT draws sum_k w_k chi2_1 / sum_j mu_j chi2_{df_j} with w = eig(G G^T)
    and mu_i = eig(G_i^T G_i) / (n_i - 1) at df n_i - 1, G_i group i's
    columns of G, G never formed.
    R is the thin factor of AtA = (A^T A) o s s^T, s_i = sqrt(N/n_i), from
    the eigenvalues above 1e-12 of its largest: r x a, R^T R = AtA.  Where
    the P_i have at least r*q columns in all, w comes from the r*q square
    M = sum_i R[:, i] R[:, i]^T kron P_i P_i^T; otherwise from
    G^T G = (S^T S) o W, S = [P_1 ... P_a] and W holding AtA_ij over block
    (i, j).  mu_i comes from G_i^T G_i = |A[:, i]|^2 (N/n_i) P_i^T P_i, whose
    spectrum is that of P_i's smaller Gram."""
    widths, q = [P_i.shape[1] for P_i in c.P], len(c.P[0])
    s = np.sqrt(sum(c.n) / np.array(c.n))
    AtA = c.A.T @ c.A * np.outer(s, s)
    lam, V = np.linalg.eigh(AtA)
    keep = lam > 1e-12 * lam[-1]
    R = np.sqrt(lam[keep])[:, None] * V[:, keep].T
    r, PP = len(R), None
    if sum(widths) >= r * q:
        PP = np.stack([P_i @ P_i.T for P_i in c.P])
        # block (j, k) of M is sum_i R[j, i] R[k, i] P_i P_i^T
        M = np.tensordot(R[:, None] * R[None], PP, axes=1).transpose(0, 2, 1, 3)
        w = _nonzero(np.linalg.eigvalsh(M.reshape(r * q, r * q)))
    else:
        S = np.hstack(c.P)
        W = np.repeat(np.repeat(AtA, widths, axis=0), widths, axis=1)
        w = _nonzero(np.linalg.eigvalsh(S.T @ S * W))
    if method != "BT":
        return w / c.trace, None, None
    # P_i P_i^T is the smaller Gram where P_i has at least q columns
    spectra = [_nonzero(np.linalg.eigvalsh(PP[i])) if PP is not None and P_i.shape[1] >= q
               else _gram_spectrum(P_i) for i, P_i in enumerate(c.P)]
    mu = [(c.A[:, i] @ c.A[:, i]) * (sum(c.n) / n_i) * spectrum / (n_i - 1)
          for i, (spectrum, n_i) in enumerate(zip(spectra, c.n))]
    df = [np.full(len(mu_i), n_i - 1.0) for n_i, mu_i in zip(c.n, mu)]
    return w, np.concatenate(mu), np.concatenate(df)


def _reference(spec: HypothesisSpec, est: MomentEstimates, B: int, seed: int,
               contrast: _Contrast | None, method: str) -> np.ndarray:
    """B draws of ``method``'s law from one stream: all numerators, then BT's denominators."""
    c = _contrast(spec, est) if contrast is None else contrast
    _check_repetitions(B)
    w, mu, df = _law(c, method)
    rng = _root_rng(seed)
    num = _weighted_chisquare(rng, B, w)
    return num if mu is None else num / _weighted_chisquare(rng, B, mu, df)


def mc_reference(
    spec: HypothesisSpec,
    est: MomentEstimates,
    B: int,
    seed: int,
    *,
    contrast: _Contrast | None = None,
) -> np.ndarray:
    """B draws from the estimated weighted chi-square limit distribution."""
    return _reference(spec, est, B, seed, contrast, "MC")


def bootstrap_reference(
    spec: HypothesisSpec,
    est: MomentEstimates,
    B: int,
    seed: int,
    *,
    contrast: _Contrast | None = None,
) -> np.ndarray:
    """Parametric-bootstrap draws of the statistic under the null.

    A repetition redraws every group from a centered normal with the
    estimated covariance (correlation-scale covariance for correlation
    targets) and recomputes both the contrasted mean and the trace
    denominator.  The redrawn mean and covariance of a normal sample are
    independent, so the draws come from the exact law that ``_law`` states.
    """
    return _reference(spec, est, B, seed, contrast, "BT")


def taylor_reference(
    spec: HypothesisSpec,
    est: MomentEstimates,
    B: int,
    seed: int,
    *,
    contrast: _Contrast | None = None,
) -> np.ndarray:
    """Delta-method reference draws for correlation targets.

    Per repetition and group a normal vector on the covariance scale is
    mapped through the estimated Jacobian, and the squared norm of the
    contrasted sum is divided by the observed trace.  That is ||G z||^2 /
    ||G||_F^2, which has exactly the MC law, so the draws come from MC's
    law and stream and equal ``mc_reference``'s for the same seed.
    """
    if spec.target != CORRELATION:
        raise ValueError("Taylor method applies to correlation targets only")
    return _reference(spec, est, B, seed, contrast, "TAY")


def _check_repetitions(B: int) -> None:
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 1:
        raise ValueError(f"repetitions must be a positive integer, got {B}")


def _warn_coarse(B: int) -> None:
    """Warn about fewer than 500 repetitions, naming the line that called
    ``run_test`` or ``combined_test``, once the references have checked B."""
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
    est: MomentEstimates | None = None,
) -> TestReport:
    """Full test run: estimate, contrast, resample, and summarize."""
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
    elif est.n != sample.n or est.d != sample.d:
        raise ValueError(
            f"estimates of n = {est.n}, d = {est.d} do not belong to "
            f"the sample of n = {sample.n}, d = {sample.d}"
        )
    c = _contrast(spec, est)
    observed = ats(spec, est, contrast=c)
    if method == "MC":
        ref = mc_reference(spec, est, repetitions, seed, contrast=c)
    elif method == "BT":
        ref = bootstrap_reference(spec, est, repetitions, seed, contrast=c)
    else:
        ref = taylor_reference(spec, est, repetitions, seed, contrast=c)
    _warn_coarse(repetitions)
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
