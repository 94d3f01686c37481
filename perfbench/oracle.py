"""Independent numpy oracle for the outputs the benchmark checks.

Nothing here imports covartest.  The statistic is recomputed from the raw
sample: covariances by ``np.cov``, half-vectorization by an explicit index
scan, the fourth-moment covariance through its data factor, the contrast
block by block, and the trace as a squared Frobenius norm of that factor.
The oracle runs in the benchmark's process, so it keeps its own arrays
small next to the package's: no dense equality contrast, no m x N array
and Imhof integrands evaluated a few thousand points at a time.
Reference laws are evaluated exactly by Imhof's (1961) inversion formula:

* MC and TAY draw from sum_k lambda_k chi2_1 with lambda the eigenvalues of
  the contrasted pooled covariance H divided by its trace;
* BT draws N |mean contrast|^2 over the redrawn trace, which for Gaussian
  pseudo-samples is sum_k eig(H)_k chi2_1 over
  sum_i (N/n_i)/(n_i-1) sum_j mu_ij chi2_{n_i-1}, mu_i = eig(E_i Sigma_i E_i^T),
  with numerator and denominator independent.

A p-value passes when it lies within five Monte Carlo standard errors plus
1/B of the exact tail.  Check functions return a list of problems; an
empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STAT_RTOL = 1e-9
P_SIGMAS = 5.0
IMHOF_TOL = 1e-9  # truncation and quadrature error of an exact tail
IMHOF_ELEMENTS = 2**16  # points x weights per block of the Imhof integrand
H_CHUNK = 8192  # sample columns per block when H is accumulated


def vech_index(d: int, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Row-major upper-triangle positions, (0,0), (0,1), ..., (d-1,d-1)."""
    pairs = [(j, k) for j in range(d) for k in range(j + (1 if strict else 0), d)]
    rows, cols = zip(*pairs)
    return np.array(rows), np.array(cols)


@dataclass(frozen=True)
class GroupFactor:
    """Parameter vector of one group and a q x n factor F with F F^T/(n-1)
    equal to the group's estimated covariance of sqrt(n) times it."""

    theta: np.ndarray
    F: np.ndarray

    @property
    def n(self) -> int:
        return self.F.shape[1]


def group_factor(X: np.ndarray, target: str) -> GroupFactor:
    d, n = X.shape
    S = np.cov(X)
    xc = X - X.mean(axis=1, keepdims=True)
    rows, cols = vech_index(d)
    W = xc[rows] * xc[cols]
    W -= W.mean(axis=1, keepdims=True)
    if target == "covariance":
        return GroupFactor(S[rows, cols], W)
    # delta method: r_jk moves by w_jk / sqrt(s_jj s_kk)
    # - r_jk / 2 * (w_jj / s_jj + w_kk / s_kk)
    sj, sk = vech_index(d, strict=True)
    var = np.diag(S)
    r = S[sj, sk] / np.sqrt(var[sj] * var[sk])
    full_pos = {pair: t for t, pair in enumerate(zip(rows.tolist(), cols.tolist()))}
    at = lambda js, ks: np.array([full_pos[p] for p in zip(js.tolist(), ks.tolist())])
    F = (
        W[at(sj, sk)] / np.sqrt(var[sj] * var[sk])[:, None]
        - (r / 2.0)[:, None]
        * (W[at(sj, sj)] / var[sj][:, None] + W[at(sk, sk)] / var[sk][:, None])
    )
    return GroupFactor(r, F)


def contrast(hypothesis: str, a: int, d: int, target: str) -> list:
    """Blocks of the named null's contrast C = [E_1 ... E_a], each given as
    the map M -> E_i M.  The equality nulls have C = (I - J/a) kron I_q, so
    E_i M is column i of I - J/a kron M and the a q x a q matrix C is
    never formed."""
    q = d * (d + 1) // 2 if target == "covariance" else d * (d - 1) // 2
    if hypothesis in ("equal", "equal-correlated"):
        P = np.eye(a) - 1.0 / a
        return [lambda M, c=P[:, [i]]: np.kron(c, M) for i in range(a)]
    if hypothesis == "equal-diagonals":
        rows, cols = vech_index(d)
        diag = np.flatnonzero(rows == cols)
        blocks = [np.zeros(((a - 1) * d, q)) for _ in range(a)]
        for i in range(a - 1):
            blocks[i][i * d + np.arange(d), diag] = 1.0
            blocks[i + 1][i * d + np.arange(d), diag] = -1.0
        return [E.__matmul__ for E in blocks]
    raise ValueError(f"oracle has no contrast for {hypothesis!r}")


def _nonzero(w: np.ndarray) -> np.ndarray:
    return w[w > 1e-12 * w.max()]


def _spectrum(A: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of A A^T through the smaller Gram matrix A^T A."""
    return _nonzero(np.linalg.eigvalsh(A.T @ A))


@dataclass(frozen=True)
class AnovaOracle:
    """Exact quantities of one Anova-type test on one sample."""

    statistic: float
    trace: float
    weights: np.ndarray  # nonzero eigenvalues of H
    group_weights: tuple[np.ndarray, ...]  # nonzero eigenvalues of E_i Sigma_i E_i^T
    n: tuple[int, ...]
    H: np.ndarray | None  # dense H, formed when the contrast has at most N rows

    def mc_tail(self, x: float) -> float:
        return imhof_tail(x, self.weights / self.trace)

    def bt_tail(self, x: float) -> float:
        N = sum(self.n)
        neg = [-x * (N / n_i) / (n_i - 1) * mu for n_i, mu in zip(self.n, self.group_weights)]
        dfs = [np.full(len(mu), n_i - 1.0) for n_i, mu in zip(self.n, self.group_weights)]
        return imhof_tail(
            0.0,
            np.concatenate([self.weights, *neg]),
            np.concatenate([np.ones(len(self.weights)), *dfs]),
        )


def anova_oracle(groups, target: str, hypothesis: str) -> AnovaOracle:
    """Statistic, trace and reference-law weights computed from the raw groups.

    With G_i = sqrt(N/n_i/(n_i-1)) E_i F_i, H is the sum of G_i G_i^T.  When
    the contrast has at most N rows, H is accumulated over column chunks so
    that no m x N array exists; otherwise the spectrum comes from the
    N x N Gram matrix of G.
    """
    a, d = len(groups), groups[0].shape[0]
    facs = [group_factor(np.asarray(X, dtype=float), target) for X in groups]
    n = tuple(f.n for f in facs)
    N = sum(n)
    E = contrast(hypothesis, a, d, target)
    u = sum(E_i(f.theta[:, None]) for E_i, f in zip(E, facs)).ravel()
    m = len(u)
    if m <= N:
        per_group = []
        for E_i, f in zip(E, facs):
            S = np.zeros((m, m))
            for lo in range(0, f.n, H_CHUNK):
                B = E_i(f.F[:, lo:lo + H_CHUNK])
                S += B @ B.T
            per_group.append(S / (f.n - 1))  # E_i Sigma_i E_i^T
        H = sum((N / n_i) * S for n_i, S in zip(n, per_group))
        trace = float(np.trace(H))
        weights = _nonzero(np.linalg.eigvalsh(H))
        group_weights = tuple(_nonzero(np.linalg.eigvalsh(S)) for S in per_group)
    else:
        blocks = [E_i(f.F) for E_i, f in zip(E, facs)]
        G = np.hstack([np.sqrt(N / n_i / (n_i - 1)) * B for n_i, B in zip(n, blocks)])
        H = None
        trace = float(np.einsum("ij,ij->", G, G))
        weights = _spectrum(G)
        group_weights = tuple(_spectrum(B) / (n_i - 1) for n_i, B in zip(n, blocks))
    return AnovaOracle(
        statistic=float(N * (u @ u) / trace),
        trace=trace,
        weights=weights,
        group_weights=group_weights,
        n=n,
        H=H,
    )


def combined_oracle(groups) -> np.ndarray:
    """sqrt(N) times the difference of stacked variances and correlations."""
    parts = []
    for X in groups:
        S = np.cov(X)
        sd = np.sqrt(np.diag(S))
        j, k = vech_index(S.shape[0], strict=True)
        parts.append(np.concatenate([np.diag(S), S[j, k] / (sd[j] * sd[k])]))
    N = sum(X.shape[1] for X in groups)
    return math.sqrt(N) * (parts[0] - parts[1])


def imhof_tail(x: float, weights, dfs=None) -> float:
    """P(sum_k w_k chi2_{h_k} > x) by Imhof's inversion integral.

    The integral is truncated at U where the remainder is provably below
    ``IMHOF_TOL`` and evaluated by Simpson's rule, doubling the grid until
    two successive grids agree to ``IMHOF_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    h = np.ones_like(w) if dfs is None else np.asarray(dfs, dtype=float)
    keep = w != 0.0
    w, h = w[keep], h[keep]
    scale = np.abs(w).max()
    w, x = w / scale, x / scale

    def log_rho(u):
        return 0.25 * (h * np.log1p(np.square(np.multiply.outer(u, w)))).sum(axis=-1)

    # for u >= U, rho(u) >= rho(U) (u/U)^kappa, so the remainder of the
    # integral is at most 1 / (pi rho(U) kappa)
    U = 1.0
    while True:
        s = (w * U) ** 2 / (1.0 + (w * U) ** 2)
        kappa = 0.5 * float((h * s).sum())
        if -log_rho(np.array([U]))[0] - math.log(math.pi * kappa) < math.log(IMHOF_TOL):
            break
        U *= 2.0
        if U > 1e5:
            # rho grows like u^(sum h / 2); with few degrees of freedom the
            # truncated integral cannot reach IMHOF_TOL on a feasible grid
            raise ValueError("too few degrees of freedom for the Imhof integral")

    block = max(IMHOF_ELEMENTS // len(w), 1)

    def integral(points: int) -> float:
        """Simpson's rule on [0, U], accumulated block by block."""
        step = U / (points - 1)
        total = 0.5 * (float((h * w).sum()) - x)  # the integrand's limit at u = 0
        for lo in range(1, points, block):
            k = np.arange(lo, min(lo + block, points))
            u = k * step
            theta = 0.5 * (h * np.arctan(np.multiply.outer(u, w))).sum(axis=1) - 0.5 * x * u
            simpson = np.where(k % 2 == 1, 4.0, np.where(k == points - 1, 1.0, 2.0))
            total += float(simpson @ (np.sin(theta) / (u * np.exp(log_rho(u)))))
        return step / 3.0 * total

    freq = 0.5 * (float((h * np.abs(w)).sum()) + abs(x))
    points = 2 * int(min(max(U * freq * 4.0, 1000.0), 1e6)) + 1
    prev = integral(points)
    while points < 4_000_000:
        points = 2 * points - 1
        cur = integral(points)
        if abs(cur - prev) < IMHOF_TOL:
            return float(min(max(0.5 + cur / math.pi, 0.0), 1.0))
        prev = cur
    raise ValueError("Imhof integral did not converge")


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= STAT_RTOL * abs(want)


def _pvalue_problems(p: float, exact: float, B: int) -> list[str]:
    out = []
    if not 0.0 <= p <= 1.0 or abs(p * B - round(p * B)) > 1e-6:
        out.append(f"p-value {p} is not on the 1/B grid in [0, 1]")
    tol = P_SIGMAS * math.sqrt(exact * (1.0 - exact) / B) + 1.0 / B
    if abs(p - exact) > tol:
        out.append(f"p-value {p:.6f} is {abs(p - exact):.2e} from the exact tail {exact:.6f} (tol {tol:.2e})")
    return out


def check_test(report, expect: AnovaOracle, method: str, B: int, seed: int) -> list[str]:
    """Problems with a TestReport against the oracle."""
    out = []
    if not _rel_close(report.statistic, expect.statistic):
        out.append(f"statistic {report.statistic!r} != oracle {expect.statistic!r}")
    if (report.method, report.repetitions, report.seed, tuple(report.n)) != (method, B, seed, expect.n):
        out.append("report echoes the wrong method, repetitions, seed or group sizes")
    if not math.isfinite(report.critical_value):
        out.append("critical value is not finite")
    exact = expect.bt_tail(expect.statistic) if method == "BT" else expect.mc_tail(expect.statistic)
    return out + _pvalue_problems(report.p_value, exact, B)


def check_cli_json(payload: dict, expect: AnovaOracle, B: int, seed: int) -> list[str]:
    """Problems with the covartest --output json document of an MC test."""
    out = []
    if not _rel_close(payload["statistic"], expect.statistic):
        out.append(f"statistic {payload['statistic']!r} != oracle {expect.statistic!r}")
    if (payload["method"], payload["repetitions"], payload["seed"], tuple(payload["n"])) != ("MC", B, seed, expect.n):
        out.append("JSON echoes the wrong method, repetitions, seed or group sizes")
    H = np.asarray(payload["statistic_covariance"], dtype=float)
    if expect.H is not None and (
        H.shape != expect.H.shape
        or np.abs(H - expect.H).max() > STAT_RTOL * np.abs(expect.H).max()
    ):
        out.append("statistic_covariance differs from the oracle's H")
    return out + _pvalue_problems(payload["p_value"], expect.mc_tail(expect.statistic), B)


def check_combined(report, expect: np.ndarray, B: int, seed: int, alpha: float) -> list[str]:
    """Problems with a CombinedReport: statistic vector and structure."""
    out = []
    T = np.asarray(report.statistic, dtype=float)
    if T.shape != expect.shape or np.abs(T - expect).max() > STAT_RTOL * np.abs(expect).max():
        out.append("combined statistic differs from the oracle's sqrt(N) difference vector")
    for name in ("p_variances", "p_correlations", "p_total", "beta_tilde"):
        v = getattr(report, name)
        if not 0.0 <= v <= 1.0 or abs(v * B - round(v * B)) > 1e-6:
            out.append(f"{name} = {v} is not on the 1/B grid in [0, 1]")
    if report.p_total != min(report.p_variances, report.p_correlations):
        out.append("p_total is not the smaller block p-value")
    if report.beta_tilde > alpha:
        out.append(f"beta_tilde {report.beta_tilde} exceeds alpha {alpha}")
    if (report.repetitions, report.seed) != (B, seed):
        out.append("report echoes the wrong repetitions or seed")
    return out


def same_combined(r1, r2) -> bool:
    """Two combined reports are identical, statistic included."""
    fields = ("beta_tilde", "p_variances", "p_correlations", "p_total", "repetitions", "seed", "alpha", "n", "d")
    return all(getattr(r1, f) == getattr(r2, f) for f in fields) and np.array_equal(
        r1.statistic, r2.statistic
    )
