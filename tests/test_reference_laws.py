"""The array-drawn references against the per-repetition loops they replaced.

BT, TAY and the combined test now draw every repetition from one root
stream, so their draws differ from the loops' draws; their laws must not.
Each case compares 10 000 draws of both by a two-sample KS test at fixed
seeds.  MC draws one chi-square per nonzero eigenvalue of the contrasted
covariance, not one per contrast row as the dense loop does, so its law is
compared the same way and its stream is pinned byte for byte on its own;
so is BT's, whose numerator and denominator are drawn from one stream,
with the denominator's df passed as one scalar when the groups are of
equal size, and the combined test's, drawn a block of rows at a time.
TAY's draws ||G z||^2 / ||G||_F^2 have the MC law and come from MC's
kernel, so for one seed they equal MC's draws byte for byte.  The
benchmark's oracle (``perfbench/oracle.py``) holds the p-values of all
three engines against the exact Imhof tails of their laws.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from covartest import combined
from covartest.combined import simulate_reference
from covartest.engine import (
    _contrast,
    _gram_spectrum,
    _law,
    _weighted_chisquare,
    bootstrap_reference,
    mc_reference,
    run_test,
    taylor_reference,
)
from covartest.estimation import GroupedSample, MomentEstimates, pool_estimates
from covartest.hypotheses import (
    COVARIANCE,
    CORRELATION,
    predefined_hypothesis,
    structure_hypothesis,
)
from covartest.linalg import full_length, vech_diag_positions
from conftest import gaussian_sample, make_spd
from reference_loops import (
    bootstrap_reference_loop,
    correlation_jacobian,
    dense_sigma,
    mc_reference_loop,
    simulate_reference_loop,
    taylor_reference_loop,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

B = 10_000
P_FLOOR = 1e-3


def sample_of(seed, d, n, V=None):
    rng = np.random.default_rng(seed)
    if V is None:
        V = make_spd(rng, d)
    return GroupedSample(tuple(gaussian_sample(rng, V, n_i) for n_i in n))


def assert_same_law(a, b):
    result = stats.ks_2samp(a, b)
    assert result.pvalue >= P_FLOOR, f"KS p = {result.pvalue:.2e}"


@pytest.mark.parametrize(
    "target, name, d, n",
    [
        (COVARIANCE, "equal", 4, (40, 50)),
        (CORRELATION, "equal-correlated", 5, (35, 45)),
        # 12 observations against 21 covariance coordinates: rank-deficient
        (COVARIANCE, "equal", 6, (12, 40)),
    ],
    ids=["covariance", "correlation", "rank-deficient"],
)
def test_bootstrap_law_matches_loop(target, name, d, n):
    sample = sample_of(101 + d, d, n)
    spec = predefined_hypothesis(name, target, len(n), d)
    est = pool_estimates(sample, include_correlation=target == CORRELATION)
    assert_same_law(
        bootstrap_reference(spec, est, B=B, seed=7),
        bootstrap_reference_loop(sample, spec, B=B, seed=8, est=est),
    )


def test_bootstrap_law_matches_loop_with_a_null_group():
    # x and -x: the outer products agree exactly, so the first group's
    # fourth-moment covariance and its factor vanish
    null = np.array([[1.0, -1.0], [2.0, -2.0]])
    sample = GroupedSample((null, sample_of(606, 2, (40,)).groups[0]))
    spec = predefined_hypothesis("equal", COVARIANCE, 2, 2)
    est = pool_estimates(sample)
    assert not np.any(dense_sigma(est)[0])
    assert_same_law(
        bootstrap_reference(spec, est, B=B, seed=16),
        bootstrap_reference_loop(sample, spec, B=B, seed=17, est=est),
    )


def test_taylor_law_matches_loop_equal_correlated():
    # the first group's 14 observations leave its 15 x 15 fourth-moment
    # covariance rank-deficient
    sample = sample_of(202, 5, (14, 60))
    spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 5)
    est = pool_estimates(sample)
    assert_same_law(
        taylor_reference(spec, est, B=B, seed=9),
        taylor_reference_loop(sample, spec, B=B, seed=10, est=est),
    )


def test_taylor_law_matches_loop_hautoregressive():
    V = np.array([[1.0, 0.5, 0.25, 0.125], [0.5, 1.0, 0.5, 0.25],
                  [0.25, 0.5, 1.0, 0.5], [0.125, 0.25, 0.5, 1.0]])
    sample = sample_of(303, 4, (80,), V=V)
    spec = structure_hypothesis("hautoregressive", CORRELATION, 4)
    est = pool_estimates(sample)
    assert_same_law(
        taylor_reference(spec, est, B=B, seed=11),
        taylor_reference_loop(sample, spec, B=B, seed=12, est=est),
    )


@pytest.mark.parametrize(
    "seed, d, n, structure",
    [
        # rank-deficient first group, as in the equal-correlated KS case
        (202, 5, (14, 60), None),
        (303, 4, (80,), "hautoregressive"),
    ],
    ids=["equal-correlated", "hautoregressive"],
)
def test_taylor_draws_equal_mc_draws(seed, d, n, structure):
    sample = sample_of(seed, d, n)
    if structure is None:
        spec = predefined_hypothesis("equal-correlated", CORRELATION, len(n), d)
    else:
        spec = structure_hypothesis(structure, CORRELATION, d)
    est = pool_estimates(sample)
    tay = taylor_reference(spec, est, B=3000, seed=21)
    mc = mc_reference(spec, pool_estimates(sample), B=3000, seed=21)
    assert tay.tobytes() == mc.tobytes()


def test_combined_law_matches_loop_per_component():
    # 8 observations against 10 covariance coordinates: rank-deficient
    est = pool_estimates(sample_of(404, 4, (8, 70)))
    new = simulate_reference(est, B=B, seed=13)
    old = simulate_reference_loop(est, B=B, seed=14)
    assert new.shape == old.shape == (B, 10)
    for j in range(new.shape[1]):
        assert_same_law(new[:, j], old[:, j])


@pytest.mark.parametrize(
    "target, name, d, n",
    [
        # 12 observations against 21 covariance coordinates: rank-deficient
        (COVARIANCE, "equal", 6, (12, 40)),
        (CORRELATION, "equal-correlated", 5, (35, 45)),
    ],
    ids=["covariance-rank-deficient", "correlation"],
)
def test_mc_law_matches_dense_loop(target, name, d, n):
    sample = sample_of(707 + d, d, n)
    spec = predefined_hypothesis(name, target, len(n), d)
    est = pool_estimates(sample, include_correlation=target == CORRELATION)
    assert_same_law(
        mc_reference(spec, est, B=B, seed=18),
        mc_reference_loop(spec, est, B=B, seed=19),
    )


def assert_close_weights(weights, expected):
    assert len(weights) == len(expected)
    assert np.abs(weights - expected).max() <= 1e-12 * np.abs(expected).max()


def test_mc_stream_is_pinned_across_a_chunk_boundary():
    # two groups of 40 against 78 covariance coordinates leave 78 nonzero
    # weights; 78 x 60 000 draws exceeds the 2**22-element chunk
    sample = sample_of(505, 12, (40, 40))
    spec = predefined_hypothesis("equal", COVARIANCE, 2, 12)
    Bmc = 60_000
    est = pool_estimates(sample, include_correlation=False)
    c = _contrast(spec, est)
    lam, _, _ = _law(c, "MC")
    # the law's weights are those of G's Gram spectrum, though read off
    # the per-group products without forming G
    assert_close_weights(lam, _gram_spectrum(c.G()) / c.trace)
    assert Bmc * len(lam) > 1 << 22
    new = mc_reference(spec, est, Bmc, seed=15)
    rerun = mc_reference(spec, pool_estimates(sample, include_correlation=False), Bmc, seed=15)
    assert new.tobytes() == rerun.tobytes()
    # the contract: one root stream, chi-square(1) rows drawn as squared
    # standard normals in blocks of 2**22 // len(lam)
    rng = np.random.default_rng(np.random.SeedSequence(15))
    step = (1 << 22) // len(lam)
    expect = np.concatenate([
        rng.standard_normal((min(step, Bmc - lo), len(lam))) ** 2 @ lam
        for lo in range(0, Bmc, step)
    ])
    assert new.tobytes() == expect.tobytes()


def test_bt_stream_is_pinned_across_a_chunk_boundary():
    # two groups of 40 leave 78 numerator weights and 39 denominator
    # weights per group at df 39; 78 x 60 000 draws exceeds the
    # 2**22-element chunk on both sides of the ratio
    sample = sample_of(505, 12, (40, 40))
    spec = predefined_hypothesis("equal", COVARIANCE, 2, 12)
    Bbt = 60_000
    est = pool_estimates(sample, include_correlation=False)
    c = _contrast(spec, est)
    w, mu, df = _law(c, "BT")
    G, widths = c.G(), [P_i.shape[1] for P_i in c.P]
    spectra = [_gram_spectrum(G_i) for G_i in np.split(G, np.cumsum(widths[:-1]), axis=1)]
    assert_close_weights(w, _gram_spectrum(G))
    assert_close_weights(mu, np.concatenate([s / (n_i - 1) for n_i, s in zip(est.n, spectra)]))
    assert np.array_equal(df, np.concatenate([np.full(len(s), n_i - 1.0) for n_i, s in zip(est.n, spectra)]))
    assert len(w) == len(mu) == 78 and set(df) == {39.0}
    assert Bbt * len(w) > 1 << 22 and Bbt * len(mu) > 1 << 22
    new = bootstrap_reference(spec, est, Bbt, seed=16)
    # the contract: one root stream; chi-square(1) numerator rows drawn as
    # squared standard normals in blocks of 2**22 // len(w) over all B,
    # then chi-square(df) denominator rows in blocks of 2**22 // len(mu)
    rng = np.random.default_rng(np.random.SeedSequence(16))

    def weighted(weights, draw):
        step = (1 << 22) // len(weights)
        return np.concatenate([
            draw((min(step, Bbt - lo), len(weights))) @ weights
            for lo in range(0, Bbt, step)
        ])

    num = weighted(w, lambda size: rng.standard_normal(size) ** 2)
    expect = num / weighted(mu, lambda size: rng.chisquare(df, size=size))
    assert new.tobytes() == expect.tobytes()


class _SpyRng:
    """A generator that records the df of every chi-square call."""

    def __init__(self, seed):
        self.rng, self.df = np.random.default_rng(np.random.SeedSequence(seed)), []

    def standard_normal(self, size):
        return self.rng.standard_normal(size)

    def chisquare(self, df, size):
        self.df.append(df)
        return self.rng.chisquare(df, size=size)


@pytest.mark.parametrize("n", [(40, 40), (30, 45)], ids=["equal", "unequal"])
def test_bt_denominator_takes_a_scalar_df_for_equal_groups(n):
    # equal n_i give every denominator weight one df, which the kernel
    # passes to numpy as a scalar; numpy fills the same variates from the
    # scalar as from the array, so both draw the bytes of the array-df
    # stream contract, and unequal n_i keep the array
    est = pool_estimates(sample_of(505, 12, n), include_correlation=False)
    spec = predefined_hypothesis("equal", COVARIANCE, 2, 12)
    w, mu, df = _law(_contrast(spec, est), "BT")
    Bbt = 3000
    spy = _SpyRng(16)
    _weighted_chisquare(spy, Bbt, w)  # the numerators come first in the stream
    den = _weighted_chisquare(spy, Bbt, mu, df)
    if len(set(n)) == 1:
        assert [np.ndim(x) for x in spy.df] == [0] and spy.df[0] == n[0] - 1
    else:
        assert all(x is df for x in spy.df) and set(df) == {n_i - 1.0 for n_i in n}
    # the contract: the numerators over all B, then the denominators, in
    # blocks of 2**22 // len(mu) rows, each drawn with the df array
    rng = np.random.default_rng(np.random.SeedSequence(16))
    num = rng.standard_normal((Bbt, len(w))) ** 2 @ w
    assert Bbt * len(mu) < 1 << 22
    expect = rng.chisquare(df, size=(Bbt, len(mu))) @ mu
    assert den.tobytes() == expect.tobytes()
    assert bootstrap_reference(spec, est, Bbt, seed=16).tobytes() == (num / expect).tobytes()


def combined_block_boundary_case():
    # d = 24 stacks 24 variances on 276 correlations, P = 300, so blocks
    # of 2**18 // 300 = 873 rows and B = 1000 spans two; groups of 40 and
    # 50 give the two normal vectors different lengths
    est = pool_estimates(sample_of(606, 24, (40, 50)))
    diag = vech_diag_positions(24)
    K = [
        sign * np.sqrt(est.N / n_i) * np.vstack([F[diag], U])
        for sign, n_i, F, U in zip((1.0, -1.0), est.n, est.Sigma_factor, est.Upsilon_factor)
    ]
    return est, K


def test_combined_stream_is_pinned_across_a_block_boundary():
    est, K = combined_block_boundary_case()
    Bc = 1000
    draws = simulate_reference(est, Bc, seed=17)
    P = draws.shape[1]
    step = (1 << 18) // P
    assert P == 300 and step == 873 < Bc
    # the draws are stored component-major, so each component's B draws
    # are contiguous for the sort along the repetitions
    assert draws.T.flags.c_contiguous
    G = np.hstack(K)
    # the contract: one root stream; each block of rows is one C-order
    # draw z of standard normals, one row per repetition, giving G z^T
    rng = np.random.default_rng(np.random.SeedSequence(17))
    blocks = []
    for lo in range(0, Bc, step):
        z = rng.standard_normal((min(step, Bc - lo), G.shape[1]))
        blocks.append((z, G @ z.T))
    expect = np.hstack([GzT for _, GzT in blocks])
    assert draws.T.tobytes() == expect.tobytes()
    # the same variates through the per-group form Z_0 K_0^T + Z_1 K_1^T
    # agree up to rounding
    m0 = K[0].shape[1]
    old = np.vstack([z[:, :m0] @ K[0].T + z[:, m0:] @ K[1].T for z, _ in blocks])
    assert np.abs(draws - old).max() <= 1e-12 * np.abs(draws).max()


def test_combined_stream_does_not_depend_on_the_block_size(monkeypatch):
    # numpy fills the normals in C order, so one block of all B rows draws
    # the variates that two blocks of 873 and 127 rows draw
    est, K = combined_block_boundary_case()
    Bc = 1000
    two = simulate_reference(est, Bc, seed=17)
    monkeypatch.setattr(combined, "_FACTOR_CHUNK_ELEMENTS", 300 * Bc)
    one = simulate_reference(est, Bc, seed=17)
    # BLAS may round blocks of other sizes apart in the last bit only
    assert np.abs(one - two).max() <= 1e-14 * np.abs(two).max()
    G = np.hstack(K)
    z = np.random.default_rng(np.random.SeedSequence(17)).standard_normal((Bc, G.shape[1]))
    assert one.T.tobytes() == (G @ z.T).tobytes()


def eigh_estimates(sample, est):
    """``est`` with each group's F taken from the eigenvectors of its
    fourth-moment Gram, as the factor was before it became a Cholesky
    factor, and U = M F with the dense Jacobian M."""
    factors, upsilon = [], []
    for X, v in zip(sample.groups, est.vhat):
        n = X.shape[1]
        Xc = X - X.mean(axis=1, keepdims=True)
        rows, cols = np.triu_indices(X.shape[0])
        W = Xc[rows] * Xc[cols]
        W -= W.mean(axis=1, keepdims=True)
        w, Q = np.linalg.eigh(W @ W.T / (n - 1))
        F = Q[:, w > 0.0] * np.sqrt(w[w > 0.0])
        factors.append(F)
        upsilon.append(correlation_jacobian(v) @ F)
    return MomentEstimates(d=est.d, n=est.n, vhat=est.vhat, Sigma_factor=tuple(factors),
                           rhat=est.rhat, Upsilon_factor=tuple(upsilon))


@pytest.mark.parametrize("d, n", [
    (3, (30, 45)),
    (6, (60, 80)),
    (6, (30, 40, 50)),
    (12, (200, 200)),
], ids=["d3", "d6", "d6-three-groups", "d12-bt-shape"])
def test_cholesky_factor_keeps_the_law_of_the_eigh_factor(d, n):
    # with n_i > p each F_i is the Cholesky factor of the fourth-moment
    # Gram; the laws read only spectra of products of the F_i, so they
    # equal those built from the eigenvector factor it replaced
    sample = sample_of(909 + d, d, n)
    est = pool_estimates(sample)
    assert min(n) > full_length(d)
    assert all(np.array_equal(F, np.tril(F)) for F in est.Sigma_factor)
    old = eigh_estimates(sample, est)
    for target, name in ((COVARIANCE, "equal"), (CORRELATION, "equal-correlated")):
        spec = predefined_hypothesis(name, target, len(n), d)
        new_c, old_c = _contrast(spec, est), _contrast(spec, old)
        assert new_c.trace == pytest.approx(old_c.trace, rel=1e-12, abs=0.0)
        # MC's weights are TAY's
        assert_close_weights(_law(new_c, "MC")[0], _law(old_c, "MC")[0])
        (w, mu, df), (w_old, mu_old, df_old) = _law(new_c, "BT"), _law(old_c, "BT")
        assert_close_weights(w, w_old)
        assert_close_weights(mu, mu_old)
        assert np.array_equal(df, df_old)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("method, shape, Bref", [
    ("MC", (2, 6, 60), 2000),
    ("TAY", (2, 6, 60), 2000),
    ("BT", (2, 6, 60), 2000),
    ("BT", (2, 12, 200), 500),
    ("MC", (3, 40, 100), 1000),
], ids=["MC-sim_small", "TAY-sim_small", "BT-sim_small", "BT-d12", "MC-d40"])
def test_pvalues_match_the_exact_tail(method, shape, Bref, seed):
    # the benchmark's correctness gate: the statistic to 1e-9 relative, the
    # echoed fields, and the p-value on the 1/B grid within 5 sigma + 1/B
    # of the Imhof tail of the engine's law, on the benchmark's null samples
    sample = workloads.null_sample(np.random.default_rng(seed), shape)
    a, d, _ = shape
    target = CORRELATION if method == "TAY" else COVARIANCE
    name = "equal-correlated" if method == "TAY" else "equal"
    spec = predefined_hypothesis(name, target, a, d)
    report = run_test(GroupedSample(sample.groups), spec, method=method, repetitions=Bref, seed=seed)
    expect = sample.correlation if method == "TAY" else sample.covariance
    assert oracle.check_test(report, expect, method, Bref, seed) == []
