"""The factored statistic against a dense oracle, and what the engines build.

The engines never form the pooled a*p x a*p covariance: they work on the
contrasted factor G = [sqrt(N/n_i) E_i F_i] with G G^T = E Sigma_pooled E^T.
Nor do they form a multi-group contrast C = A kron B: E_i F_i is column i
of A kron (B F_i), and the laws come from the per-group products B F_i
without G, off an r*q square matrix for A of rank r where the products
have at least r*q columns in all, else off G^T G assembled per group.  Here
the statistic, its covariance H and the MC and BT weights are checked
against H built densely inside the test from the dense C,
``group_fourth_moment_cov`` and ``scipy.linalg.block_diag``, for groups
narrower and wider than p, and the laws read without G against those of
G.  A guard checks that the test entry points leave the dense matrices
unbuilt and never take an eigendecomposition wider than the sample when
n_i <= p.
"""

import dataclasses
import io
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
import scipy.linalg

import covartest.cli as cli
from covartest.combined import combined_test
from covartest.engine import (
    _Contrast,
    _contrast,
    _gram_spectrum,
    _law,
    ats,
    run_test,
    statistic_covariance,
    taylor_reference,
)
from covartest.estimation import (
    GroupedSample,
    MomentEstimates,
    pool_estimates,
)
from covartest.hypotheses import (
    CORRELATION,
    COVARIANCE,
    PREDEFINED,
    STRUCTURES,
    HypothesisSpec,
    custom_hypothesis,
    predefined_hypothesis,
    structure_hypothesis,
)
from covartest.linalg import full_length, strict_length
from conftest import gaussian_sample, make_spd
from reference_loops import correlation_jacobian, group_fourth_moment_cov

REL = 1e-10


def sample_of(seed, d, n):
    rng = np.random.default_rng(seed)
    V = make_spd(rng, d)
    return GroupedSample(tuple(gaussian_sample(rng, V, n_i) for n_i in n))


def dense_oracle(spec, sample):
    """Statistic, H = E block_diag(N/n_i Sigma_i) E^T and its per-group
    terms N/n_i E_i Sigma_i E_i^T, built densely."""
    groups, N = sample.groups, sample.N
    S = [group_fourth_moment_cov(X) for X in groups]
    est = pool_estimates(sample, include_correlation=spec.target == CORRELATION)
    if spec.target == COVARIANCE:
        theta = est.vhat_pooled
    else:
        theta = est.rhat_pooled
        M = [correlation_jacobian(v) for v in est.vhat]
        S = [M_i @ S_i @ M_i.T for M_i, S_i in zip(M, S)]
    pooled = scipy.linalg.block_diag(*[(N / X.shape[1]) * S_i for X, S_i in zip(groups, S)])
    if spec.transform is None:
        u, E = spec.C @ theta - spec.zeta, spec.C
    else:
        u = spec.C @ spec.transform(theta)[0] - spec.zeta
        E = spec.C @ spec.transform(theta)[1]
    H = E @ pooled @ E.T
    q = spec.base_dim
    E_i = [E[:, i * q:(i + 1) * q] for i in range(sample.a)]
    terms = [(N / X.shape[1]) * B @ S_i @ B.T for X, B, S_i in zip(groups, E_i, S)]
    return N * float(u @ u) / np.trace(H), H, terms


CASES = [
    (COVARIANCE, "equal", 4, (6, 8)),  # p = 10: both groups narrower
    (COVARIANCE, "equal", 3, (30, 40)),  # p = 6: both wider
    (COVARIANCE, "equal", 4, (6, 40)),  # one of each
    (CORRELATION, "equal-correlated", 4, (5, 7)),
    (CORRELATION, "equal-correlated", 5, (8, 50)),
    (CORRELATION, "hautoregressive", 5, (9,)),  # carries a transform
    (CORRELATION, "hautoregressive", 4, (80,)),
    # three groups, contrasts kept as Kronecker factors
    (COVARIANCE, "equal", 4, (6, 8, 7)),
    (COVARIANCE, "equal", 3, (30, 40, 35)),
    (CORRELATION, "equal-correlated", 4, (5, 6, 4)),  # p = 6
    (CORRELATION, "equal-correlated", 4, (30, 9, 40)),
    (COVARIANCE, "equal-trace", 4, (6, 8, 7)),
    (COVARIANCE, "equal-trace", 3, (30, 40, 35)),
    (COVARIANCE, "equal-diagonals", 4, (6, 8, 7)),
    (COVARIANCE, "equal-diagonals", 3, (30, 40, 35)),
]
IDS = ["cov-narrow", "cov-wide", "cov-mixed", "corr-narrow", "corr-mixed",
       "har-narrow", "har-wide", "cov3-narrow", "cov3-wide", "corr3-narrow",
       "corr3-mixed", "trace3-narrow", "trace3-wide", "diag3-narrow", "diag3-wide"]


def spec_for(target, name, d, a):
    if name == "hautoregressive":
        return structure_hypothesis(name, target, d)
    return predefined_hypothesis(name, target, a, d)


@pytest.mark.parametrize("target, name, d, n", CASES, ids=IDS)
def test_factored_statistic_matches_dense_oracle(target, name, d, n):
    sample = sample_of(31 * d + sum(n), d, n)
    spec = spec_for(target, name, d, len(n))
    stat, H, terms = dense_oracle(spec, sample)
    est = pool_estimates(sample, include_correlation=target == CORRELATION)
    scale = np.abs(H).max()

    assert abs(ats(spec, est) - stat) <= REL * stat
    H_pkg = statistic_covariance(spec, est)
    assert np.abs(H_pkg - H).max() <= REL * scale
    assert np.array_equal(H_pkg, H_pkg.T)  # G @ G.T is exactly symmetric

    # MC weights: the nonzero eigenvalues of H over its trace; whatever the
    # Gram spectrum leaves out carries no trace
    c = _contrast(spec, est)
    lam, no_mu, no_df = _law(c, "MC")
    assert no_mu is None and no_df is None
    dense = np.linalg.eigvalsh(H) / np.trace(H)
    assert len(lam) <= min(spec.m, sum(n))
    assert_nonzero_spectrum(lam, dense)

    # BT: numerator weights the nonzero eigenvalues of H; the denominator
    # weights of group i, at df n_i - 1, those of its term over n_i - 1
    w, mu, df = _law(c, "BT")
    assert_nonzero_spectrum(w, np.linalg.eigvalsh(H))
    assert len(mu) == len(df) and len(set(n)) == len(n)  # df tells the groups apart
    for n_i, term in zip(n, terms):
        assert_nonzero_spectrum(mu[df == n_i - 1], np.linalg.eigvalsh(term) / (n_i - 1))


def assert_nonzero_spectrum(weights, dense):
    """``weights`` are the nonzero eigenvalues ``dense`` lists in ascending
    order, and the ones it leaves out sum to nothing, all to REL."""
    assert 0 < len(weights) <= len(dense)
    assert np.abs(weights - dense[-len(weights):]).max() <= REL * dense[-1]
    assert abs(dense[:-len(weights)].sum()) <= REL * dense.sum()


@pytest.mark.parametrize("target, name", [
    (COVARIANCE, "equal"),
    (CORRELATION, "equal-correlated"),
    (COVARIANCE, "equal-diagonals"),
    (COVARIANCE, "uncorrelated"),
    (COVARIANCE, "custom"),
    (CORRELATION, "custom"),
    (COVARIANCE, "ar"),
])
def test_factored_contrast_keeps_the_dense_bytes(target, name):
    # each entry of E_i F_i is one product of an entry of A and one of
    # F_i (a selected row of it, for equal-diagonals), so the factored G
    # must equal the dense product bit for bit, signed zeros included;
    # dense and transformed specs keep the bytes of their own product;
    # G is formed anew on each call, with the same bytes
    a = {"uncorrelated": 1, "ar": 1, "custom": 3}.get(name, 4)
    sample = sample_of(77, 4, (6, 9, 30, 7)[:a])
    if name == "custom":
        q = full_length(4) if target == COVARIANCE else strict_length(4)
        C = np.random.default_rng(12).standard_normal((3, a * q))
        spec = custom_hypothesis(C, np.zeros(3), target, a, 4)
    elif name == "ar":
        spec = structure_hypothesis(name, target, 4)
    else:
        spec = predefined_hypothesis(name, target, a, 4)
    est = pool_estimates(sample, include_correlation=target == CORRELATION)
    c = _contrast(spec, est)
    factors = est.Sigma_factor if target == COVARIANCE else est.Upsilon_factor
    theta = est.vhat_pooled if target == COVARIANCE else est.rhat_pooled
    E = spec.C if spec.transform is None else spec.C @ spec.transform(theta)[1]
    q = spec.base_dim
    dense = np.hstack([
        np.sqrt(est.N / n_i) * (E[:, i * q:(i + 1) * q] @ F)
        for i, (n_i, F) in enumerate(zip(est.n, factors))
    ])
    G = c.G()
    assert G.shape == dense.shape
    assert G.tobytes() == dense.tobytes()
    assert len(c.P) == a
    again = c.G()
    assert not np.shares_memory(again, G) and again.tobytes() == G.tobytes()


LAW_CASES = [
    # (target, name, a, n, path): with r = rank(A) and q rows per P_i,
    # "G" where the P_i have at least r*q columns in all, so the law is G
    # G^T's spectrum read off the r*q square M = sum_i R_i R_i^T kron P_i
    # P_i^T, "Q" otherwise, where it comes from G^T G assembled per group
    (COVARIANCE, "equal", 3, (6, 8, 7), "G"),
    (COVARIANCE, "equal", 3, (30, 40, 35), "G"),
    (COVARIANCE, "equal-diagonals", 3, (3, 2, 2), "Q"),
    (COVARIANCE, "equal-diagonals", 3, (30, 40, 35), "G"),
    (COVARIANCE, "equal-trace", 3, (6, 8, 7), "G"),
    (CORRELATION, "equal-correlated", 3, (3, 4, 3), "Q"),
    (CORRELATION, "equal-correlated", 3, (30, 9, 40), "G"),
    # dense C, one row of ones across the groups
    (COVARIANCE, "given-matrix", 1, (6,), "Q"),
    (COVARIANCE, "given-matrix", 1, (30,), "G"),
    (COVARIANCE, "uncorrelated", 1, (4,), "Q"),
    (CORRELATION, "equal-correlated", 1, (4,), "Q"),
    (CORRELATION, "equal-correlated", 1, (30,), "G"),
    # dense C linearized by the transform's Jacobian
    (CORRELATION, "hautoregressive", 1, (4,), "Q"),
    (CORRELATION, "hautoregressive", 1, (30,), "G"),
]


@pytest.fixture
def eig_shapes(monkeypatch):
    """Shapes of the symmetric eigenvalue problems solved."""
    shapes = []
    original = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return shapes


def check_law_against_G(c, n, path, eig_shapes, monkeypatch):
    """MC's and BT's laws read off ``c``'s per-group Grams on ``path``, G
    formed on neither side, against the laws of the formed G and its
    per-group columns; returns the shape of the largest eigenproblem the
    laws solved."""
    q, r = len(c.u) // len(c.A), np.linalg.matrix_rank(c.A)
    widths = [P_i.shape[1] for P_i in c.P]
    k = sum(widths)
    assert (k >= r * q) == (path == "G")

    def no_G(self):
        raise AssertionError("the law formed G")

    with monkeypatch.context() as m:
        m.setattr(_Contrast, "G", no_G)
        mc, bt = _law(c, "MC"), _law(c, "BT")
    # the law's eigenproblem is the smaller of M (r*q) and G^T G (k) square;
    # BT's per-group weights take P_i's smaller Gram
    solved = max(eig_shapes)
    assert solved == (min(r * q, k),) * 2
    # the same law read off the formed G and its per-group columns
    G = c.G()
    assert abs(c.trace - np.vdot(G, G)) <= 1e-14 * c.trace
    w = _gram_spectrum(G)
    blocks = np.split(G, np.cumsum(widths[:-1]), axis=1)
    mu = np.concatenate([_gram_spectrum(G_i) / (n_i - 1) for n_i, G_i in zip(n, blocks)])
    for got, expect in ((mc[0], w / np.vdot(G, G)), (bt[0], w), (bt[1], mu)):
        assert len(got) == len(expect)
        assert np.abs(got - expect).max() <= 1e-12 * expect.max()
    return solved


@pytest.mark.parametrize("target, name, a, n, path", LAW_CASES,
                         ids=[f"{c[1]}-{c[2]}-{c[4]}-{'-'.join(map(str, c[3]))}" for c in LAW_CASES])
def test_block_law_matches_the_law_of_G(target, name, a, n, path, eig_shapes, monkeypatch):
    # d = 4: p = 10 covariance and 6 correlation coordinates per group
    extra = np.eye(4) if name == "given-matrix" else None
    spec = (predefined_hypothesis(name, target, a, 4, extra) if name != "hautoregressive"
            else structure_hypothesis(name, target, 4))
    est = pool_estimates(sample_of(404 + sum(n), 4, n), include_correlation=target == CORRELATION)
    check_law_against_G(_contrast(spec, est), n, path, eig_shapes, monkeypatch)


@pytest.mark.parametrize("d, n", [
    (4, (30, 40)),
    (4, (12, 15, 11)),
    (4, (6, 5)),  # 11 columns: under rows(A) q = 20, at least r q = 10
    (12, (200, 200)),  # the benchmark's BT shape
], ids=["a2-wide", "a3-wide", "a2-narrow", "bt-d12"])
def test_law_reads_the_rank_of_A(d, n, eig_shapes, monkeypatch):
    # equal's centering A has a rows and rank a - 1, so the row side is
    # (a - 1) q square where G G^T would be a q
    spec = predefined_hypothesis("equal", COVARIANCE, len(n), d)
    c = _contrast(spec, pool_estimates(sample_of(d + sum(n), d, n), include_correlation=False))
    q = full_length(d)
    assert np.linalg.matrix_rank(c.A) == len(c.A) - 1 and len(c.u) == len(n) * q
    assert check_law_against_G(c, n, "G", eig_shapes, monkeypatch) == ((len(n) - 1) * q,) * 2


def test_gram_path_runs_in_less_memory_than_G():
    # d = 100, three groups of 100: G would be 15150 x 300 doubles, 36 MB;
    # the law comes from the 300 x 300 Gram of the per-group factors
    sample = sample_of(100, 100, (100, 100, 100))
    spec = predefined_hypothesis("equal", COVARIANCE, 3, 100)
    tracemalloc.start()
    try:
        report = run_test(sample, spec, method="MC", repetitions=1000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.statistic)
    assert peak < 15150 * 300 * 8, peak / 2**20


def no_C(spec):
    raise AssertionError("a spec's C was read")


class TestFactoredSpec:
    """A spec given its Kronecker factors checks them as it checks C."""

    def spec(self, A, B, zeta=None):
        q = 6  # covariance, d = 3
        m = len(A) * (q if B is None else len(B))
        return HypothesisSpec(target=COVARIANCE, dense=None, zeta=np.zeros(m) if zeta is None else zeta,
                              label="factored", a=A.shape[1], d=3, factors=(A, B))

    def test_m_without_building_C(self, monkeypatch):
        A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        for B, m in ((None, 12), (np.ones((1, 6)), 2)):
            spec = self.spec(A, B)
            with monkeypatch.context() as patched:
                patched.setattr(HypothesisSpec, "C", property(no_C))
                assert spec.m == m
                # repr leaves C out, and specs compare by identity
                assert "C=" not in repr(spec)
                assert spec == spec and spec != self.spec(A, B)
            assert spec.C.shape == (m, 18)

    def test_C_follows_in_place_changes_to_the_factors(self):
        # equal-diagonals, a = 3, d = 3: A the successive group differences,
        # B the rows picking each diagonal entry of a half-vector
        spec = predefined_hypothesis("equal-diagonals", COVARIANCE, 3, 3)
        est = pool_estimates(sample_of(31, 3, (20, 25, 30)), include_correlation=False)
        before = spec.C
        A, B = spec.factors
        A[0] *= 2.0
        B[0] *= 3.0
        assert not np.array_equal(spec.C, before)
        assert np.array_equal(spec.C, np.kron(A, B))
        assert "C" not in vars(spec)
        u = _contrast(spec, est).u
        assert np.abs(spec.C @ est.vhat_pooled - spec.zeta - u).max() <= 1e-14 * np.abs(u).max()

    def test_replace_and_asdict_build_no_C(self, monkeypatch):
        monkeypatch.setattr(HypothesisSpec, "C", property(no_C))
        spec = predefined_hypothesis("equal", COVARIANCE, 3, 4)
        again = dataclasses.replace(spec, label="x")
        assert again.label == "x" and again.factors[0] is spec.factors[0]
        dataclasses.asdict(spec)
        sample = sample_of(6, 4, (20, 25, 30))
        first, second = (run_test(sample, s, repetitions=500, seed=1).statistic for s in (spec, again))
        assert first == second

    def test_zeta_none_means_zeros(self):
        a_for = {"one": (1,), "several": (3,), "any": (1, 3)}
        specs = [
            predefined_hypothesis(name, target, a, 4)
            for target, table in PREDEFINED.items()
            for name, groups in table.items() if not name.startswith("given-")
            for a in a_for[groups]
        ]
        specs += [structure_hypothesis(name, target, 4)
                  for target, table in STRUCTURES.items() for name in table]
        specs.append(custom_hypothesis(np.ones((2, 6)), None, COVARIANCE, 1, 3))
        for spec in specs:
            assert spec.zeta.dtype == float
            assert np.array_equal(spec.zeta, np.zeros(spec.C.shape[0])), spec.label

    def test_validation_messages(self):
        A = np.array([[1.0, -1.0]])
        with pytest.raises(ValueError, match="C and zeta must be finite"):
            self.spec(np.array([[1.0, np.nan]]), None)
        with pytest.raises(ValueError, match="C and zeta must be finite"):
            self.spec(A, np.array([[1.0, 0, 0, np.inf, 0, 0]]))
        with pytest.raises(ValueError, match="C contains an all-zero row"):
            self.spec(np.array([[1.0, -1.0], [0.0, 0.0]]), None)
        with pytest.raises(ValueError, match="C contains an all-zero row"):
            self.spec(A, np.array([[1.0, 0, 0, 0, 0, 0], [0.0] * 6]))
        with pytest.raises(ValueError, match="zeta has length 5 but C has 6 rows"):
            self.spec(A, None, zeta=np.zeros(5))
        with pytest.raises(ValueError, match="C has 10 columns but the covariance target with a=2, d=3 needs 12"):
            self.spec(A, np.ones((1, 5)))
        with pytest.raises(ValueError, match="C must be a two-dimensional matrix"):
            self.spec(A, np.ones(6))
        # cols(A) cols(B) = 12 = a q, split wrongly between the factors
        for A_bad, B_bad in ((np.ones((1, 1)), np.ones((2, 12))), (np.ones((1, 4)), np.ones((2, 3)))):
            with pytest.raises(ValueError, match=f"factor A has {A_bad.shape[1]} columns but a=2 needs 2"):
                HypothesisSpec(target=COVARIANCE, dense=None, zeta=np.zeros(2), label="split",
                               a=2, d=3, factors=(A_bad, B_bad))
        with pytest.raises(ValueError, match="factors replace C and take no transform"):
            HypothesisSpec(target=COVARIANCE, dense=np.ones((6, 12)), zeta=np.zeros(6), label="both",
                           a=2, d=3, factors=(A, None))


@pytest.mark.parametrize("d, n", [(4, 6), (3, 30)], ids=["narrow", "wide"])
def test_fourth_moment_factor_is_exact_and_narrow(d, n):
    X = sample_of(d + n, d, (n,)).groups[0]
    F = pool_estimates(GroupedSample((X,)), include_correlation=False).Sigma_factor[0]
    S = group_fourth_moment_cov(X)
    p = full_length(d)
    assert F.shape[0] == p and F.shape[1] <= min(n, p)
    assert np.abs(F @ F.T - S).max() <= REL * np.abs(S).max()


def test_taylor_reference_rejects_zero_trace(rng):
    # two observations per group: the fourth-moment covariances are
    # rounding residue, which the relative zero-trace rule catches
    sample = GroupedSample((rng.standard_normal((3, 2)), rng.standard_normal((3, 2))))
    spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
    est = pool_estimates(sample)
    with pytest.raises(ValueError, match="zero trace"):
        taylor_reference(spec, est, B=500, seed=1)


# ------------------------------------------------------------------ guard

DENSE = ("Sigma_pooled", "Upsilon_pooled")


@pytest.fixture
def watched(monkeypatch):
    """Names of dense matrices built (a read of a spec's C among them) and
    shapes of eigenproblems solved."""
    seen = {"built": [], "eig": []}
    for name in DENSE:
        lazy = MomentEstimates.__dict__[name]

        def get(self, lazy=lazy, name=name):
            seen["built"].append(name)
            return lazy.__get__(self, MomentEstimates)

        monkeypatch.setattr(MomentEstimates, name, property(get))
    C = HypothesisSpec.C

    def read_C(self):
        seen["built"].append("C")
        return C.__get__(self, HypothesisSpec)

    monkeypatch.setattr(HypothesisSpec, "C", property(read_C))
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def eig(a, *args, original=original, **kwargs):
            seen["eig"].append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, eig)
    return seen


def test_entry_points_build_no_dense_matrix(watched, tmp_path, monkeypatch):
    # d = 10 (p = 55, 45 correlation coordinates) and three groups of 12:
    # every factor is the 12-column outer-product matrix, so no
    # eigenproblem may be wider than the 36 observations; no Kronecker
    # contrast may be built either, so no spec's C is read
    sample = sample_of(909, 10, (12, 12, 12))
    specs = []
    for target, name, methods in (
        (COVARIANCE, "equal", ("MC", "BT")),
        (COVARIANCE, "equal-trace", ("MC", "BT")),
        (COVARIANCE, "equal-diagonals", ("MC", "BT")),
        (CORRELATION, "equal-correlated", ("MC", "BT", "TAY")),
    ):
        spec = predefined_hypothesis(name, target, 3, 10)
        specs.append(spec)
        for method in methods:
            run_test(sample, spec, method=method, repetitions=500, seed=4)
    combined_test(GroupedSample(sample.groups[:2]), repetitions=500, seed=5)

    def recorded(*args, **kwargs):
        specs.append(predefined_hypothesis(*args, **kwargs))
        return specs[-1]

    monkeypatch.setattr(cli, "predefined_hypothesis", recorded)

    path = tmp_path / "narrow.csv"
    rows = np.hstack(sample.groups).T
    labels = np.repeat(["a", "b", "c"], 12)
    path.write_text("".join(
        [",".join(f"x{j}" for j in range(10)) + ",g\n"]
        + [",".join(repr(float(v)) for v in row) + f",{lab}\n" for row, lab in zip(rows, labels)]
    ))
    for argv in (
        ["--target", "covariance", "--hypothesis", "equal", "--output", "json"],
        ["--target", "covariance", "--hypothesis", "equal"],
        ["--target", "covariance", "--hypothesis", "equal-diagonals", "--method", "BT"],
        ["--target", "correlation", "--hypothesis", "equal-correlated", "--method", "TAY"],
    ):
        with redirect_stdout(io.StringIO()):
            code = cli.main(["--data", str(path), "--group-column", "g",
                             "--repetitions", "500", "--seed", "6", *argv])
        assert code == 0

    assert watched["built"] == []
    assert len(specs) == 8 and all(spec.factors is not None for spec in specs)
    assert watched["eig"], "the engines solved no eigenproblem at all"
    assert all(len(s) == 2 and s[0] == s[1] <= 36 for s in watched["eig"]), watched["eig"]


def test_many_groups_of_high_dimension_run_in_little_memory():
    # d = 100, three groups: the dense equality contrast would be
    # 15150 x 15150 doubles, 1.8 GB; G is 15150 x 120
    sample = sample_of(100, 100, (40, 40, 40))
    tracemalloc.start()
    try:
        spec = predefined_hypothesis("equal", COVARIANCE, 3, 100)
        report = run_test(sample, spec, method="MC", repetitions=500, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.m == 15150 and np.isfinite(report.statistic)
    assert peak < 200 * 2**20, peak / 2**20
