import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covartest.combined import combined_test, simulate_reference
from covartest.engine import run_test
from covartest.estimation import GroupedSample, MomentEstimates, _jacobian_terms, pool_estimates
from covartest.hypotheses import CORRELATION, COVARIANCE, predefined_hypothesis
from covartest.linalg import full_length, strict_length, vech, vech_diag_positions, vech_strict
from conftest import gaussian_sample, make_spd
from reference_loops import (
    correlation_jacobian,
    dense_sigma,
    dense_upsilon,
    group_fourth_moment_cov,
    unvech,
)


# ---------------------------------------------------------------- oracles

def oracle_cov(X):
    # textbook two-pass covariance with explicit loops, divisor n - 1
    d, n = X.shape
    mean = [sum(X[j]) / n for j in range(d)]
    S = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            acc = 0.0
            for t in range(n):
                acc += (X[j, t] - mean[j]) * (X[k, t] - mean[k])
            S[j, k] = acc / (n - 1)
    return S


def oracle_fourth_moment(X):
    # literal evaluation: center, subtract the mean outer product, take the
    # half-vector of each residual matrix, average the outer products
    d, n = X.shape
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    p = len(pairs)
    mean = X.sum(axis=1) / n
    Xc = X - mean[:, None]
    A = np.zeros((d, d))
    for t in range(n):
        for j in range(d):
            for k in range(d):
                A[j, k] += Xc[j, t] * Xc[k, t] / n
    Sigma = np.zeros((p, p))
    for t in range(n):
        y = [Xc[j, t] * Xc[k, t] - A[j, k] for (j, k) in pairs]
        for s in range(p):
            for u in range(p):
                Sigma[s, u] += y[s] * y[u] / (n - 1)
    return Sigma


def oracle_pearson(X):
    d, n = X.shape
    R = np.eye(d)
    for j in range(d):
        for k in range(j + 1, d):
            xj = X[j] - X[j].mean()
            xk = X[k] - X[k].mean()
            r = (xj @ xk) / np.sqrt((xj @ xj) * (xk @ xk))
            R[j, k] = R[k, j] = r
    return R


def corr_map(v):
    # covariance half-vector -> strict correlation half-vector
    V = unvech(v)
    sd = np.sqrt(np.diag(V))
    R = V / np.outer(sd, sd)
    return vech_strict((R + R.T) / 2.0)


def cov_vector(X):
    # one group's covariance half-vector, read through the estimator entry
    return pool_estimates(GroupedSample((X,)), include_correlation=False).vhat[0]


def corr_vector(X):
    return pool_estimates(GroupedSample((X,)), include_correlation=True).rhat[0]


def fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    m = len(f(x))
    J = np.empty((m, len(x)))
    for t in range(len(x)):
        e = np.zeros_like(x)
        e[t] = h
        J[:, t] = (f(x + e) - f(x - e)) / (2.0 * h)
    return J


# ------------------------------------------------------- covariance vector

class TestCovVector:
    def test_two_points(self):
        X = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert_array_equal(cov_vector(X), [2.0, 0.0, 0.0])

    def test_constant_columns_give_zero(self):
        X = np.tile(np.array([[1.0], [3.0]]), (1, 5))
        assert_array_equal(cov_vector(X), np.zeros(3))

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(5, 30))
            X = rng.standard_normal((d, n)) * rng.uniform(0.5, 2.0)
            assert_allclose(cov_vector(X), vech(oracle_cov(X)), atol=1e-12)

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError):
            cov_vector(np.ones((2, 1)))


class TestFourthMomentCov:
    def test_two_observations_give_zero(self, rng):
        X = rng.standard_normal((3, 2))
        assert_allclose(group_fourth_moment_cov(X), np.zeros((6, 6)), atol=1e-12)

    def test_matches_loop_oracle_small(self):
        X = np.array(
            [
                [1.0, 4.0, 2.0, 0.0, 3.0],
                [2.0, 2.0, 5.0, 1.0, 0.0],
            ]
        )
        assert_allclose(group_fourth_moment_cov(X), oracle_fourth_moment(X), atol=1e-12)

    def test_matches_loop_oracle_random(self, rng):
        X = rng.standard_normal((3, 12)) + rng.uniform(-1, 1, size=(3, 1))
        assert_allclose(group_fourth_moment_cov(X), oracle_fourth_moment(X), atol=1e-12)

    def test_symmetric_positive_semidefinite(self, rng):
        X = gaussian_sample(rng, make_spd(rng, 4), 25)
        S = group_fourth_moment_cov(X)
        assert_allclose(S, S.T, atol=1e-12)
        w = np.linalg.eigvalsh(S)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)

    def test_gaussian_limit(self):
        # for normal data the half-vector covariance of the residual outer
        # products converges to V_jl V_km + V_jm V_kl
        rng = np.random.default_rng(11)
        V = np.array(
            [
                [2.0, 0.8, 0.3],
                [0.8, 1.5, -0.4],
                [0.3, -0.4, 1.0],
            ]
        )
        X = gaussian_sample(rng, V, 20000)
        S = group_fourth_moment_cov(X)
        pairs = [(j, k) for j in range(3) for k in range(j, 3)]
        target = np.empty((6, 6))
        for s, (j, k) in enumerate(pairs):
            for u, (l, m) in enumerate(pairs):
                target[s, u] = V[j, l] * V[k, m] + V[j, m] * V[k, l]
        big = np.abs(target) >= 0.2 * np.abs(target).max()
        assert_allclose(S[big], target[big], rtol=0.10)


class TestCorrVector:
    def test_perfect_dependence(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        X = np.vstack([x, 3.0 * x + 1.0, -2.0 * x])
        r = corr_vector(X)
        assert_allclose(r, [1.0, -1.0, -1.0], atol=1e-12)

    def test_matches_pearson_oracle(self, rng):
        X = rng.standard_normal((3, 30)) * np.array([[0.2], [5.0], [1.0]])
        assert_allclose(
            corr_vector(X),
            vech_strict(oracle_pearson(X)),
            atol=1e-12,
        )

    def test_values_in_unit_interval(self, rng):
        X = gaussian_sample(rng, make_spd(rng, 5), 8)
        r = corr_vector(X)
        assert np.all(np.abs(r) <= 1.0)

    def test_rejects_zero_variance(self):
        X = np.vstack([np.ones(6), np.arange(6.0)])
        with pytest.raises(ValueError, match="variance"):
            corr_vector(X)


class TestCorrelationJacobian:
    # the dense reference Jacobian of reference_loops, which the package's
    # correlation-scale factors are checked against below

    def test_identity_covariance(self):
        M = correlation_jacobian(np.array([1.0, 0.0, 1.0]))
        assert_array_equal(M, [[0.0, 1.0, 0.0]])

    def test_hand_derived_entries(self):
        # d = 2, v = (4, 2, 1): r = v12 / sqrt(v11 v22)
        # dr/dv11 = -r / (2 v11) = -1/8, dr/dv12 = 1/2, dr/dv22 = -1/2
        M = correlation_jacobian(np.array([4.0, 2.0, 1.0]))
        assert_allclose(M, [[-0.125, 0.5, -0.5]], atol=1e-15)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_finite_differences(self, rng, d):
        for _ in range(20):
            v = vech(make_spd(rng, d))
            M = correlation_jacobian(v)
            J = fd_jacobian(corr_map, v)
            scale = max(1.0, np.abs(J).max())
            assert np.abs(M - J).max() <= 1e-5 * scale

    def test_rejects_nonpositive_variance(self):
        v = np.array([1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="variance"):
            correlation_jacobian(v)

    def test_row_count(self, rng):
        v = vech(make_spd(rng, 4))
        assert correlation_jacobian(v).shape == (6, 10)


class TestUpsilon:
    def test_sandwich_formula_scalar(self, rng):
        v = vech(make_spd(rng, 2))
        S = make_spd(rng, 3)
        M = correlation_jacobian(v)
        L = np.linalg.cholesky(S)
        est = MomentEstimates(d=2, n=(10,), vhat=(v,), Sigma_factor=(L,),
                              Upsilon_factor=(M @ L,))
        U = dense_upsilon(est)[0]
        assert U.shape == (1, 1)
        assert_allclose(U, M @ S @ M.T, atol=1e-12)

    @given(st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_factor_is_dense_jacobian_times_sigma_factor(self, d, seed):
        # one group with n <= p (F is the recentred outer products) and one
        # with n > p (F comes from the eigendecomposition)
        rng = np.random.default_rng(seed)
        p = full_length(d)
        n = (int(rng.integers(2, p + 1)), int(rng.integers(p + 1, 2 * p + 6)))
        V = make_spd(rng, d)
        est = pool_estimates(GroupedSample(tuple(gaussian_sample(rng, V, n_i) for n_i in n)))
        assert est.Sigma_factor[0].shape[1] == n[0]
        for v, F, U in zip(est.vhat, est.Sigma_factor, est.Upsilon_factor):
            M = correlation_jacobian(v)
            expect = M @ F
            assert U.shape == expect.shape
            # each entry sums three products; as |r| nears 1 they cancel, so
            # rounding is bounded by the largest entry of |M| |F|, not of M F
            scale = (np.abs(M) @ np.abs(F)).max()
            assert np.abs(U - expect).max() <= 1e-13 * scale

    @pytest.mark.parametrize("case", ["narrow", "wide", "zeros"])
    def test_factor_keeps_the_bytes_of_the_term_sum(self, case):
        # U is written from one buffer of F's selected rows; it must keep
        # the bytes of 0 + the three terms c * F[cols], summed in order
        rng = np.random.default_rng(41)
        if case == "zeros":
            # orthogonal rows (zero correlations, so -0.0 Jacobian entries)
            # and signed zeros in the data
            X = np.array([[1.0, -1.0, 1.0, -1.0, 0.0, -0.0],
                          [1.0, 1.0, -1.0, -1.0, -0.0, 0.0],
                          [2.0, -2.0, -2.0, 2.0, 1.0, -1.0]])
        else:
            X = gaussian_sample(rng, make_spd(rng, 5), 8 if case == "narrow" else 40)
        est = pool_estimates(GroupedSample((X,)))
        (v,), (F,), (r,), (U,) = est.vhat, est.Sigma_factor, est.rhat, est.Upsilon_factor
        expect = sum(c[:, None] * F[cols]
                     for cols, c in _jacobian_terms(v[vech_diag_positions(len(X))], r))
        assert U.tobytes() == expect.tobytes()


# ------------------------------------------------------------- pooling

class TestGroupedSample:
    def test_properties(self, rng):
        s = GroupedSample((rng.standard_normal((3, 10)), rng.standard_normal((3, 7))))
        assert s.a == 2 and s.d == 3 and s.n == (10, 7) and s.N == 17

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            GroupedSample((rng.standard_normal((3, 5)), rng.standard_normal((2, 5))))

    def test_rejects_tiny_group(self, rng):
        with pytest.raises(ValueError):
            GroupedSample((rng.standard_normal((3, 1)),))

    def test_rejects_nonfinite(self, rng):
        X = rng.standard_normal((2, 5))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            GroupedSample((X,))


class TestPooling:
    def test_single_group_pool_is_plain_estimate(self, rng):
        s = GroupedSample((rng.standard_normal((3, 12)),))
        est = pool_estimates(s)
        # N / n_1 = 1, so pooling changes nothing
        assert_array_equal(est.Sigma_pooled, dense_sigma(est)[0])
        assert_array_equal(est.Upsilon_pooled, dense_upsilon(est)[0])

    def test_two_equal_groups_double_the_blocks(self, rng):
        X = rng.standard_normal((2, 15))
        Y = rng.standard_normal((2, 15))
        est = pool_estimates(GroupedSample((X, Y)))
        assert_allclose(est.Sigma_pooled[:3, :3], 2.0 * dense_sigma(est)[0], atol=1e-12)
        assert_allclose(est.Sigma_pooled[3:, 3:], 2.0 * dense_sigma(est)[1], atol=1e-12)

    def test_off_blocks_exactly_zero(self, rng):
        s = GroupedSample((rng.standard_normal((2, 8)), rng.standard_normal((2, 9))))
        est = pool_estimates(s)
        assert_array_equal(est.Sigma_pooled[:3, 3:], np.zeros((3, 3)))
        assert_array_equal(est.Upsilon_pooled[:1, 1:], np.zeros((1, 1)))

    def test_unbalanced_weights(self, rng):
        s = GroupedSample((rng.standard_normal((2, 10)), rng.standard_normal((2, 30))))
        est = pool_estimates(s)
        assert_allclose(est.Sigma_pooled[:3, :3], 4.0 * dense_sigma(est)[0], atol=1e-12)
        assert_allclose(est.Sigma_pooled[3:, 3:], (4.0 / 3.0) * dense_sigma(est)[1], atol=1e-12)

    def test_correlation_skipped_when_disabled(self, rng):
        s = GroupedSample((rng.standard_normal((3, 10)),))
        est = pool_estimates(s, include_correlation=False)
        assert not est.has_correlation
        assert est.rhat is None and est.Upsilon_pooled is None

    def test_univariate_skips_correlation(self, rng):
        est = pool_estimates(GroupedSample((rng.standard_normal((1, 10)),)))
        assert not est.has_correlation

    def test_constant_variable_ok_without_correlation(self):
        X = np.vstack([np.ones(8), np.arange(8.0)])
        est = pool_estimates(GroupedSample((X,)), include_correlation=False)
        assert est.vhat[0][0] == 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 9))
        shift = rng.uniform(-5, 5, size=(3, 1))
        a = pool_estimates(GroupedSample((X,)))
        b = pool_estimates(GroupedSample((X + shift,)))
        assert_allclose(a.vhat[0], b.vhat[0], atol=1e-10)
        assert_allclose(dense_sigma(a)[0], dense_sigma(b)[0], atol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    def test_correlation_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 9))
        scale = rng.uniform(0.1, 4.0, size=(3, 1))
        a = pool_estimates(GroupedSample((X,)))
        b = pool_estimates(GroupedSample((scale * X,)))
        assert_allclose(a.rhat[0], b.rhat[0], atol=1e-10)

    def test_observation_order_irrelevant(self, rng):
        X = rng.standard_normal((3, 11))
        perm = rng.permutation(11)
        a = pool_estimates(GroupedSample((X,)))
        b = pool_estimates(GroupedSample((X[:, perm],)))
        assert_allclose(a.vhat[0], b.vhat[0], atol=1e-12)
        assert_allclose(dense_sigma(a)[0], dense_sigma(b)[0], atol=1e-12)

    def test_dimensions(self, rng):
        s = GroupedSample((rng.standard_normal((3, 10)), rng.standard_normal((3, 12))))
        est = pool_estimates(s)
        assert full_length(est.d) == 6 and strict_length(est.d) == 3 and est.N == 22
        assert est.Sigma_pooled.shape == (12, 12)
        assert est.Upsilon_pooled.shape == (6, 6)
        assert est.vhat_pooled.shape == (12,)
        assert est.rhat_pooled.shape == (6,)

    def test_factor_keeps_the_fancy_indexed_bytes(self, rng):
        # W is written from row slices of the centred data; F must keep the
        # bytes of the outer products taken by fancy indexing, on a group
        # narrower than p = 21 (F = W / sqrt(n - 1)) and on a wider one
        # (F from the eigenvectors of W W^T / (n - 1))
        groups = (rng.standard_normal((6, 12)), rng.standard_normal((6, 60)))
        est = pool_estimates(GroupedSample(groups), include_correlation=False)
        rows, cols = np.triu_indices(6)
        for X, F in zip(groups, est.Sigma_factor):
            n = X.shape[1]
            Xc = X - X.mean(axis=1, keepdims=True)
            W = Xc[rows] * Xc[cols]
            W -= W.mean(axis=1, keepdims=True)
            if n <= len(rows):
                expect = W / np.sqrt(n - 1)
            else:
                w, Q = np.linalg.eigh(W @ W.T / (n - 1))
                expect = Q[:, w > 0.0] * np.sqrt(w[w > 0.0])
            assert F.shape == expect.shape
            assert F.tobytes() == expect.tobytes()

    def test_half_vectors_are_read_only(self, rng):
        # vech and vech_strict hand out read-only half-vectors
        est = pool_estimates(GroupedSample((rng.standard_normal((3, 10)),)))
        for v in (est.vhat[0], est.rhat[0]):
            with pytest.raises(ValueError):
                v[0] = 5.0

    def test_package_arrays_stored_uncopied(self, rng):
        est = pool_estimates(GroupedSample((rng.standard_normal((3, 10)),)))
        again = MomentEstimates(d=est.d, n=est.n, vhat=est.vhat, Sigma_factor=est.Sigma_factor,
                                rhat=est.rhat, Upsilon_factor=est.Upsilon_factor)
        for name in ("vhat", "Sigma_factor", "rhat", "Upsilon_factor"):
            assert all(x is y for x, y in zip(getattr(est, name), getattr(again, name)))

    def test_correlations_without_their_factor_are_rejected(self, rng):
        # estimates that hold rhat but no correlation-scale factor have no
        # correlation components: every correlation path says so
        V = make_spd(rng, 3)
        sample = GroupedSample(tuple(gaussian_sample(rng, V, n_i) for n_i in (20, 25)))
        est = pool_estimates(sample)
        partial = MomentEstimates(d=est.d, n=est.n, vhat=est.vhat, Sigma_factor=est.Sigma_factor,
                                  rhat=est.rhat)
        assert not partial.has_correlation
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        for method in ("MC", "TAY"):
            with pytest.raises(ValueError, match="lack correlation"):
                run_test(sample, spec, method=method, repetitions=500, seed=1, est=partial)
        with pytest.raises(ValueError, match="lack correlation"):
            simulate_reference(partial, B=500, seed=1)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape, scale, what", [
        # n > p: W @ W.T overflows before eigh, or V itself does
        pytest.param((3, 30, 35), 1e100, ("fourth-moment covariance",) * 3,
                     id="1e+100-fourth-moment covariance"),
        pytest.param((3, 30, 35), 1e155, ("covariance",) * 3, id="1e+155-covariance"),
        # n <= p keeps F = W/sqrt(n - 1) with no Gram matrix to check: the
        # contrasted factors overflow in the trace, v_jj v_kk in the Jacobian
        pytest.param((4, 5, 5), 1e80, ("statistic covariance", "product of variances",
                                        "product of variances"), id="n<=p-1e+80"),
        pytest.param((4, 5, 5), 1e100, ("statistic covariance", "product of variances",
                                         "product of variances"), id="n<=p-1e+100"),
        # positive variances whose products, and the contrasted factors'
        # squares, underflow to zero
        pytest.param((4, 5, 5), 1e-90, ("statistic covariance", "product of variances",
                                         "product of variances"), id="n<=p-1e-90"),
        pytest.param((4, 5, 5), 1e-160, ("statistic covariance", "product of variances",
                                          "product of variances"), id="n<=p-1e-160"),
    ])
    def test_out_of_range_magnitudes_name_the_cause(self, shape, scale, what):
        # what names the quantity that over- or underflows for covariance
        # `equal`, correlation `equal-correlated` and the combined test
        rng = np.random.default_rng(3)
        d, *n = shape
        sample = GroupedSample(tuple(scale * rng.standard_normal((d, n_i)) for n_i in n))
        way = "overflows" if scale > 1.0 else "underflows"
        message = ("the data's magnitude is out of floating-point range: its {} " + way).format
        for target, name, w in ((COVARIANCE, "equal", what[0]),
                                (CORRELATION, "equal-correlated", what[1])):
            spec = predefined_hypothesis(name, target, 2, d)
            with pytest.raises(ValueError) as exc:
                run_test(sample, spec, repetitions=500, seed=1)
            assert str(exc.value) == message(w)
        with pytest.raises(ValueError) as exc:
            combined_test(sample, repetitions=500, seed=1)
        assert str(exc.value) == message(what[2])

    def test_constant_data_has_zero_trace(self):
        # an exactly zero covariance is degenerate, not out of range
        sample = GroupedSample((np.ones((4, 5)), np.ones((4, 5))))
        with pytest.raises(ValueError) as exc:
            run_test(sample, predefined_hypothesis("equal", COVARIANCE, 2, 4), repetitions=500, seed=1)
        assert str(exc.value) == "hypothesis covariance degenerate: zero trace"

    def test_vanishing_variance_product_names_the_cause(self):
        # two variances of about 1e-180 are positive, but their product is
        # below the smallest subnormal and would divide as zero
        rng = np.random.default_rng(3)
        sample = GroupedSample(tuple(1e-90 * rng.standard_normal((4, 5)) for _ in range(2)))
        with pytest.raises(ValueError) as exc:
            pool_estimates(sample)
        assert str(exc.value) == (
            "the data's magnitude is out of floating-point range: its product of variances underflows"
        )
