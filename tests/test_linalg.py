import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covartest.linalg import (
    centering_matrix,
    full_length,
    strict_length,
    vech,
    vech_diag_positions,
    vech_pairs,
    vech_strict,
)
from covartest.engine import _gram_spectrum
from covartest.hypotheses import COVARIANCE, CORRELATION, _lags
from conftest import make_spd
from reference_loops import psd_factor, unvech


def naive_pairs(d, strict):
    # oracle: explicit row-major scan of the upper triangle
    out = []
    for j in range(d):
        for k in range(j + (1 if strict else 0), d):
            out.append((j, k))
    return out


def symmetric(rng, d):
    A = rng.standard_normal((d, d))
    return (A + A.T) / 2.0


class TestVech:
    def test_two_by_two(self):
        S = np.array([[4.0, 1.0], [1.0, 9.0]])
        assert_array_equal(vech(S), [4.0, 1.0, 9.0])

    def test_identity_three(self):
        assert_array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_strict_two_by_two(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert_array_equal(vech_strict(S), [0.5])

    def test_strict_identity_drops_diagonal(self):
        assert_array_equal(vech_strict(np.eye(3)), np.zeros(3))

    def test_strict_toeplitz_pattern(self):
        a, b, c = 0.7, 0.4, 0.1
        S = np.array(
            [
                [1.0, a, b, c],
                [a, 1.0, a, b],
                [b, a, 1.0, a],
                [c, b, a, 1.0],
            ]
        )
        assert_array_equal(vech_strict(S), [a, b, c, a, b, a])

    def test_strict_needs_two_dims(self):
        with pytest.raises(ValueError, match="d >= 2"):
            vech_strict(np.array([[2.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            vech(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-15])
    def test_symmetry_check_is_relative_at_every_scale(self, scale):
        # the tolerance follows the largest entry, however small it is
        with pytest.raises(ValueError, match="not symmetric"):
            vech(scale * np.array([[1.0, 100.0], [0.0, 1.0]]))
        assert_array_equal(vech(scale * np.array([[1.0, 100.0], [100.0, 1.0]])),
                           scale * np.array([1.0, 100.0, 1.0]))
        assert_array_equal(vech(np.zeros((2, 2))), np.zeros(3))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            vech(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("half", [vech, vech_strict])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_without_warning(self, half, bad, where):
        S = np.eye(3)
        S[where] = S[where[::-1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                half(S)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_order_matches_rowmajor_scan(self, rng, d):
        S = symmetric(rng, d)
        v = vech(S)
        for t, (j, k) in enumerate(naive_pairs(d, strict=False)):
            assert v[t] == S[j, k]

    @pytest.mark.parametrize("d", range(2, 8))
    def test_strict_order_matches_scan(self, rng, d):
        S = symmetric(rng, d)
        v = vech_strict(S)
        for t, (j, k) in enumerate(naive_pairs(d, strict=True)):
            assert v[t] == S[j, k]


class TestPositionHelpers:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_pairs_full(self, d):
        rows, cols = vech_pairs(d)
        assert list(zip(rows, cols)) == naive_pairs(d, strict=False)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_pairs_strict(self, d):
        rows, cols = vech_pairs(d, strict=True)
        assert list(zip(rows, cols)) == naive_pairs(d, strict=True)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_diag_and_offdiag_partition(self, d):
        pairs = naive_pairs(d, strict=False)
        diag = [t for t, (j, k) in enumerate(pairs) if j == k]
        off = [t for t, (j, k) in enumerate(pairs) if j != k]
        assert list(vech_diag_positions(d)) == diag
        assert list(np.flatnonzero(_lags(COVARIANCE, d) > 0)) == off
        assert sorted(diag + off) == list(range(full_length(d)))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_subdiagonal_positions(self, d):
        # the contrasts find each subdiagonal through the lags, column
        # minus row, of the full (covariance) and strict (correlation)
        # half-vectors
        for target, strict in ((COVARIANCE, False), (CORRELATION, True)):
            pairs = naive_pairs(d, strict=strict)
            lags = _lags(target, d)
            assert len(lags) == len(pairs)
            for h in range(d):
                expect = [t for t, (j, k) in enumerate(pairs) if k - j == h]
                assert list(np.flatnonzero(lags == h)) == expect
        assert_array_equal(np.flatnonzero(_lags(COVARIANCE, d) == 0), vech_diag_positions(d))
        assert _lags(CORRELATION, d).min() == 1

    def test_lengths(self):
        assert [full_length(d) for d in range(1, 6)] == [1, 3, 6, 10, 15]
        assert [strict_length(d) for d in range(2, 6)] == [1, 3, 6, 10]


class TestRoundTrip:
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_full_round_trip_exact(self, d, seed):
        S = symmetric(np.random.default_rng(seed), d)
        assert_array_equal(unvech(vech(S)), S)

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_vech_of_unvech_is_identity(self, d, seed):
        x = np.random.default_rng(seed).standard_normal(full_length(d))
        assert_array_equal(vech(unvech(x)), x)

    def test_unvech_raw_array_defaults_to_full(self):
        S = unvech(np.array([1.0, 2.0, 3.0]))
        assert_array_equal(S, [[1.0, 2.0], [2.0, 3.0]])

    def test_unvech_rejects_non_triangular_length(self):
        with pytest.raises(ValueError, match="triangular"):
            unvech(np.ones(5))

    def test_half_vectors_are_read_only(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        for v in (vech(S), vech_strict(S)):
            assert v.ndim == 1 and v.dtype == float
            assert not np.shares_memory(v, S)
            with pytest.raises(ValueError):
                v[0] = 5.0


class TestCentering:
    def test_size_one_is_zero(self):
        assert_array_equal(centering_matrix(1), np.zeros((1, 1)))

    def test_row_sums_vanish(self):
        P = centering_matrix(4)
        assert_allclose(P.sum(axis=1), np.zeros(4), atol=1e-15)
        assert_allclose(P, P.T, atol=0)
        assert_allclose(P @ P, P, atol=1e-15)

    def test_centers_a_vector(self, rng):
        x = rng.standard_normal(6)
        assert_allclose(centering_matrix(6) @ x, x - x.mean(), atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            centering_matrix(0)


class TestKron:
    def test_matches_blockwise_definition(self, rng):
        A = rng.standard_normal((2, 3))
        B = rng.standard_normal((3, 2))
        K = np.kron(A, B)
        assert K.shape == (6, 6)
        for i in range(2):
            for j in range(3):
                assert_array_equal(K[3 * i : 3 * (i + 1), 2 * j : 2 * (j + 1)], A[i, j] * B)

    def test_group_centering_contrast(self, rng):
        # (P_a x I_p) applied to stacked group vectors subtracts the mean
        # vector across groups, blockwise.
        a, p = 3, 4
        blocks = [rng.standard_normal(p) for _ in range(a)]
        stacked = np.concatenate(blocks)
        out = np.kron(centering_matrix(a), np.eye(p)) @ stacked
        mean = sum(blocks) / a
        expect = np.concatenate([b - mean for b in blocks])
        assert_allclose(out, expect, atol=1e-12)


class TestEigenvalues:
    # the engines' eigenvalue kernel: nonzero eigenvalues of A A^T, taken
    # from the smaller of A A^T and A^T A

    def test_two_by_two_closed_form(self):
        # A A^T = [[2, 1], [1, 2]]; A^T A has the same eigenvalues 3 and 1
        # plus a zero, which is dropped
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        assert_allclose(np.sort(_gram_spectrum(A)), [1.0, 3.0])
        assert_allclose(np.sort(_gram_spectrum(A.T)), [1.0, 3.0])

    def test_sum_equals_trace(self, rng):
        for d in (2, 4, 6):
            L = np.linalg.cholesky(make_spd(rng, d))
            for A in (L, L @ rng.standard_normal((d, 2 * d)), L[:, : d - 1]):
                assert_allclose(_gram_spectrum(A).sum(), np.trace(A @ A.T), rtol=1e-10)

    def test_normalized_weights_sum_to_one(self, rng):
        # the mixture weights of the limiting distribution
        S = make_spd(rng, 5)
        lam = _gram_spectrum(np.linalg.cholesky(S)) / np.trace(S)
        assert_allclose(lam.sum(), 1.0, atol=1e-10)
        assert np.all(lam >= -1e-12)


class TestPsdFactor:
    def test_identity(self):
        L = psd_factor(np.eye(3))
        assert_allclose(L @ L.T, np.eye(3), atol=1e-12)

    def test_reconstructs_spd(self, rng):
        S = make_spd(rng, 5)
        L = psd_factor(S)
        assert_allclose(L @ L.T, S, atol=1e-10 * np.abs(S).max())

    def test_rank_one(self):
        u = np.array([1.0, -2.0, 2.0])
        S = np.outer(u, u)
        L = psd_factor(S)
        assert_allclose(L @ L.T, S, atol=1e-10)
        norms = np.linalg.norm(L, axis=0)
        live = norms > 1e-8
        assert live.sum() == 1
        col = L[:, live].ravel()
        cosine = col @ u / (np.linalg.norm(col) * np.linalg.norm(u))
        assert abs(abs(cosine) - 1.0) < 1e-12

    def test_singular_sample_covariance(self, rng):
        # rank-deficient input from fewer observations than variables
        X = rng.standard_normal((6, 4))
        S = np.cov(X)
        L = psd_factor(S)
        assert_allclose(L @ L.T, S, atol=1e-10 * np.abs(S).max())

    def test_tiny_negative_eigenvalue_clamped(self):
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        S = (Q * np.array([1.0, 0.5, -1e-14])) @ Q.T
        S = (S + S.T) / 2.0
        L = psd_factor(S)
        G = L @ L.T
        assert np.all(np.linalg.eigvalsh(G) >= -1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_factor(np.diag([1.0, -1.0]))
