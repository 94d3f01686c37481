import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covartest.combined import (
    _exit_levels,
    calibrate_beta,
    combined_statistic,
    combined_test,
    simulate_reference,
)
from covartest.estimation import GroupedSample, pool_estimates
from conftest import gaussian_sample, make_spd, synthetic_estimates
from reference_loops import (
    calibration_rejection_rate,
    correlation_jacobian,
    dense_sigma,
    reference_bands,
)


def two_groups(rng, d=3, n=(40, 50), scale2=1.0):
    V = make_spd(rng, d)
    return GroupedSample(
        (gaussian_sample(rng, V, n[0]), gaussian_sample(rng, scale2 * V, n[1]))
    )


class TestCombinedStatistic:
    def test_identical_groups_give_zero(self, rng):
        X = rng.standard_normal((3, 25))
        T = combined_statistic(pool_estimates(GroupedSample((X, X.copy()))))
        assert_array_equal(T, np.zeros(6))

    def test_hand_formula_d2(self, rng):
        sample = two_groups(rng, d=2)
        est = pool_estimates(sample)
        T = combined_statistic(est)
        v1, v2 = est.vhat[0], est.vhat[1]
        r1, r2 = est.rhat[0], est.rhat[1]
        expect = np.sqrt(est.N) * np.array(
            [v1[0] - v2[0], v1[2] - v2[2], r1[0] - r2[0]]
        )
        assert_allclose(T, expect, atol=1e-12)

    def test_variable_scaling_moves_only_its_variance(self, rng):
        X = rng.standard_normal((3, 30))
        Y = X.copy()
        Y[1] *= 2.0
        T = combined_statistic(pool_estimates(GroupedSample((X, Y))))
        # correlations are scale free, so the tail block stays zero
        assert_allclose(T[3:], np.zeros(3), atol=1e-10)
        assert abs(T[1]) > 0.1
        assert_allclose(T[[0, 2]], np.zeros(2), atol=1e-10)

    def test_needs_two_groups(self, rng):
        with pytest.raises(ValueError, match="two groups"):
            combined_statistic(pool_estimates(GroupedSample((rng.standard_normal((3, 10)),))))
        with pytest.raises(ValueError, match="two groups"):
            combined_statistic(pool_estimates(
                GroupedSample(tuple(rng.standard_normal((3, 10)) for _ in range(3)))
            ))

    def test_needs_two_variables(self, rng):
        sample = GroupedSample((rng.standard_normal((1, 10)), rng.standard_normal((1, 12))))
        with pytest.raises(ValueError, match="d >= 2"):
            combined_statistic(pool_estimates(sample))

    def test_needs_correlation_estimates(self, rng):
        est = pool_estimates(two_groups(rng), include_correlation=False)
        with pytest.raises(ValueError, match="lack correlation"):
            combined_statistic(est)


class TestSimulateReference:
    def test_shape_and_determinism(self, rng):
        est = pool_estimates(two_groups(rng))
        a = simulate_reference(est, B=512, seed=3)
        b = simulate_reference(est, B=512, seed=3)
        c = simulate_reference(est, B=512, seed=3)
        assert a.shape == (512, 6)
        assert_array_equal(a, b)
        assert_array_equal(a, c)

    def test_covariance_matches_delta_rule(self, rng):
        # long-run covariance of the draws must match
        # N sum_i (A_i Sigma_i A_i^T) / n_i with the stacked selector/Jacobian
        sample = two_groups(rng)
        est = pool_estimates(sample)
        draws = simulate_reference(est, B=100000, seed=12)
        emp = np.cov(draws.T)
        from covartest.linalg import full_length, vech_diag_positions

        d, p, N = est.d, full_length(est.d), est.N
        selector = np.zeros((d, p))
        selector[np.arange(d), vech_diag_positions(d)] = 1.0
        target = np.zeros((2 * d, 2 * d))
        for n_i, Sig, v in zip(est.n, dense_sigma(est), est.vhat):
            A = np.vstack([selector, correlation_jacobian(v)])
            target += (N / n_i) * (A @ Sig @ A.T)
        big = np.abs(target) >= 0.2 * np.abs(target).max()
        assert_allclose(emp[big], target[big], rtol=0.15)

    def test_rejects_single_group(self, rng):
        est = pool_estimates(GroupedSample((rng.standard_normal((3, 10)),)))
        with pytest.raises(ValueError, match="two groups"):
            simulate_reference(est, B=512, seed=1)


class TestBands:
    def test_matches_lower_interpolation_quantiles(self, rng):
        draws = rng.standard_normal((1000, 4))
        lo, hi = reference_bands(draws, beta=0.05)
        q = np.quantile(draws, [0.025, 0.975], axis=0, method="lower")
        assert_array_equal(lo, q[0])
        assert_array_equal(hi, q[1])

    def test_beta_zero_spans_the_range(self, rng):
        draws = rng.standard_normal((500, 2))
        lo, hi = reference_bands(draws, beta=0.0)
        assert_array_equal(lo, draws.min(axis=0))
        assert_array_equal(hi, draws.max(axis=0))

    def test_off_grid_beta_rejected(self, rng):
        draws = rng.standard_normal((500, 2))
        with pytest.raises(ValueError, match="grid"):
            reference_bands(draws, beta=0.0513)

    def test_rejection_rate_monotone_in_beta(self, rng):
        draws = rng.standard_normal((2000, 3))
        rates = [calibration_rejection_rate(draws, k / 2000) for k in (0, 20, 100, 400)]
        assert rates[0] == 0.0
        assert rates == sorted(rates)

    @pytest.mark.parametrize("B", [1, 2, 5, 17, 40])
    def test_exit_levels_match_every_grid_band(self, rng, B):
        # oracle: the first k whose band from reference_bands excludes the
        # component, scanning every grid level; B where none does
        for _ in range(20):
            draws = rng.integers(-3, 4, size=(B, 6)).astype(float)  # ties
            draws[:, 0] = 1.0  # a constant column
            draws[:, 1] = rng.standard_normal(B)
            T = np.concatenate([rng.integers(-4, 5, size=4), 3.0 * rng.standard_normal(2)])
            expect = np.full(6, B)
            for k in range(B - 1, -1, -1):
                lo, hi = reference_bands(draws, k / B)
                expect[(T < lo) | (T > hi)] = k
            assert_array_equal(_exit_levels(np.sort(draws, axis=0), T), expect)


class TestCalibration:
    def test_single_component_recovers_alpha(self, rng):
        # with one component the familywise and the componentwise level
        # coincide, so the calibrated beta sits at alpha up to grid steps
        draws = rng.standard_normal((10000, 1))
        beta = calibrate_beta(draws, alpha=0.05)
        assert abs(beta - 0.05) <= 2.0 / 10000

    def test_two_independent_components_sidak(self, rng):
        # independent components: familywise alpha = 1 - (1 - beta')^2
        # where beta' is the per-component outside rate, so the calibrated
        # beta approaches 1 - sqrt(1 - alpha)
        draws = rng.standard_normal((100000, 2))
        beta = calibrate_beta(draws, alpha=0.05)
        assert abs(beta - (1.0 - np.sqrt(0.95))) <= 0.005

    def test_alpha_zero_gives_zero(self, rng):
        draws = rng.standard_normal((1000, 3))
        assert calibrate_beta(draws, alpha=0.0) == 0.0

    def test_defining_inequalities_hold_exactly(self, rng):
        est = pool_estimates(two_groups(rng))
        draws = simulate_reference(est, B=2000, seed=9)
        for alpha in (0.01, 0.02, 0.05, 0.10, 0.25):
            beta = calibrate_beta(draws, alpha)
            assert calibration_rejection_rate(draws, beta) <= alpha
            bumped = beta + 1.0 / 2000
            if bumped * 2000 <= 1999:
                assert calibration_rejection_rate(draws, bumped) > alpha

    def test_largest_grid_level_within_alpha(self, rng):
        # brute force over every grid level k/B, tied and continuous draws
        for B in range(1, 12):
            for P in range(1, 4):
                for ties in (True, False):
                    for _ in range(5):
                        if ties:
                            draws = rng.integers(-2, 3, size=(B, P)).astype(float)
                        else:
                            draws = rng.standard_normal((B, P))
                        rates = [calibration_rejection_rate(draws, k / B) for k in range(B)]
                        for alpha in (0.0, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
                            k = max(k for k, rate in enumerate(rates) if rate <= alpha)
                            assert calibrate_beta(draws, alpha) == k / B, (draws, alpha)

    def test_monotone_in_alpha(self, rng):
        draws = rng.standard_normal((4000, 4))
        betas = [calibrate_beta(draws, a) for a in (0.01, 0.05, 0.10, 0.20)]
        assert betas == sorted(betas)

    def test_alpha_validation(self, rng):
        draws = rng.standard_normal((500, 2))
        with pytest.raises(ValueError, match="alpha"):
            calibrate_beta(draws, alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            calibrate_beta(draws, alpha=-0.1)


class TestCombinedTest:
    def test_identical_groups_do_not_reject(self, rng):
        X = rng.standard_normal((3, 40))
        rep = combined_test(GroupedSample((X, X.copy())), repetitions=1000, seed=77)
        assert rep.p_variances >= 0.99
        assert rep.p_correlations >= 0.99
        assert rep.p_total >= 0.99

    def test_total_is_minimum_of_blocks(self, rng):
        rep = combined_test(two_groups(rng, scale2=1.6), repetitions=1000, seed=5)
        assert rep.p_total == min(rep.p_variances, rep.p_correlations)

    def test_scale_shift_detected_in_variance_block(self, rng):
        # second group shares the correlation but has 3x the scale: the
        # variance block should carry the rejection
        sample = two_groups(rng, n=(80, 80), scale2=3.0)
        rep = combined_test(sample, repetitions=2000, seed=6)
        assert rep.p_variances <= 0.05
        assert rep.p_correlations > rep.p_variances
        assert rep.p_total == rep.p_variances

    def test_deterministic_and_thread_invariant(self, rng):
        sample = two_groups(rng)
        a = combined_test(sample, repetitions=800, seed=10)
        b = combined_test(sample, repetitions=800, seed=10)
        c = combined_test(sample, repetitions=800, seed=10)
        assert (a.p_variances, a.p_correlations, a.p_total, a.beta_tilde) == (
            b.p_variances,
            b.p_correlations,
            b.p_total,
            b.beta_tilde,
        )
        assert (a.p_variances, a.p_correlations, a.p_total, a.beta_tilde) == (
            c.p_variances,
            c.p_correlations,
            c.p_total,
            c.beta_tilde,
        )

    def test_report_fields(self, rng):
        sample = two_groups(rng)
        rep = combined_test(sample, repetitions=600, seed=2, alpha=0.10)
        assert rep.repetitions == 600
        assert rep.seed == 2
        assert rep.alpha == 0.10
        assert rep.n == sample.n
        assert rep.d == 3
        assert rep.statistic.shape == (6,)
        assert 0.0 <= rep.beta_tilde <= 0.10

    def test_rejection_consistent_with_pvalue(self, rng):
        # reject at level alpha (any component outside the calibrated band)
        # if and only if the block p-value is <= alpha
        sample = two_groups(rng, scale2=1.5)
        B, seed = 1000, 31
        rep = combined_test(sample, repetitions=B, seed=seed)
        est = pool_estimates(sample)
        draws = simulate_reference(est, B=B, seed=seed)
        T = combined_statistic(est)
        d = est.d
        # the grid levels, and each block p-value and the level just below
        # it, where the decision flips
        p_blocks = (rep.p_variances, rep.p_correlations)
        flips = [a for p in p_blocks for a in (p, np.nextafter(p, 0.0)) if a < 1.0]
        for alpha in (0.01, 0.02, 0.05, 0.10, 0.25, *flips):
            beta = calibrate_beta(draws, alpha)
            lo, hi = reference_bands(draws, beta)
            var_reject = bool(np.any((T[:d] < lo[:d]) | (T[:d] > hi[:d])))
            corr_reject = bool(np.any((T[d:] < lo[d:]) | (T[d:] > hi[d:])))
            assert var_reject == (rep.p_variances <= alpha)
            assert corr_reject == (rep.p_correlations <= alpha)

    def test_rejects_three_groups(self, rng):
        sample = GroupedSample(tuple(rng.standard_normal((3, 15)) for _ in range(3)))
        with pytest.raises(ValueError, match="two groups"):
            combined_test(sample, repetitions=500, seed=1)

    def test_low_repetitions_warn(self, rng):
        with pytest.warns(UserWarning, match="500") as record:
            combined_test(two_groups(rng), repetitions=100, seed=1)
        # the warning names the caller's line, not covartest's own
        assert len(record) == 1
        assert record[0].filename == __file__
