import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from covartest.engine import (
    ats,
    bootstrap_pvalue,
    bootstrap_reference,
    fresh_seed,
    mc_pvalue,
    mc_reference,
    run_test,
    statistic_covariance,
    taylor_pvalue,
    taylor_reference,
)
from covartest.estimation import GroupedSample, pool_estimates
from covartest.hypotheses import (
    COVARIANCE,
    CORRELATION,
    custom_hypothesis,
    predefined_hypothesis,
    structure_hypothesis,
)
from conftest import gaussian_sample, make_spd, synthetic_estimates


def two_group_sample(rng, d=3, n=(40, 50), scale=1.0):
    V = make_spd(rng, d)
    return GroupedSample(
        (gaussian_sample(rng, V, n[0]), gaussian_sample(rng, scale * V, n[1]))
    )


class TestStatistic:
    def test_zero_for_identical_groups(self, rng):
        X = rng.standard_normal((3, 20))
        sample = GroupedSample((X, X.copy()))
        est = pool_estimates(sample)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        assert ats(spec, est) <= 1e-12

    def test_scalar_correlation_reduction(self, rng):
        # with one contrast row the statistic is N (C r - z)^2 / (C Ups C^T)
        sample = GroupedSample((gaussian_sample(rng, make_spd(rng, 2), 35),))
        est = pool_estimates(sample)
        spec = predefined_hypothesis("uncorrelated", CORRELATION, 1, 2)
        r = est.rhat[0].values[0]
        expect = est.N * r**2 / est.Upsilon_pooled[0, 0]
        assert_allclose(ats(spec, est), expect, rtol=1e-12)

    def test_invariant_under_data_scaling(self, rng):
        X = rng.standard_normal((3, 30))
        spec = predefined_hypothesis("equal", COVARIANCE, 1, 3)
        a = ats(spec, pool_estimates(GroupedSample((X,))))
        b = ats(spec, pool_estimates(GroupedSample((3.0 * X,))))
        assert_allclose(a, b, rtol=1e-9)

    def test_invariant_under_observation_order(self, rng):
        X = rng.standard_normal((3, 30))
        spec = predefined_hypothesis("equal", COVARIANCE, 1, 3)
        a = ats(spec, pool_estimates(GroupedSample((X,))))
        b = ats(spec, pool_estimates(GroupedSample((X[:, rng.permutation(30)],))))
        assert_allclose(a, b, atol=1e-10)

    def test_zero_trace_rejected(self, rng):
        # two observations per group force a zero fourth-moment covariance
        sample = GroupedSample((rng.standard_normal((2, 2)), rng.standard_normal((2, 2))))
        est = pool_estimates(sample)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 2)
        with pytest.raises(ValueError, match="zero trace"):
            ats(spec, est)

    def test_statistic_covariance_is_sandwich(self, rng):
        est = pool_estimates(two_group_sample(rng))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        H = statistic_covariance(spec, est)
        expect = spec.C @ est.Sigma_pooled @ spec.C.T
        assert_allclose(H, (expect + expect.T) / 2.0, atol=1e-12)
        assert_array_equal(H, H.T)

    def test_group_count_mismatch(self, rng):
        est = pool_estimates(GroupedSample((rng.standard_normal((3, 10)),)))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="group"):
            ats(spec, est)

    def test_dimension_mismatch(self, rng):
        est = pool_estimates(GroupedSample((rng.standard_normal((2, 10)),)))
        spec = predefined_hypothesis("equal", COVARIANCE, 1, 3)
        with pytest.raises(ValueError):
            ats(spec, est)


class TestMonteCarlo:
    def test_single_contrast_recovers_chi_square(self, rng):
        # one contrast row collapses the limit to a single chi-square(1)
        est = pool_estimates(GroupedSample((gaussian_sample(rng, make_spd(rng, 2), 60),)))
        spec = predefined_hypothesis("given-trace", COVARIANCE, 1, 2, extra=2.0)
        draws = mc_reference(spec, est, B=30000, seed=99)
        q = np.quantile(draws, 0.95)
        assert abs(q - stats.chi2.ppf(0.95, 1)) < 0.15

    def test_mean_matches_weight_sum(self, rng):
        # E sum(lam_l chi2_1) = sum(lam_l) = 1 after trace normalization
        est = pool_estimates(two_group_sample(rng))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        draws = mc_reference(spec, est, B=40000, seed=5)
        assert abs(draws.mean() - 1.0) < 0.05

    def test_deterministic_in_seed(self, rng):
        est = pool_estimates(two_group_sample(rng))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        a = mc_reference(spec, est, B=2000, seed=7)
        b = mc_reference(spec, est, B=2000, seed=7)
        c = mc_reference(spec, est, B=2000, seed=8)
        assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pvalue_extremes(self, rng):
        est = pool_estimates(two_group_sample(rng))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        assert mc_pvalue(spec, est, est.N, 0.0, B=500, seed=1) == 1.0
        assert mc_pvalue(spec, est, est.N, 1e12, B=500, seed=1) == 0.0

    def test_pvalue_monotone_in_statistic(self, rng):
        est = pool_estimates(two_group_sample(rng))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        ps = [mc_pvalue(spec, est, est.N, s, B=1000, seed=3) for s in (0.5, 1.0, 2.0, 4.0)]
        assert ps == sorted(ps, reverse=True)


class TestBootstrap:
    def test_deterministic_and_thread_invariant(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        a = bootstrap_reference(sample, spec, B=512, seed=11)
        b = bootstrap_reference(sample, spec, B=512, seed=11)
        c = bootstrap_reference(sample, spec, B=512, seed=11, threads=3)
        assert_array_equal(a, b)
        assert_array_equal(a, c)

    def test_agrees_with_mc_for_large_samples(self, rng):
        sample = two_group_sample(rng, n=(400, 400))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        est = pool_estimates(sample)
        stat = ats(spec, est)
        p_mc = mc_pvalue(spec, est, est.N, stat, B=4000, seed=21)
        p_bt = bootstrap_pvalue(sample, spec, B=4000, seed=22, est=est)
        assert abs(p_mc - p_bt) < 0.08

    def test_draws_are_nonnegative(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        draws = bootstrap_reference(sample, spec, B=512, seed=2)
        assert draws.shape == (512,)
        assert np.all(draws >= 0.0)

    def test_correlation_target(self, rng):
        sample = two_group_sample(rng, d=3)
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        p = bootstrap_pvalue(sample, spec, B=600, seed=13)
        assert 0.0 <= p <= 1.0

    def test_zero_trace_rejected(self, rng):
        # two observations per group force a zero fourth-moment covariance,
        # which rounding leaves as residue of order eps^2
        sample = GroupedSample((rng.standard_normal((2, 2)), rng.standard_normal((2, 2))))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 2)
        with pytest.raises(ValueError, match="zero trace"):
            bootstrap_reference(sample, spec, B=500, seed=1)


class TestTaylor:
    def test_covariance_target_rejected(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="correlation"):
            taylor_reference(sample, spec, B=100, seed=1)

    def test_deterministic_and_thread_invariant(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        a = taylor_reference(sample, spec, B=512, seed=17)
        b = taylor_reference(sample, spec, B=512, seed=17, threads=4)
        assert_array_equal(a, b)

    def test_agrees_with_mc(self, rng):
        sample = two_group_sample(rng, n=(300, 300))
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        est = pool_estimates(sample)
        stat = ats(spec, est)
        p_mc = mc_pvalue(spec, est, est.N, stat, B=5000, seed=31)
        p_ty = taylor_pvalue(sample, spec, B=5000, seed=32, est=est)
        assert abs(p_mc - p_ty) < 0.08

    def test_structure_target(self, rng):
        V = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        sample = GroupedSample((gaussian_sample(rng, V, 80),))
        spec = structure_hypothesis("hautoregressive", CORRELATION, 3)
        p = taylor_pvalue(sample, spec, B=800, seed=41)
        assert p > 0.01  # data generated under the null


class TestRunTest:
    def test_report_fields(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        rep = run_test(sample, spec, method="mc", repetitions=800, seed=123)
        assert rep.method == "MC"
        assert rep.repetitions == 800
        assert rep.seed == 123
        assert rep.label == "equal"
        assert rep.target == COVARIANCE
        assert rep.n == sample.n
        assert rep.alpha == 0.05
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.statistic >= 0.0

    def test_critical_value_matches_reference_quantile(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        est = pool_estimates(sample)
        rep = run_test(sample, spec, method="MC", repetitions=700, seed=55, est=est)
        draws = mc_reference(spec, est, B=700, seed=55)
        assert_allclose(rep.critical_value, np.quantile(draws, 0.95), rtol=1e-12)

    def test_explicit_seed_reproduces(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        a = run_test(sample, spec, method="BT", repetitions=512, seed=9)
        b = run_test(sample, spec, method="BT", repetitions=512, seed=9)
        assert a.p_value == b.p_value and a.statistic == b.statistic

    def test_fresh_seed_when_unset(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        rep = run_test(sample, spec, repetitions=600)
        assert isinstance(rep.seed, int) and 0 <= rep.seed < 2**32

    def test_low_repetitions_warn(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.warns(UserWarning, match="500"):
            run_test(sample, spec, repetitions=100, seed=1)

    def test_enough_repetitions_do_not_warn(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_test(sample, spec, repetitions=500, seed=1)

    def test_taylor_requires_correlation(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="correlation"):
            run_test(sample, spec, method="TAY", repetitions=500, seed=1)

    def test_invalid_method(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="method"):
            run_test(sample, spec, method="jackknife", repetitions=500, seed=1)

    def test_invalid_repetitions(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError):
            run_test(sample, spec, repetitions=0, seed=1)

    def test_invalid_alpha(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="alpha"):
            run_test(sample, spec, repetitions=500, seed=1, alpha=1.5)


class TestSeeds:
    def test_fresh_seed_range(self):
        for _ in range(5):
            s = fresh_seed()
            assert 0 <= s < 2**32

    def test_synthetic_estimates_exercise_engine(self, rng):
        # sanity for the helper used throughout: an exactly-conforming
        # parameter gives a literal zero statistic
        V = make_spd(rng, 3)
        est = synthetic_estimates([V, V.copy()], (30, 40), rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        assert ats(spec, est) <= 1e-12
