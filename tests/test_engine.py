import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from covartest import engine
from covartest.engine import (
    ats,
    bootstrap_reference,
    fresh_seed,
    mc_reference,
    run_test,
    statistic_covariance,
    taylor_reference,
)
from covartest.estimation import GroupedSample, MomentEstimates, pool_estimates
from covartest.hypotheses import (
    COVARIANCE,
    CORRELATION,
    HypothesisSpec,
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
        r = est.rhat[0][0]
        expect = est.N * r**2 / est.Upsilon_pooled[0, 0]
        assert_allclose(ats(spec, est), expect, rtol=1e-12)

    def test_invariant_under_data_scaling(self, rng):
        X = rng.standard_normal((3, 30))
        spec = predefined_hypothesis("equal", COVARIANCE, 1, 3)
        a = ats(spec, pool_estimates(GroupedSample((X,))))
        b = ats(spec, pool_estimates(GroupedSample((3.0 * X,))))
        assert_allclose(a, b, rtol=1e-9)

    def test_correlation_statistic_invariant_under_one_variables_units(self):
        # correlations do not depend on the units of a variable
        rng = np.random.default_rng(5)
        groups = (rng.standard_normal((3, 30)), rng.standard_normal((3, 40)))
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        scaled = tuple(np.vstack([np.ldexp(X[:1], -30), X[1:]]) for X in groups)
        a, b = (ats(spec, pool_estimates(GroupedSample(g))) for g in (groups, scaled))
        assert_allclose(a, 0.14617, rtol=1e-4)
        assert_allclose(b, a, rtol=1e-8)

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

    def test_transformed_contrast_of_wrong_width(self, rng):
        # the ratio transform maps d = 3 covariances to 6 + 2 coordinates
        ar = structure_hypothesis("ar", COVARIANCE, 3)
        spec = HypothesisSpec(target=COVARIANCE, dense=ar.C[:, :-1], zeta=ar.zeta, label="short",
                              a=1, d=3, transform=ar.transform)
        est = pool_estimates(GroupedSample((rng.standard_normal((3, 40)),)))
        with pytest.raises(ValueError, match="maps theta to 8 coordinates but C has 7 columns"):
            ats(spec, est)

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
        draws = mc_reference(spec, est, B=500, seed=1)
        assert np.mean(draws >= 0.0) == 1.0
        assert np.mean(draws >= 1e12) == 0.0

    def test_pvalue_monotone_in_statistic(self, rng):
        est = pool_estimates(two_group_sample(rng))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        draws = mc_reference(spec, est, B=1000, seed=3)
        ps = [np.mean(draws >= s) for s in (0.5, 1.0, 2.0, 4.0)]
        assert ps == sorted(ps, reverse=True)


class TestBootstrap:
    def test_deterministic_and_thread_invariant(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        a = bootstrap_reference(spec, pool_estimates(sample), B=512, seed=11)
        b = bootstrap_reference(spec, pool_estimates(sample), B=512, seed=11)
        c = bootstrap_reference(spec, pool_estimates(sample), B=512, seed=11)
        assert_array_equal(a, b)
        assert_array_equal(a, c)

    def test_agrees_with_mc_for_large_samples(self, rng):
        sample = two_group_sample(rng, n=(400, 400))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        est = pool_estimates(sample)
        p_mc = run_test(sample, spec, "MC", 4000, seed=21, est=est).p_value
        p_bt = run_test(sample, spec, "BT", 4000, seed=22, est=est).p_value
        assert abs(p_mc - p_bt) < 0.08

    def test_draws_are_nonnegative(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        draws = bootstrap_reference(spec, pool_estimates(sample), B=512, seed=2)
        assert draws.shape == (512,)
        assert np.all(draws >= 0.0)

    def test_correlation_target(self, rng):
        sample = two_group_sample(rng, d=3)
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        p = run_test(sample, spec, "BT", 600, seed=13).p_value
        assert 0.0 <= p <= 1.0

    def test_zero_trace_rejected(self, rng):
        # two observations per group force a zero fourth-moment covariance,
        # which rounding leaves as residue of order eps^2
        sample = GroupedSample((rng.standard_normal((2, 2)), rng.standard_normal((2, 2))))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 2)
        with pytest.raises(ValueError, match="zero trace"):
            bootstrap_reference(spec, pool_estimates(sample), B=500, seed=1)


class TestTaylor:
    def test_covariance_target_rejected(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="correlation"):
            taylor_reference(spec, pool_estimates(sample), B=100, seed=1)

    def test_deterministic_and_thread_invariant(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        a = taylor_reference(spec, pool_estimates(sample), B=512, seed=17)
        b = taylor_reference(spec, pool_estimates(sample), B=512, seed=17)
        assert_array_equal(a, b)

    def test_agrees_with_mc(self, rng):
        sample = two_group_sample(rng, n=(300, 300))
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        est = pool_estimates(sample)
        p_mc = run_test(sample, spec, "MC", 5000, seed=31, est=est).p_value
        p_ty = run_test(sample, spec, "TAY", 5000, seed=32, est=est).p_value
        assert abs(p_mc - p_ty) < 0.08

    def test_structure_target(self, rng):
        V = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        sample = GroupedSample((gaussian_sample(rng, V, 80),))
        spec = structure_hypothesis("hautoregressive", CORRELATION, 3)
        p = run_test(sample, spec, "TAY", 800, seed=41).p_value
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
        with pytest.warns(UserWarning, match="500") as record:
            run_test(sample, spec, repetitions=100, seed=1)
        # the warning names the caller's line, not covartest's own
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_enough_repetitions_do_not_warn(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
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
        # a float or bool count is refused, neither truncated nor left to
        # np.empty, and before any coarse-p-value warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for B in (1000.0, np.float64(600.0), 700.5, 100.0, True):
                with pytest.raises(ValueError, match=f"repetitions must be a positive integer, got {B}$"):
                    run_test(sample, spec, repetitions=B, seed=1)
        for B in (600, np.int64(600)):
            assert run_test(sample, spec, repetitions=B, seed=1).repetitions == 600

    def test_non_integer_seed_refused(self, rng):
        # seed 2.9 ran as seed 2 and reported seed=2
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        for seed in (2.9, 2.0, np.float64(2.0), "2", True, -1, np.int64(-1)):
            with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}$"):
                run_test(sample, spec, repetitions=600, seed=seed)
        a, b = (run_test(sample, spec, repetitions=600, seed=s) for s in (2, np.uint32(2)))
        assert a == b and type(b.seed) is int

    def test_invalid_alpha(self, rng):
        sample = two_group_sample(rng)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        with pytest.raises(ValueError, match="alpha"):
            run_test(sample, spec, repetitions=500, seed=1, alpha=1.5)

    @pytest.mark.parametrize("n, d", [((200, 250), 3), ((20, 25), 4)], ids=["other-n", "other-d"])
    def test_estimates_of_another_sample_rejected(self, rng, n, d):
        # the report carries this sample's n, so foreign estimates would
        # test one sample under another's group sizes
        sample = two_group_sample(rng, n=(20, 25))
        other = pool_estimates(two_group_sample(rng, d=d, n=n))
        spec = predefined_hypothesis("equal", COVARIANCE, 2, d)
        with pytest.raises(ValueError, match="do not belong"):
            run_test(sample, spec, repetitions=500, seed=1, est=other)

    @pytest.mark.parametrize("method, target, name", [
        ("MC", COVARIANCE, "equal"),
        ("BT", COVARIANCE, "equal"),
        ("TAY", CORRELATION, "equal-correlated"),
    ])
    def test_one_contrast_per_run(self, rng, monkeypatch, method, target, name):
        # the statistic and the reference share the contrast run_test builds
        built = []
        original = engine._contrast

        def counted(spec, est):
            built.append(spec)
            return original(spec, est)

        monkeypatch.setattr(engine, "_contrast", counted)
        spec = predefined_hypothesis(name, target, 2, 3)
        run_test(two_group_sample(rng), spec, method=method, repetitions=500, seed=1)
        assert built == [spec]

    def test_estimates_hold_no_hidden_state(self, rng):
        # an in-place change to the arrays the estimates hold shows in every
        # later statistic and run, as in estimates built afresh from them
        sample = two_group_sample(rng)
        base = pool_estimates(sample, include_correlation=False)
        vhat = tuple(np.array(v) for v in base.vhat)
        factors = tuple(np.array(F) for F in base.Sigma_factor)
        est = MomentEstimates(d=3, n=sample.n, vhat=vhat, Sigma_factor=factors)
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
        before = ats(spec, est)
        vhat[0][0] += 5.0
        factors[0][0, 0] += 5.0
        fresh = MomentEstimates(
            d=3, n=sample.n, vhat=tuple(map(np.array, vhat)), Sigma_factor=tuple(map(np.array, factors))
        )
        assert ats(spec, est) == ats(spec, fresh) != before
        for method in ("MC", "BT"):
            changed, rebuilt = (
                run_test(sample, spec, method=method, repetitions=500, seed=4, est=e)
                for e in (est, fresh)
            )
            assert changed == rebuilt


class TestGroupPermutation:
    # centering contrasts treat the groups alike, so reordering them keeps
    # the statistic and the MC/TAY weights.  Not asserted for BT, which
    # draws its per-group denominators in group order (same law, another
    # stream), nor for equal-trace and equal-diagonals, whose successive
    # differences depend on the order.
    @pytest.mark.parametrize(
        "name,target,methods",
        [("equal", COVARIANCE, ("MC",)), ("equal-correlated", CORRELATION, ("MC", "TAY"))],
    )
    def test_group_order_leaves_statistic_and_pvalue(self, rng, name, target, methods):
        for _ in range(10):
            a, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            groups = [
                gaussian_sample(rng, make_spd(rng, d), int(rng.integers(8, 40)))
                for _ in range(a)
            ]
            perm = rng.permutation(a)
            while np.all(perm == np.arange(a)):
                perm = rng.permutation(a)
            spec = predefined_hypothesis(name, target, a, d)
            seed = int(rng.integers(2**32))
            for method in methods:
                r = run_test(GroupedSample(tuple(groups)), spec, method, 1000, seed)
                s = run_test(GroupedSample(tuple(groups[i] for i in perm)), spec, method, 1000, seed)
                assert_allclose(s.statistic, r.statistic, rtol=1e-12)
                assert s.p_value == r.p_value


class TestSeeds:
    @pytest.mark.parametrize("method, target, name", [
        ("MC", COVARIANCE, "equal"),
        ("BT", COVARIANCE, "equal"),
        ("BT", CORRELATION, "equal-correlated"),
        ("TAY", CORRELATION, "equal-correlated"),
    ])
    def test_variates_do_not_depend_on_the_block_size(self, rng, monkeypatch, method, target, name):
        # numpy fills standard normals (MC, TAY, BT numerator) and
        # chi-square variates with one df per weight (BT denominator)
        # element by element in C order, so one block of 700 rows and 700
        # blocks of one row draw the same variates; BLAS sums a block's rows
        # with kernels that depend on its row count, so the draws agree to
        # rounding
        est = pool_estimates(two_group_sample(rng), include_correlation=True)
        spec = predefined_hypothesis(name, target, 2, 3)
        reference = {"MC": mc_reference, "BT": bootstrap_reference, "TAY": taylor_reference}[method]
        root_rng = engine._root_rng

        def recorded_draws():
            variates = []

            class Recording:
                def __init__(self, seed):
                    self.rng = root_rng(seed)

                def standard_normal(self, size):
                    variates.append(self.rng.standard_normal(size))
                    return variates[-1]

                def chisquare(self, df, size):
                    variates.append(self.rng.chisquare(df, size=size))
                    return variates[-1]

            monkeypatch.setattr(engine, "_root_rng", Recording)
            return reference(spec, est, 700, 11), np.concatenate([v.ravel() for v in variates])

        whole, whole_variates = recorded_draws()
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 1)
        blocks, block_variates = recorded_draws()
        assert block_variates.tobytes() == whole_variates.tobytes()
        assert_allclose(blocks, whole, rtol=1e-14)

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
