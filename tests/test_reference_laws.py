"""The array-drawn references against the per-repetition loops they replaced.

BT, TAY and the combined test now draw every repetition from one root
stream, so their draws differ from the loops' draws; their laws must not.
Each case compares 10 000 draws of both by a two-sample KS test at fixed
seeds.  The MC stream did not change, so its draws must match the loop's
byte for byte.
"""

import numpy as np
import pytest
from scipy import stats

from covartest.combined import simulate_reference
from covartest.engine import bootstrap_reference, mc_reference, taylor_reference
from covartest.estimation import GroupedSample, pool_estimates
from covartest.hypotheses import (
    COVARIANCE,
    CORRELATION,
    predefined_hypothesis,
    structure_hypothesis,
)
from conftest import gaussian_sample, make_spd
from reference_loops import (
    bootstrap_reference_loop,
    mc_reference_loop,
    simulate_reference_loop,
    taylor_reference_loop,
)

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
        bootstrap_reference(sample, spec, B=B, seed=7, est=est),
        bootstrap_reference_loop(sample, spec, B=B, seed=8, est=est),
    )


def test_bootstrap_law_matches_loop_with_a_null_group():
    # x and -x: the outer products agree exactly, so the first group's
    # fourth-moment covariance and its factor vanish
    null = np.array([[1.0, -1.0], [2.0, -2.0]])
    sample = GroupedSample((null, sample_of(606, 2, (40,)).groups[0]))
    spec = predefined_hypothesis("equal", COVARIANCE, 2, 2)
    est = pool_estimates(sample)
    assert not np.any(est.Sigma[0])
    assert_same_law(
        bootstrap_reference(sample, spec, B=B, seed=16, est=est),
        bootstrap_reference_loop(sample, spec, B=B, seed=17, est=est),
    )


def test_taylor_law_matches_loop_equal_correlated():
    # the first group's 14 observations leave its 15 x 15 fourth-moment
    # covariance rank-deficient
    sample = sample_of(202, 5, (14, 60))
    spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 5)
    est = pool_estimates(sample)
    assert_same_law(
        taylor_reference(sample, spec, B=B, seed=9, est=est),
        taylor_reference_loop(sample, spec, B=B, seed=10, est=est),
    )


def test_taylor_law_matches_loop_hautoregressive():
    V = np.array([[1.0, 0.5, 0.25, 0.125], [0.5, 1.0, 0.5, 0.25],
                  [0.25, 0.5, 1.0, 0.5], [0.125, 0.25, 0.5, 1.0]])
    sample = sample_of(303, 4, (80,), V=V)
    spec = structure_hypothesis("hautoregressive", CORRELATION, 4)
    est = pool_estimates(sample)
    assert_same_law(
        taylor_reference(sample, spec, B=B, seed=11, est=est),
        taylor_reference_loop(sample, spec, B=B, seed=12, est=est),
    )


def test_combined_law_matches_loop_per_component():
    # 8 observations against 10 covariance coordinates: rank-deficient
    est = pool_estimates(sample_of(404, 4, (8, 70)))
    new = simulate_reference(est, B=B, seed=13)
    old = simulate_reference_loop(est, B=B, seed=14)
    assert new.shape == old.shape == (B, 10)
    for j in range(new.shape[1]):
        assert_same_law(new[:, j], old[:, j])


def test_mc_stream_is_unchanged_across_a_chunk_boundary():
    # 156 weights x 30 000 draws exceeds the 2**22-element chunk
    est = pool_estimates(sample_of(505, 12, (40, 40)), include_correlation=False)
    spec = predefined_hypothesis("equal", COVARIANCE, 2, 12)
    Bmc = 30_000
    assert Bmc * spec.m > 1 << 22
    new = mc_reference(spec, est, Bmc, seed=15)
    assert new.tobytes() == mc_reference_loop(spec, est, Bmc, seed=15).tobytes()
