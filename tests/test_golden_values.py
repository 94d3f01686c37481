"""Pinned outputs of the three engines and the combined test.

One small fixed two-group sample and one seed; the statistics were
recorded from the package before the references took estimates only, and
the p-values and critical values of the three engines were re-recorded
when every chi2_1 variate became a squared standard normal.  Any change to
a draw stream, a reference law or a summary shows here.  A fixed
single-group sample pins the two autoregressive nulls, which run through
the subdiagonal-ratio transform.  P-values,
``beta_tilde`` and the block p-values are multiples of 1/B and must match
exactly.  The statistic and the critical value are continuous; they are
held to 1e-12 relative so that another BLAS build, which may sum in
another order, can move their last bits but nothing more.
"""

import numpy as np
import pytest

from covartest import (
    GroupedSample,
    combined_test,
    predefined_hypothesis,
    run_test,
    structure_hypothesis,
)
from covartest.hypotheses import CORRELATION, COVARIANCE

B, SEED = 1000, 5


@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(20240607)
    X = rng.standard_normal((3, 25))
    L = np.array([[1.5, 0.0, 0.0], [0.4, 1.0, 0.0], [0.0, 0.3, 0.8]])
    return GroupedSample((X, L @ rng.standard_normal((3, 30))))


@pytest.mark.parametrize(
    "target, name, method, statistic, p_value, critical_value",
    [
        (COVARIANCE, "equal", "MC", 1.20370179802952, 0.271, 2.5690489512573516),
        (COVARIANCE, "equal", "BT", 1.20370179802952, 0.288, 2.5577352102489517),
        (CORRELATION, "equal-correlated", "BT", 2.0425042983810484, 0.114, 2.610840948061025),
        (CORRELATION, "equal-correlated", "TAY", 2.0425042983810484, 0.109, 2.5882419014253943),
    ],
    ids=["MC-covariance", "BT-covariance", "BT-correlation", "TAY-correlation"],
)
def test_run_test_values_are_pinned(sample, target, name, method, statistic, p_value, critical_value):
    spec = predefined_hypothesis(name, target, 2, 3)
    report = run_test(sample, spec, method=method, repetitions=B, seed=SEED)
    assert report.p_value == p_value
    assert report.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
    assert report.critical_value == pytest.approx(critical_value, rel=1e-12, abs=0.0)


def test_combined_test_values_are_pinned(sample):
    report = combined_test(sample, repetitions=B, seed=SEED)
    assert report.beta_tilde == 0.008
    assert report.p_variances == 0.696
    assert report.p_correlations == 0.118
    assert report.p_total == 0.118


@pytest.fixture(scope="module")
def single_group():
    rng = np.random.default_rng(20240608)
    lag = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    L = np.linalg.cholesky(0.6**lag)
    return GroupedSample((L @ rng.standard_normal((4, 40)),))


@pytest.mark.parametrize(
    "target, name, method, statistic, p_value, critical_value",
    [
        (COVARIANCE, "ar", "MC", 1.8985502252106263, 0.144, 3.0550684328555824),
        (CORRELATION, "har", "TAY", 1.821085815666994, 0.156, 3.6110835903972274),
    ],
    ids=["MC-covariance-ar", "TAY-correlation-har"],
)
def test_autoregressive_values_are_pinned(
    single_group, target, name, method, statistic, p_value, critical_value
):
    # the autoregressive nulls run through the subdiagonal-ratio transform
    spec = structure_hypothesis(name, target, 4)
    report = run_test(single_group, spec, method=method, repetitions=B, seed=SEED)
    assert report.p_value == p_value
    assert report.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
    assert report.critical_value == pytest.approx(critical_value, rel=1e-12, abs=0.0)
