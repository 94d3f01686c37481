"""The package's top-level names are the library surface the README documents."""

import covartest

PUBLIC = {
    "CombinedReport",
    "GroupedSample",
    "HypothesisSpec",
    "MomentEstimates",
    "TestReport",
    "combined_test",
    "custom_hypothesis",
    "pool_estimates",
    "predefined_hypothesis",
    "run_test",
    "statistic_covariance",
    "structure_hypothesis",
}


def test_all_is_the_documented_surface():
    assert len(covartest.__all__) == len(PUBLIC)
    assert set(covartest.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(covartest, name) is not None
