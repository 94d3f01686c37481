"""Resampling-based tests for covariance and correlation matrix hypotheses."""

from .combined import CombinedReport, combined_test
from .engine import TestReport, run_test, statistic_covariance
from .estimation import GroupedSample, MomentEstimates, pool_estimates
from .hypotheses import (
    HypothesisSpec,
    custom_hypothesis,
    predefined_hypothesis,
    structure_hypothesis,
)

__version__ = "0.1.0"

__all__ = [
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
]
