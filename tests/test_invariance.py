"""Invariance relations of the structure catalog.

Each relation is stated once and run over every entry of ``STRUCTURES``
with every engine that applies (TAY takes correlation targets only).  The
data are one group at d = 4: n = 8 runs the estimation branch with
n <= d(d+1)/2 and n = 40 the one with n > d(d+1)/2.

- A common scale 2^k is exact in floating point, so it leaves the
  statistic, the p-value and the critical value byte-identical.
- Reversing the variables preserves every shape in the catalog, Toeplitz
  and autoregressive ones included, so it keeps the statistic to 1e-12.
- Entries that state the same null report one statistic, p-value and
  critical value.

A relation that fails today is a strict xfail whose reason gives the
measured size of the failure and the ROADMAP item that would mend it.
"""

from __future__ import annotations

import numpy as np
import pytest

from covartest.engine import run_test
from covartest.estimation import GroupedSample
from covartest.hypotheses import (
    CORRELATION,
    COVARIANCE,
    STRUCTURES,
    predefined_hypothesis,
    structure_hypothesis,
)
from conftest import gaussian_sample

D = 4
SIZES = (8, 40)


def _draw(V):
    """One group per size, drawn in turn from one default_rng(1) stream."""
    rng = np.random.default_rng(1)
    return {n: gaussian_sample(rng, V, n) for n in SIZES}


# the AR(0.5) design, and i.i.d. normal data
AR_SAMPLES = _draw(0.5 ** np.abs(np.subtract.outer(np.arange(D), np.arange(D))))
IID_SAMPLES = _draw(np.eye(D))


def _methods(target):
    return ("MC", "BT", "TAY") if target == CORRELATION else ("MC", "BT")


def _report(X, spec, method):
    r = run_test(GroupedSample((X,)), spec, method=method, seed=1)
    return r.statistic, r.p_value, r.critical_value


def _cases(known):
    """(target, name, method) for every entry and engine, strict xfails on ``known``."""
    return [
        pytest.param(target, name, method, id=f"{target}-{name}-{method}",
                     marks=[pytest.mark.xfail(strict=True, reason=known[target, name])]
                     if (target, name) in known else [])
        for target, table in STRUCTURES.items()
        for name in table
        for method in _methods(target)
    ]


_AR_UNITS = (
    "the ratio coordinates m_h/m_(h-1) are unit-free while the linear rows scale with "
    "the data, so the trace weighs the ratio rows by the data's units: the statistic "
    "reads 0.8820 -> 1.5160 at 2^-40 and 0.3342 at 2^40 at n = 40, and 4.6583 -> 6.0345 "
    "and 2.2233 at n = 8; at 2^40 the ratio rows drop out of the trace and the value is "
    "toeplitz's statistic on the same data (ROADMAP item 4: ratio coordinates scaled by m_0)"
)
SCALE_FAILURES = {
    (COVARIANCE, "autoregressive"): _AR_UNITS,
    (COVARIANCE, "fo-autoregressive"): _AR_UNITS,
}

REVERSAL_FAILURES = {
    (COVARIANCE, "compoundsymmetry"): (
        "successive differences of the off-diagonal entries in vech order are not "
        "preserved by reversal, and the statistic depends on how C's rows are written: "
        "it moves by 3.1e-2 relative at n = 40 and 8.6e-2 at n = 8 "
        "(ROADMAP item 4: orthonormal per-group rows)"
    ),
    (CORRELATION, "hcompoundsymmetry"): (
        "successive differences of the correlations in vech order are not preserved by "
        "reversal, and the statistic depends on how C's rows are written: it moves by "
        "4.7e-2 relative at n = 40 and 3.3e-1 at n = 8 "
        "(ROADMAP item 4: orthonormal per-group rows)"
    ),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("target,name,method", _cases(SCALE_FAILURES))
def test_power_of_two_scale_is_exact(target, name, method, n):
    X = AR_SAMPLES[n]
    spec = structure_hypothesis(name, target, D)
    base = _report(X, spec, method)
    for k in (-40, 40):
        assert _report(np.ldexp(X, k), spec, method) == base, k


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("target,name,method", _cases(REVERSAL_FAILURES))
def test_reversed_variables_keep_the_statistic(target, name, method, n):
    X = AR_SAMPLES[n]
    spec = structure_hypothesis(name, target, D)
    base = _report(X, spec, method)[0]
    assert abs(_report(X[::-1], spec, method)[0] - base) <= 1e-12 * abs(base)


SAME_NULL = [
    pytest.param(predefined_hypothesis("uncorrelated", target, 1, D),
                 structure_hypothesis("diagonal", target, D), method,
                 id=f"{target}-uncorrelated-diagonal-{method}")
    for target in (COVARIANCE, CORRELATION)
    for method in _methods(target)
] + [
    pytest.param(structure_hypothesis("ar", COVARIANCE, D),
                 structure_hypothesis("fo-ar", COVARIANCE, D), method,
                 id=f"covariance-ar-fo-ar-{method}")
    for method in _methods(COVARIANCE)
] + [
    pytest.param(predefined_hypothesis("equal-correlated", CORRELATION, 1, D),
                 structure_hypothesis("hcs", CORRELATION, D), method,
                 id=f"correlation-equal-correlated-hcs-{method}",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "one-group equal-correlated is a centering matrix and hcs successive "
                     "differences of the correlations; the statistic depends on how C's rows "
                     "are written: 1.32 against 2.17 at n = 40 and 1.43 against 2.37 at n = 8 "
                     "(ROADMAP item 4: orthonormal per-group rows)")))
    for method in _methods(CORRELATION)
]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("first,second,method", SAME_NULL)
def test_one_statistic_per_null(first, second, method, n):
    X = IID_SAMPLES[n]
    assert _report(X, first, method) == _report(X, second, method)
