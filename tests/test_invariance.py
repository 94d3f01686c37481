"""Invariance relations of the hypothesis catalog.

Each relation is stated once and run over every entry of ``STRUCTURES``
(the last one over every correlation entry) with every engine that
applies (TAY takes correlation targets only).  The data are one group at
d = 4: n = 8 runs the estimation branch with n <= d(d+1)/2 and n = 40 the
one with n > d(d+1)/2.

- A common scale 2^k is exact in floating point, so it leaves the
  statistic, the p-value and the critical value byte-identical.
- Reversing the variables preserves every shape in the catalog, Toeplitz
  and autoregressive ones included, so it keeps the statistic to 1e-12.
- Entries that state the same null report one statistic, p-value and
  critical value.
- One variable times 2^k leaves every correlation entry, with every
  engine, and the combined test's beta and block p-values byte-identical,
  in both branches; this relation runs on two groups per branch.

The common scale and the one-variable relation also run on groups at
d = 6 wide enough that their fourth-moment products are summed block by
block of columns.

A relation that fails today is a strict xfail whose reason gives the
measured size of the failure and the ROADMAP item that would mend it.
"""

from __future__ import annotations

import numpy as np
import pytest

from covartest.combined import combined_test
from covartest.engine import run_test
from covartest.estimation import GroupedSample
from covartest.hypotheses import (
    CORRELATION,
    COVARIANCE,
    PREDEFINED,
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
AR_DESIGN = 0.5 ** np.abs(np.subtract.outer(np.arange(D), np.arange(D)))
AR_SAMPLES = _draw(AR_DESIGN)
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


# two groups per branch from the AR(0.5) design, n_i <= 10 and n_i > 10,
# drawn in turn from one default_rng(2) stream
PAIR_SIZES = ((8, 9), (40, 45))
_PAIR_RNG = np.random.default_rng(2)
AR_PAIRS = {sizes: tuple(gaussian_sample(_PAIR_RNG, AR_DESIGN, n) for n in sizes)
            for sizes in PAIR_SIZES}

# every correlation entry as (name, groups), and the combined test
ONE_VARIABLE_CASES = [
    pytest.param(name, a, method, id=f"{name}-{a}-{method}")
    for name, a in [
        *((name, 1) for name in STRUCTURES[CORRELATION]),
        *((name, a) for name, groups in PREDEFINED[CORRELATION].items()
          for a in ((1, 2) if groups == "any" else (1,))),
    ]
    for method in _methods(CORRELATION)
] + [pytest.param("combined", 2, None, id="combined")]


@pytest.mark.parametrize("k", [-100, -30, 20])
@pytest.mark.parametrize("sizes", PAIR_SIZES, ids=["narrow", "wide"])
@pytest.mark.parametrize("name,a,method", ONE_VARIABLE_CASES)
def test_one_variables_units_are_exact_on_correlations(name, a, method, sizes, k):
    # x1 * 2^k scales the covariance factor's rows by powers of two, which
    # M's 1/v entries undo exactly, so nothing on the correlation scale
    # moves; the combined test's variance component for x1 scales by
    # 2^(2k), and its band with it
    groups = AR_PAIRS[sizes][:a]
    scaled = tuple(np.vstack([np.ldexp(X[:1], k), X[1:]]) for X in groups)
    if name == "combined":
        base, moved = (combined_test(GroupedSample(g), seed=1) for g in (groups, scaled))
        assert moved.statistic[1:].tobytes() == base.statistic[1:].tobytes()
        assert moved.statistic[0] == np.ldexp(base.statistic[0], 2 * k)
        assert (moved.beta_tilde, moved.p_variances, moved.p_correlations) == (
            base.beta_tilde, base.p_variances, base.p_correlations)
    else:
        spec = (structure_hypothesis(name, CORRELATION, D) if name in STRUCTURES[CORRELATION]
                else predefined_hypothesis(name, CORRELATION, a, D))
        base, moved = (run_test(GroupedSample(g), spec, method=method, seed=1) for g in (groups, scaled))
        assert (moved.statistic, moved.p_value, moved.critical_value) == (
            base.statistic, base.p_value, base.critical_value)


# groups wider than one block of fourth-moment products (12,483 columns at
# d = 6), the last block ragged, from the AR(0.5) design at d = 6, drawn in
# turn from one default_rng(3) stream
BLOCKED_D = 6
_BLOCKED_RNG = np.random.default_rng(3)
BLOCKED_PAIR = tuple(
    gaussian_sample(_BLOCKED_RNG, 0.5 ** np.abs(np.subtract.outer(np.arange(6), np.arange(6))), n)
    for n in (30_000, 27_001)
)


@pytest.mark.parametrize("target,name,method", _cases(SCALE_FAILURES))
def test_power_of_two_scale_is_exact_beyond_one_block(target, name, method):
    # the blocked Gram centres W by vech(S)/n, which a power of two scales
    # exactly, as it scales W's own means
    X = BLOCKED_PAIR[1]
    spec = structure_hypothesis(name, target, BLOCKED_D)
    base = _report(X, spec, method)
    for k in (-40, 40):
        assert _report(np.ldexp(X, k), spec, method) == base, k


@pytest.mark.parametrize("k", [-100, -30, 20])
@pytest.mark.parametrize("name,a,method", ONE_VARIABLE_CASES)
def test_one_variables_units_are_exact_beyond_one_block(name, a, method, k):
    groups = BLOCKED_PAIR[:a]
    scaled = tuple(np.vstack([np.ldexp(X[:1], k), X[1:]]) for X in groups)
    if name == "combined":
        base, moved = (combined_test(GroupedSample(g), seed=1) for g in (groups, scaled))
        assert moved.statistic[1:].tobytes() == base.statistic[1:].tobytes()
        assert moved.statistic[0] == np.ldexp(base.statistic[0], 2 * k)
        assert (moved.beta_tilde, moved.p_variances, moved.p_correlations) == (
            base.beta_tilde, base.p_variances, base.p_correlations)
    else:
        spec = (structure_hypothesis(name, CORRELATION, BLOCKED_D)
                if name in STRUCTURES[CORRELATION]
                else predefined_hypothesis(name, CORRELATION, a, BLOCKED_D))
        base, moved = (run_test(GroupedSample(g), spec, method=method, seed=1)
                       for g in (groups, scaled))
        assert (moved.statistic, moved.p_value, moved.critical_value) == (
            base.statistic, base.p_value, base.critical_value)
