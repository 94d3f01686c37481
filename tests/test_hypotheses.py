import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import toeplitz

from covartest.engine import ats
from covartest.estimation import GroupedSample, pool_estimates
from covartest.hypotheses import (
    COVARIANCE,
    CORRELATION,
    PREDEFINED,
    STRUCTURES,
    HypothesisSpec,
    custom_hypothesis,
    predefined_hypothesis,
    structure_hypothesis,
)
from covartest.linalg import centering_matrix, vech, vech_strict
from conftest import gaussian_sample, make_spd


def residual(spec, *matrices):
    """Evaluate C f(theta) - zeta on the stacked half-vectors of matrices."""
    parts = []
    for V in matrices:
        hv = vech(V) if spec.target == COVARIANCE else vech_strict(V)
        parts.append(hv)
    theta = np.concatenate(parts)
    if spec.transform is not None:
        theta = spec.transform(theta)[0]
    return spec.C @ theta - spec.zeta


def ar_matrix(d, sigma2=2.0, rho=0.6):
    return sigma2 * rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))


def cs_matrix(d, var=2.0, cov=0.7):
    return np.full((d, d), cov) + (var - cov) * np.eye(d)


# ------------------------------------------------------ predefined catalog

class TestPredefinedCovariance:
    def test_equal_single_group_matrix(self):
        spec = predefined_hypothesis("equal", COVARIANCE, 1, 3)
        expect = np.array(
            [
                [1.0, 0, 0, -1.0, 0, 0],
                [0, 0, 0, 1.0, 0, -1.0],
            ]
        )
        assert_array_equal(spec.C, expect)
        assert_array_equal(spec.zeta, np.zeros(2))

    def test_equal_single_group_null(self):
        spec = predefined_hypothesis("equal", COVARIANCE, 1, 4)
        V = cs_matrix(4)
        assert_allclose(residual(spec, V), np.zeros(3), atol=1e-14)
        V[2, 2] = 9.0
        assert np.abs(residual(spec, V)).max() > 1.0

    def test_equal_multi_group_is_group_centering(self):
        spec = predefined_hypothesis("equal", COVARIANCE, 3, 2)
        assert_array_equal(spec.C, np.kron(centering_matrix(3), np.eye(3)))
        V = make_spd(np.random.default_rng(0), 2)
        assert_allclose(residual(spec, V, V, V), np.zeros(9), atol=1e-14)
        assert np.abs(residual(spec, V, V, 2.0 * V)).max() > 0.01

    def test_uncorrelated_selects_offdiagonals(self):
        spec = predefined_hypothesis("uncorrelated", COVARIANCE, 1, 3)
        expect = np.zeros((3, 6))
        expect[0, 1] = expect[1, 2] = expect[2, 4] = 1.0
        assert_array_equal(spec.C, expect)
        assert_allclose(residual(spec, np.diag([1.0, 2.0, 3.0])), np.zeros(3), atol=0)

    def test_given_trace(self):
        spec = predefined_hypothesis("given-trace", COVARIANCE, 1, 3, extra=6.0)
        assert_array_equal(spec.C, [[1.0, 0, 0, 1.0, 0, 1.0]])
        assert_array_equal(spec.zeta, [6.0])
        V = make_spd(np.random.default_rng(1), 3)
        V *= 6.0 / np.trace(V)
        assert_allclose(residual(spec, V), [0.0], atol=1e-12)

    def test_given_trace_validation(self):
        with pytest.raises(ValueError, match="positive"):
            predefined_hypothesis("given-trace", COVARIANCE, 1, 2, extra=-1.0)
        with pytest.raises(ValueError, match="target trace"):
            predefined_hypothesis("given-trace", COVARIANCE, 1, 2)
        with pytest.raises(ValueError, match="one group"):
            predefined_hypothesis("given-trace", COVARIANCE, 2, 2, extra=1.0)

    def test_given_matrix(self):
        V0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = predefined_hypothesis("given-matrix", COVARIANCE, 1, 2, extra=V0)
        assert_array_equal(spec.C, np.eye(3))
        assert_array_equal(spec.zeta, [2.0, 0.5, 1.0])
        assert_allclose(residual(spec, V0), np.zeros(3), atol=0)

    def test_given_matrix_validation(self):
        with pytest.raises(ValueError, match="2x2"):
            predefined_hypothesis("given-matrix", COVARIANCE, 1, 2, extra=np.eye(3))
        with pytest.raises(ValueError, match="symmetric"):
            predefined_hypothesis(
                "given-matrix", COVARIANCE, 1, 2, extra=np.array([[1.0, 2.0], [0.0, 1.0]])
            )

    def test_equal_trace_rows(self):
        spec = predefined_hypothesis("equal-trace", COVARIANCE, 2, 2)
        assert_array_equal(spec.C, [[1.0, 0, 1.0, -1.0, 0, -1.0]])
        V1 = make_spd(np.random.default_rng(2), 2)
        V2 = make_spd(np.random.default_rng(3), 2)
        V2 *= np.trace(V1) / np.trace(V2)
        assert_allclose(residual(spec, V1, V2), [0.0], atol=1e-12)

    def test_equal_diagonals_rows(self):
        spec = predefined_hypothesis("equal-diagonals", COVARIANCE, 2, 2)
        expect = np.array(
            [
                [1.0, 0, 0, -1.0, 0, 0],
                [0, 0, 1.0, 0, 0, -1.0],
            ]
        )
        assert_array_equal(spec.C, expect)
        V1 = make_spd(np.random.default_rng(4), 2)
        V2 = make_spd(np.random.default_rng(5), 2)
        np.fill_diagonal(V2, np.diag(V1))
        assert_allclose(residual(spec, V1, V2), np.zeros(2), atol=0)

    def test_multi_group_needed(self):
        for name in ("equal-trace", "equal-diagonals"):
            with pytest.raises(ValueError, match="two groups"):
                predefined_hypothesis(name, COVARIANCE, 1, 3)

    def test_equal_needs_two_variables(self):
        with pytest.raises(ValueError, match="d >= 2"):
            predefined_hypothesis("equal", COVARIANCE, 1, 1)

    @pytest.mark.parametrize("a", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    def test_diagonal_contrasts_match_explicit_loop(self, a, d):
        # oracle: group i minus group i + 1 on each diagonal entry of the
        # row-major half-vector, written out entry by entry; kron leaves
        # -0.0 entries, so the comparison is by value
        p = d * (d + 1) // 2
        pairs = [(j, k) for j in range(d) for k in range(j, d)]
        diag = [t for t, (j, k) in enumerate(pairs) if j == k]
        diagonals = np.zeros(((a - 1) * d, a * p))
        trace = np.zeros((a - 1, a * p))
        for i in range(a - 1):
            for r, t in enumerate(diag):
                diagonals[i * d + r, i * p + t] = 1.0
                diagonals[i * d + r, (i + 1) * p + t] = -1.0
                trace[i, i * p + t] = 1.0
                trace[i, (i + 1) * p + t] = -1.0
        for name, expect in (("equal-diagonals", diagonals), ("equal-trace", trace)):
            spec = predefined_hypothesis(name, COVARIANCE, a, d)
            assert_array_equal(spec.C, expect)
            assert_array_equal(spec.zeta, np.zeros(len(expect)))


class TestPredefinedCorrelation:
    def test_equal_correlated_single_group(self):
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 1, 3)
        assert_array_equal(spec.C, centering_matrix(3))
        R = cs_matrix(4, var=1.0, cov=0.4)[:3, :3]
        assert_allclose(residual(spec, R), np.zeros(3), atol=1e-15)

    def test_equal_correlated_needs_three_variables(self):
        with pytest.raises(ValueError, match="d >= 3"):
            predefined_hypothesis("equal-correlated", CORRELATION, 1, 2)

    def test_equal_correlated_multi_group(self):
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
        assert_array_equal(spec.C, np.kron(centering_matrix(2), np.eye(3)))
        R = cs_matrix(3, var=1.0, cov=0.3)
        # groups with different covariances but the same correlation
        # are a null configuration
        def corr(V):
            sd = np.sqrt(np.diag(V))
            return V / np.outer(sd, sd)

        D1, D2 = np.diag([1.0, 2.0, 0.5]), np.diag([3.0, 1.0, 1.0])
        assert_allclose(
            residual(spec, corr(D1 @ R @ D1), corr(D2 @ R @ D2)), np.zeros(6), atol=1e-14
        )

    def test_uncorrelated(self):
        spec = predefined_hypothesis("uncorrelated", CORRELATION, 1, 2)
        assert_array_equal(spec.C, np.eye(1))
        assert_allclose(residual(spec, np.eye(2)), [0.0], atol=0)

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="equal-correlated"):
            predefined_hypothesis("equal", CORRELATION, 1, 3)

    def test_no_extra_parameter(self):
        with pytest.raises(ValueError, match="no extra"):
            predefined_hypothesis("uncorrelated", CORRELATION, 1, 3, extra=1.0)


# -------------------------------------------------------------- structures

CONFORMING = {
    ("diagonal", COVARIANCE): np.diag([1.0, 2.0, 3.0, 0.5]),
    ("sphericity", COVARIANCE): 2.5 * np.eye(4),
    ("compoundsymmetry", COVARIANCE): cs_matrix(4),
    ("toeplitz", COVARIANCE): toeplitz([2.0, 0.8, 0.3, 0.1]),
    ("autoregressive", COVARIANCE): ar_matrix(4),
    ("fo-autoregressive", COVARIANCE): ar_matrix(4),
    ("diagonal", CORRELATION): np.eye(4),
    ("hcompoundsymmetry", CORRELATION): cs_matrix(4, var=1.0, cov=0.35),
    ("htoeplitz", CORRELATION): toeplitz([1.0, 0.5, 0.2, 0.1]),
    ("hautoregressive", CORRELATION): ar_matrix(4, sigma2=1.0, rho=0.55),
}

# every non-autoregressive structure's rows at d = 3, and the
# autoregressive ones at d = 4, written out.  Columns follow the
# half-vector: (1,1), (1,2), (1,3), (2,2), (2,3), (3,3) for the covariance
# and (1,2), (1,3), (2,3) for the correlation at d = 3; at d = 4 the
# autoregressive C has the 10 (or 6) half-vector columns, then the three
# subdiagonal-mean ratios
EXACT_ROWS = {
    ("diagonal", COVARIANCE, 3): [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ],
    ("sphericity", COVARIANCE, 3): [
        [1, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0, -1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ],
    ("compoundsymmetry", COVARIANCE, 3): [
        [1, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0, -1],
        [0, 1, -1, 0, 0, 0],
        [0, 0, 1, 0, -1, 0],
    ],
    ("toeplitz", COVARIANCE, 3): [
        [1, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, 0, -1],
        [0, 1, 0, 0, -1, 0],
    ],
    ("diagonal", CORRELATION, 3): [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ],
    ("hcompoundsymmetry", CORRELATION, 3): [
        [1, -1, 0],
        [0, 1, -1],
    ],
    ("htoeplitz", CORRELATION, 3): [
        [1, 0, -1],
    ],
    ("autoregressive", COVARIANCE, 4): [
        [1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0],
        [0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
    ],
    ("hautoregressive", CORRELATION, 4): [
        [1, 0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, -1, 0, 0, 0],
        [0, 1, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, -1],
    ],
}


class TestStructures:
    @pytest.mark.parametrize("name,target", sorted(CONFORMING, key=str))
    def test_conforming_matrix_satisfies_null(self, name, target):
        spec = structure_hypothesis(name, target, 4)
        V = CONFORMING[(name, target)]
        assert_allclose(residual(spec, V), np.zeros(spec.m), atol=1e-12)

    @pytest.mark.parametrize("name,target", sorted(CONFORMING, key=str))
    def test_generic_matrix_violates_null(self, name, target, rng):
        spec = structure_hypothesis(name, target, 4)
        V = make_spd(rng, 4)
        if target == CORRELATION:
            sd = np.sqrt(np.diag(V))
            V = V / np.outer(sd, sd)
        assert np.abs(residual(spec, V)).max() > 1e-4

    def test_aliases_map_to_same_constraints(self):
        for short, target in [("ar", COVARIANCE), ("diag", COVARIANCE), ("spher", COVARIANCE),
                              ("cs", COVARIANCE), ("toep", COVARIANCE), ("har", CORRELATION),
                              ("hcs", CORRELATION), ("htoep", CORRELATION), ("diag", CORRELATION)]:
            a = structure_hypothesis(short, target, 4)
            b = structure_hypothesis(a.label, target, 4)
            assert_array_equal(a.C, b.C)
            assert_array_equal(a.zeta, b.zeta)

    def test_ar_and_first_order_share_constraints(self):
        a = structure_hypothesis("autoregressive", COVARIANCE, 4)
        b = structure_hypothesis("fo-autoregressive", COVARIANCE, 4)
        assert_array_equal(a.C, b.C)
        assert a.label != b.label

    def test_small_dimension_errors(self):
        for name, target, d in [
            ("diagonal", COVARIANCE, 1),
            ("sphericity", COVARIANCE, 1),
            ("toeplitz", COVARIANCE, 1),
            ("compoundsymmetry", COVARIANCE, 1),
            ("autoregressive", COVARIANCE, 2),
            ("hautoregressive", CORRELATION, 2),
            ("htoeplitz", CORRELATION, 2),
            ("hcompoundsymmetry", CORRELATION, 2),
        ]:
            with pytest.raises(ValueError, match="needs d >="):
                structure_hypothesis(name, target, d)

    def test_unknown_structure_lists_valid(self):
        with pytest.raises(ValueError, match="toeplitz"):
            structure_hypothesis("banded", COVARIANCE, 3)
        with pytest.raises(ValueError, match="hautoregressive"):
            structure_hypothesis("toeplitz", CORRELATION, 3)

    def test_shapes(self):
        assert structure_hypothesis("diagonal", COVARIANCE, 6).C.shape == (15, 21)
        assert structure_hypothesis("compoundsymmetry", COVARIANCE, 3).C.shape == (4, 6)
        assert structure_hypothesis("htoeplitz", CORRELATION, 4).C.shape == (3, 6)

    @pytest.mark.parametrize("name,target,d", sorted(EXACT_ROWS, key=str))
    def test_exact_rows(self, name, target, d):
        spec = structure_hypothesis(name, target, d)
        assert spec.C.dtype == float
        assert_array_equal(spec.C, np.array(EXACT_ROWS[(name, target, d)], dtype=float))
        assert_array_equal(spec.zeta, np.zeros(spec.m))

    @pytest.mark.parametrize("target", [COVARIANCE, CORRELATION])
    @pytest.mark.parametrize("d", range(2, 8))
    def test_uncorrelated_is_the_diagonal_structure(self, target, d):
        a = predefined_hypothesis("uncorrelated", target, 1, d).C
        b = structure_hypothesis("diagonal", target, d).C
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


class TestRatioTransform:
    def test_ar_ratios_recover_the_parameter(self):
        spec = structure_hypothesis("autoregressive", COVARIANCE, 4)
        theta = vech(ar_matrix(4, sigma2=1.7, rho=0.45))
        out = spec.transform(theta)[0]
        assert_array_equal(out[:10], theta)
        assert_allclose(out[10:], [0.45, 0.45, 0.45], atol=1e-12)

    def test_har_ratios_start_from_unit_mean(self):
        spec = structure_hypothesis("hautoregressive", CORRELATION, 4)
        R = ar_matrix(4, sigma2=1.0, rho=0.3)
        theta = vech_strict(R)
        out = spec.transform(theta)[0]
        # first ratio divides by the implicit m_0 = 1
        assert_allclose(out[6:], [0.3, 0.3, 0.3], atol=1e-12)

    def test_domain_violation_raises(self):
        spec = structure_hypothesis("autoregressive", COVARIANCE, 3)
        V = np.eye(3)
        V[0, 1] = V[1, 0] = 0.5
        V[1, 2] = V[2, 1] = -0.5  # first subdiagonal mean is exactly zero
        theta = vech(V)
        with pytest.raises(ValueError, match="ratio undefined"):
            spec.transform(theta)

    def test_domain_ok_on_spd_points(self, rng):
        spec = structure_hypothesis("autoregressive", COVARIANCE, 3)
        theta = vech(ar_matrix(3))
        assert np.all(np.isfinite(spec.transform(theta)[0]))
        assert np.all(np.isfinite(spec.transform(theta)[1]))

    @pytest.mark.parametrize("name,target", [("autoregressive", COVARIANCE), ("hautoregressive", CORRELATION)])
    def test_jacobian_matches_finite_differences(self, rng, name, target):
        spec = structure_hypothesis(name, target, 4)
        for _ in range(20):
            V = ar_matrix(4, sigma2=rng.uniform(0.5, 3.0), rho=rng.uniform(0.2, 0.8))
            V += 0.05 * make_spd(rng, 4)  # push off the exact structure
            hv = vech(V) if target == COVARIANCE else vech_strict(V / np.sqrt(np.outer(np.diag(V), np.diag(V))))
            theta = hv
            J = spec.transform(theta)[1]
            h = 1e-6
            FD = np.empty_like(J)
            for t in range(len(theta)):
                e = np.zeros_like(theta)
                e[t] = h
                FD[:, t] = (spec.transform(theta + e)[0] - spec.transform(theta - e)[0]) / (2 * h)
            scale = max(1.0, np.abs(J).max())
            assert np.abs(J - FD).max() <= 1e-5 * scale


# ----------------------------------------------------------- custom specs

class TestCustomSpec:
    def test_matches_predefined_statistic(self, rng):
        sample = GroupedSample(
            (gaussian_sample(rng, make_spd(rng, 2), 25), gaussian_sample(rng, make_spd(rng, 2), 30))
        )
        est = pool_estimates(sample)
        pre = predefined_hypothesis("equal", COVARIANCE, 2, 2)
        cus = custom_hypothesis(
            np.kron(centering_matrix(2), np.eye(3)), np.zeros(6), COVARIANCE, a=2, d=2
        )
        assert abs(ats(pre, est) - ats(cus, est)) <= 1e-12

    def test_row_scaling_leaves_statistic_unchanged(self, rng):
        sample = GroupedSample((gaussian_sample(rng, make_spd(rng, 3), 40),))
        est = pool_estimates(sample)
        C = predefined_hypothesis("equal", COVARIANCE, 1, 3).C
        a = ats(custom_hypothesis(C, np.zeros(2), COVARIANCE, 1, 3), est)
        b = ats(custom_hypothesis(7.5 * C, np.zeros(2), COVARIANCE, 1, 3), est)
        assert_allclose(a, b, rtol=1e-12)

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="columns"):
            custom_hypothesis(np.ones((1, 4)), [0.0], COVARIANCE, 1, 2)
        with pytest.raises(ValueError, match="zeta"):
            custom_hypothesis(np.ones((2, 3)), [0.0], COVARIANCE, 1, 2)
        with pytest.raises(ValueError, match="zero row"):
            custom_hypothesis(np.array([[1.0, 0, 0], [0, 0, 0]]), [0.0, 0.0], COVARIANCE, 1, 2)
        with pytest.raises(ValueError, match="finite"):
            custom_hypothesis(np.array([[np.inf, 0, 0]]), [0.0], COVARIANCE, 1, 2)
        with pytest.raises(ValueError, match="target"):
            HypothesisSpec(target="precision", dense=np.eye(3), zeta=np.zeros(3), label="x", a=1, d=2)
        with pytest.raises(ValueError, match="two-dimensional"):
            custom_hypothesis(np.ones(3), [0.0], COVARIANCE, 1, 2)

    def test_arrays_stored_uncopied(self):
        # a predefined contrast and a caller's float arrays are kept as given
        spec = predefined_hypothesis("equal", COVARIANCE, 3, 4)
        built = spec.C
        again = HypothesisSpec(target=COVARIANCE, dense=built, zeta=spec.zeta, label="equal", a=3, d=4)
        assert again.dense is built
        assert_array_equal(again.C, spec.C)
        assert np.shares_memory(again.zeta, spec.zeta)
        C = np.array(spec.C)
        assert custom_hypothesis(C, spec.zeta, COVARIANCE, 3, 4).C is C

# ------------------------------------------------------- README catalog

def _readme_section(start: str, end: str) -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text[text.index(start):text.index(end, text.index(start))]


class TestReadmeCatalog:
    """The README documents exactly the names and aliases of the catalog."""

    @pytest.mark.parametrize("target,start,end", [
        (COVARIANCE, "Covariance structures (target", "Correlation structures (target"),
        (CORRELATION, "Correlation structures (target", "The `h` prefix"),
    ])
    def test_structures(self, target, start, end):
        text = _readme_section(start, end)
        pairs = re.findall(r"`([\w-]+)`\s+\(`([\w-]+)`\)", text)
        assert sorted(pairs) == sorted((c, row[0]) for c, row in STRUCTURES[target].items())
        # besides the target, the paragraph names nothing else
        assert len(re.findall(r"`[\w-]+`", text)) == 1 + 2 * len(pairs)

    @pytest.mark.parametrize("target,start,end", [
        (COVARIANCE, "Covariance target:", "Correlation target:"),
        (CORRELATION, "Correlation target:", "Custom linear hypotheses"),
    ])
    def test_predefined(self, target, start, end):
        # name and groups column of every table row
        rows = re.findall(r"^\|\s*`([\w-]+)`.*\|\s*([^|]*?)\s*\|$", _readme_section(start, end), flags=re.M)
        groups = {"1": "one", ">= 2": "several", "any": "any"}
        assert sorted((name, groups[g]) for name, g in rows) == sorted(PREDEFINED[target].items())
