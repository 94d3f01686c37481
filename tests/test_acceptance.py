"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line on the terminal even under pytest's output capture.  Criterion 9
needs the optional EEG fixture at ``tests/fixtures/eeg_wide.csv`` and is
skipped when the file is absent.
"""

import csv
import json
import os

import numpy as np
import pytest
from scipy import stats

from covartest.cli import main
from covartest.combined import (
    calibrate_beta,
    combined_test,
    simulate_reference,
)
from covartest.engine import ats, mc_reference, run_test
from covartest.estimation import (
    GroupedSample,
    _jacobian_terms,
    pool_estimates,
)
from covartest.hypotheses import (
    COVARIANCE,
    CORRELATION,
    predefined_hypothesis,
    structure_hypothesis,
)
from covartest.linalg import full_length, strict_length, vech, vech_strict
from conftest import gaussian_sample, make_spd, synthetic_estimates
from reference_loops import calibration_rejection_rate, dense_sigma, unvech

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "eeg_wide.csv")


def _verdict(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num:02d} ({label}): {status}", flush=True)
    assert not failures, f"criterion {num} ({label}):\n" + "\n".join(failures)


@pytest.fixture(autouse=True)
def _verdicts_reach_terminal(capsys):
    # re-emit the verdict lines outside the capture machinery so a plain
    # `pytest` run still shows one line per criterion
    yield
    captured = capsys.readouterr().out
    with capsys.disabled():
        for line in captured.splitlines():
            if line.startswith("[acceptance]"):
                print(line, flush=True)


# --------------------------------------------------------------- criterion 1

def _oracle_cov(X):
    d, n = X.shape
    mean = [sum(X[j, t] for t in range(n)) / n for j in range(d)]
    S = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            S[j, k] = sum(
                (X[j, t] - mean[j]) * (X[k, t] - mean[k]) for t in range(n)
            ) / (n - 1)
    return S


def _oracle_fourth(X):
    d, n = X.shape
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    p = len(pairs)
    mean = [sum(X[j, t] for t in range(n)) / n for j in range(d)]
    Xc = X - np.asarray(mean)[:, None]
    A = np.zeros((d, d))
    for t in range(n):
        for j in range(d):
            for k in range(d):
                A[j, k] += Xc[j, t] * Xc[k, t] / n
    S = np.zeros((p, p))
    for t in range(n):
        y = [Xc[j, t] * Xc[k, t] - A[j, k] for (j, k) in pairs]
        for s in range(p):
            for u in range(p):
                S[s, u] += y[s] * y[u] / (n - 1)
    return S


def _oracle_corr(X):
    d = X.shape[0]
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            xj = X[j] - X[j].mean()
            xk = X[k] - X[k].mean()
            out.append((xj @ xk) / np.sqrt((xj @ xj) * (xk @ xk)))
    return np.asarray(out)


def test_criterion_01_estimator_oracles():
    rng = np.random.default_rng(101)
    failures = []
    for case in range(200):
        d = (2, 3, 4)[case % 3]
        n = int(rng.integers(5, 51))
        kind = case % 4
        if kind == 0:
            X = rng.standard_normal((d, n))
        elif kind == 1:
            X = gaussian_sample(rng, make_spd(rng, d), n) + rng.uniform(-2, 2, (d, 1))
        elif kind == 2:
            X = rng.uniform(-1, 3, (d, n)) * rng.uniform(0.2, 5.0, (d, 1))
        else:
            X = rng.exponential(1.5, (d, n)) - 1.0
        est = pool_estimates(GroupedSample((X,)))
        dv = np.abs(est.vhat[0] - vech(_oracle_cov(X))).max()
        if dv > 1e-12:
            failures.append(f"case {case}: covariance vector off by {dv:.2e}")
        dr = np.abs(est.rhat[0] - _oracle_corr(X)).max()
        if dr > 1e-12:
            failures.append(f"case {case}: correlation vector off by {dr:.2e}")
        # the package's exact factor F, through F F^T
        dS = np.abs(dense_sigma(est)[0] - _oracle_fourth(X)).max()
        if dS > 1e-10:
            failures.append(f"case {case}: fourth-moment covariance off by {dS:.2e}")
    _verdict(1, "estimators match brute-force oracles", failures)


# --------------------------------------------------------------- criterion 2

def test_criterion_02_jacobians_match_finite_differences():
    rng = np.random.default_rng(202)
    failures = []
    h = 1e-6

    def fd(f, x):
        J = []
        for t in range(len(x)):
            e = np.zeros_like(x)
            e[t] = h
            J.append((f(x + e) - f(x - e)) / (2 * h))
        return np.asarray(J).T

    def corr_map(v):
        V = unvech(np.asarray(v))
        sd = np.sqrt(np.diag(V))
        R = V / np.outer(sd, sd)
        return vech_strict((R + R.T) / 2.0)

    def in_domain(transform, theta):
        try:
            transform(theta)
        except ValueError:
            return False
        return True

    ar_spec = structure_hypothesis("autoregressive", COVARIANCE, 4)
    har_spec = structure_hypothesis("hautoregressive", CORRELATION, 4)

    for point in range(50):
        d = 3 + point % 2
        V = make_spd(rng, d)
        v = vech(V)
        # the Jacobian assembled from the package's own row coefficients
        J = np.zeros((strict_length(d), full_length(d)))
        for cols, c in _jacobian_terms(np.diag(V), corr_map(v)):
            J[np.arange(len(c)), cols] = c
        F = fd(corr_map, v)
        err = np.abs(J - F).max() / max(1.0, np.abs(J).max())
        if err > 1e-5:
            failures.append(f"correlation jacobian point {point}: error {err:.2e}")

        rho = rng.uniform(0.25, 0.75)
        W = rng.uniform(0.5, 3.0) * rho ** np.abs(
            np.subtract.outer(np.arange(4), np.arange(4))
        )
        W = W + 0.05 * make_spd(rng, 4)
        theta = vech(W)
        if in_domain(ar_spec.transform, theta):
            J = ar_spec.transform(theta)[1]
            F = fd(lambda x: ar_spec.transform(x)[0], theta)
            err = np.abs(J - F).max() / max(1.0, np.abs(J).max())
            if err > 1e-5:
                failures.append(f"ar transform point {point}: error {err:.2e}")
        sd = np.sqrt(np.diag(W))
        theta = vech_strict(W / np.outer(sd, sd))
        if in_domain(har_spec.transform, theta):
            J = har_spec.transform(theta)[1]
            F = fd(lambda x: har_spec.transform(x)[0], theta)
            err = np.abs(J - F).max() / max(1.0, np.abs(J).max())
            if err > 1e-5:
                failures.append(f"har transform point {point}: error {err:.2e}")
    _verdict(2, "jacobians match finite differences", failures)


# --------------------------------------------------------------- criterion 3

def test_criterion_03_mc_single_contrast_quantile():
    rng = np.random.default_rng(303)
    sample = GroupedSample((gaussian_sample(rng, make_spd(rng, 2), 80),))
    est = pool_estimates(sample)
    spec = predefined_hypothesis("given-trace", COVARIANCE, 1, 2, extra=2.0)
    draws = mc_reference(spec, est, B=100000, seed=3030)
    q = float(np.quantile(draws, 0.95))
    target = float(stats.chi2.ppf(0.95, 1))
    failures = []
    if abs(q - target) > 0.1:
        failures.append(f"0.95 quantile {q:.4f} vs chi-square {target:.4f}")
    _verdict(3, "single-contrast MC quantile matches chi-square(1)", failures)


# --------------------------------------------------------------- criterion 4

def test_criterion_04_exact_null_statistics_vanish():
    rng = np.random.default_rng(404)
    failures = []

    def check(label, spec, est):
        val = ats(spec, est)
        if not val <= 1e-10:
            failures.append(f"{label}: statistic {val:.2e}")

    def cs(d, var, cov):
        return np.full((d, d), cov) + (var - cov) * np.eye(d)

    def ar(d, s2, rho):
        return s2 * rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))

    # covariance, one group
    V = make_spd(rng, 4)
    np.fill_diagonal(V, 2.0)
    check("equal a=1", predefined_hypothesis("equal", COVARIANCE, 1, 4),
          synthetic_estimates([V], (40,), rng))
    check("uncorrelated a=1", predefined_hypothesis("uncorrelated", COVARIANCE, 1, 4),
          synthetic_estimates([np.diag([1.0, 2.5, 0.5, 3.0])], (40,), rng))
    V = make_spd(rng, 3)
    check("given-trace", predefined_hypothesis("given-trace", COVARIANCE, 1, 3,
                                               extra=float(np.trace(V))),
          synthetic_estimates([V], (40,), rng))
    check("given-matrix", predefined_hypothesis("given-matrix", COVARIANCE, 1, 3, extra=V),
          synthetic_estimates([V], (40,), rng))

    # covariance, several groups
    V = make_spd(rng, 3)
    check("equal a=3", predefined_hypothesis("equal", COVARIANCE, 3, 3),
          synthetic_estimates([V, V.copy(), V.copy()], (30, 40, 50), rng))
    V1, V2 = make_spd(rng, 3), make_spd(rng, 3)
    V2 = V2 + ((np.trace(V1) - np.trace(V2)) / 3.0) * np.eye(3)
    check("equal-trace a=2", predefined_hypothesis("equal-trace", COVARIANCE, 2, 3),
          synthetic_estimates([V1, V2], (30, 40), rng))
    V1, V2 = make_spd(rng, 3), make_spd(rng, 3)
    np.fill_diagonal(V2, np.diag(V1))
    check("equal-diagonals a=2", predefined_hypothesis("equal-diagonals", COVARIANCE, 2, 3),
          synthetic_estimates([V1, V2], (30, 40), rng))

    # correlation
    R = cs(4, 1.0, 0.4)
    check("equal-correlated a=1",
          predefined_hypothesis("equal-correlated", CORRELATION, 1, 4),
          synthetic_estimates(None, (40,), rng, rmats=[R]))
    R = cs(3, 1.0, 0.3)
    check("equal-correlated a=2",
          predefined_hypothesis("equal-correlated", CORRELATION, 2, 3),
          synthetic_estimates(None, (30, 45), rng, rmats=[R, R.copy()]))
    check("uncorrelated correlation",
          predefined_hypothesis("uncorrelated", CORRELATION, 1, 3),
          synthetic_estimates(None, (40,), rng, rmats=[np.eye(3)]))

    # structures
    structural = {
        ("diagonal", COVARIANCE): np.diag([1.0, 2.0, 3.0, 0.5]),
        ("sphericity", COVARIANCE): 2.5 * np.eye(4),
        ("compoundsymmetry", COVARIANCE): cs(4, 2.0, 0.7),
        ("toeplitz", COVARIANCE): ar(4, 1.0, 0.5) + np.eye(4),
        ("autoregressive", COVARIANCE): ar(4, 2.0, 0.6),
        ("fo-autoregressive", COVARIANCE): ar(4, 2.0, 0.6),
        ("diagonal", CORRELATION): np.eye(4),
        ("hcompoundsymmetry", CORRELATION): cs(4, 1.0, 0.35),
        ("htoeplitz", CORRELATION): ar(4, 1.0, 0.45),
        ("hautoregressive", CORRELATION): ar(4, 1.0, 0.55),
    }
    for (name, target), M in structural.items():
        spec = structure_hypothesis(name, target, 4)
        if target == COVARIANCE:
            est = synthetic_estimates([M], (40,), rng)
        else:
            est = synthetic_estimates(None, (40,), rng, rmats=[M])
        check(f"structure {name} ({target})", spec, est)

    _verdict(4, "exactly conforming parameters give zero statistics", failures)


# --------------------------------------------------------------- criterion 5

# both groups share a compound-symmetry covariance (variance 1, correlation
# 0.7); the null therefore holds for all equality hypotheses, and the design
# keeps the correlations away from zero, the boundary of the parameter space
# where the plug-in estimator of the limiting covariance is most biased at
# n=50 and all engines turn measurably liberal
_SIZE_FACTOR = np.linalg.cholesky(np.full((3, 3), 0.7) + 0.3 * np.eye(3))


def _size_study(method, target_name, runs=500, B=500, n=(50, 50), alpha=0.05):
    root = np.random.SeedSequence(entropy=555 if method != "TAY" else 556)
    spawned = root.spawn(runs)
    if target_name == COVARIANCE:
        spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
    else:
        spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
    rejections = 0
    for ss in spawned:
        rng = np.random.default_rng(ss)
        sample = GroupedSample(
            (
                _SIZE_FACTOR @ rng.standard_normal((3, n[0])),
                _SIZE_FACTOR @ rng.standard_normal((3, n[1])),
            )
        )
        est = pool_estimates(sample, include_correlation=target_name == CORRELATION)
        seed = int(ss.generate_state(3)[2])
        p = run_test(sample, spec, method, B, seed=seed, est=est).p_value
        if p <= alpha:
            rejections += 1
    return rejections / runs


def test_criterion_05_covariance_size_control():
    failures = []
    for method in ("MC", "BT"):
        size = _size_study(method, COVARIANCE)
        if not 0.03 <= size <= 0.08:
            failures.append(f"{method}: empirical size {size:.3f} outside [0.03, 0.08]")
    _verdict(5, "covariance test holds its level (MC, BT)", failures)


# --------------------------------------------------------------- criterion 6

def test_criterion_06_correlation_size_control():
    failures = []
    size = _size_study("TAY", CORRELATION)
    if not 0.03 <= size <= 0.08:
        failures.append(f"TAY: empirical size {size:.3f} outside [0.03, 0.08]")
    _verdict(6, "correlation test holds its level (TAY)", failures)


# --------------------------------------------------------------- criterion 7

def test_criterion_07_combined_calibration_and_size():
    failures = []

    # (a) the calibrated band satisfies its defining inequalities exactly
    rng = np.random.default_rng(707)
    V = make_spd(rng, 3)
    sample = GroupedSample((gaussian_sample(rng, V, 50), gaussian_sample(rng, V, 50)))
    est = pool_estimates(sample)
    draws = simulate_reference(est, B=2000, seed=7070)
    for alpha in (0.01, 0.05, 0.10):
        beta = calibrate_beta(draws, alpha)
        rate = calibration_rejection_rate(draws, beta)
        if rate > alpha:
            failures.append(f"alpha={alpha}: rate {rate} above alpha at beta-tilde")
        bumped = beta + 1.0 / 2000
        if round(bumped * 2000) <= 1999:
            if calibration_rejection_rate(draws, bumped) <= alpha:
                failures.append(f"alpha={alpha}: beta-tilde is not maximal")

    # (b) global size under the null: n=(60,60), d=3, 500 runs
    runs, B, alpha = 500, 1000, 0.05
    rejections = 0
    for ss in np.random.SeedSequence(entropy=757).spawn(runs):
        rng = np.random.default_rng(ss)
        sample = GroupedSample(
            (
                _SIZE_FACTOR @ rng.standard_normal((3, 60)),
                _SIZE_FACTOR @ rng.standard_normal((3, 60)),
            )
        )
        rep = combined_test(sample, repetitions=B, seed=int(ss.generate_state(3)[2]))
        if rep.p_total <= alpha:
            rejections += 1
    size = rejections / runs
    if not 0.02 <= size <= 0.09:
        failures.append(f"combined global size {size:.3f} outside [0.02, 0.09]")
    _verdict(7, "combined test calibration and global level", failures)


# --------------------------------------------------------------- criterion 8

def test_criterion_08_engines_agree_for_large_samples():
    failures = []
    rng = np.random.default_rng(808)
    V = make_spd(rng, 3)
    sample = GroupedSample((gaussian_sample(rng, V, 2000), gaussian_sample(rng, V, 2000)))

    spec = predefined_hypothesis("equal", COVARIANCE, 2, 3)
    est = pool_estimates(sample, include_correlation=False)
    p_mc = run_test(sample, spec, "MC", 10000, seed=8081, est=est).p_value
    p_bt = run_test(sample, spec, "BT", 10000, seed=8082, est=est).p_value
    if abs(p_mc - p_bt) > 0.05:
        failures.append(f"covariance: |p_MC - p_BT| = {abs(p_mc - p_bt):.4f}")

    spec = predefined_hypothesis("equal-correlated", CORRELATION, 2, 3)
    est = pool_estimates(sample)
    p_mc = run_test(sample, spec, "MC", 10000, seed=8083, est=est).p_value
    p_ty = run_test(sample, spec, "TAY", 10000, seed=8084, est=est).p_value
    if abs(p_mc - p_ty) > 0.05:
        failures.append(f"correlation: |p_MC - p_TAY| = {abs(p_mc - p_ty):.4f}")

    _verdict(8, "resampling engines agree on large samples", failures)


# --------------------------------------------------------------- criterion 9

_EEG_VARS = (
    "brainrate_temporal",
    "brainrate_frontal",
    "brainrate_central",
    "complexity_temporal",
    "complexity_frontal",
    "complexity_central",
)


def _load_eeg():
    with open(FIXTURE, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    by_key = {}
    for row in rows:
        sex = row["sex"].strip().upper()
        sex = "F" if sex in ("F", "W", "FEMALE") else "M"
        diag = row["diagnosis"].strip().upper()
        vec = [float(row[v]) for v in _EEG_VARS]
        by_key.setdefault((sex, diag), []).append(vec)
    return {k: np.asarray(v, dtype=float).T for k, v in by_key.items()}


@pytest.mark.skipif(not os.path.exists(FIXTURE), reason="EEG fixture not present")
def test_criterion_09_eeg_case_study():
    failures = []
    data = _load_eeg()

    def approx(label, got, want, tol):
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got:.4f}, want {want} within {tol}")

    females = GroupedSample(tuple(data[("F", g)] for g in ("SCC", "MCI", "AD")))

    spec = predefined_hypothesis("equal", COVARIANCE, 3, 6)
    est = pool_estimates(females, include_correlation=False)
    stat = ats(spec, est)
    approx("covariance equal statistic", stat, 2.6042, 0.0005)
    approx("covariance equal p (MC)",
           run_test(females, spec, "MC", 4000, seed=123, est=est).p_value, 0.024, 0.03)
    approx("covariance equal p (BT)",
           run_test(females, spec, "BT", 4000, seed=124, est=est).p_value, 0.023, 0.03)

    spec = predefined_hypothesis("equal-correlated", CORRELATION, 3, 6)
    est = pool_estimates(females)
    stat = ats(spec, est)
    approx("correlation equal statistic", stat, 0.7432, 0.0005)
    approx("correlation equal p (BT)",
           run_test(females, spec, "BT", 4000, seed=125, est=est).p_value, 0.602, 0.03)
    approx("correlation equal p (TAY)",
           run_test(females, spec, "TAY", 4000, seed=126, est=est).p_value, 0.596, 0.03)

    females_ad = GroupedSample((data[("F", "AD")],))
    spec = structure_hypothesis("compoundsymmetry", COVARIANCE, 6)
    est = pool_estimates(females_ad, include_correlation=False)
    stat = ats(spec, est)
    approx("cs structure statistic", stat, 3.055, 0.001)
    approx("cs structure p (MC)",
           run_test(females_ad, spec, "MC", 4000, seed=127, est=est).p_value, 0.026, 0.03)

    spec = structure_hypothesis("hcompoundsymmetry", CORRELATION, 6)
    est = pool_estimates(females_ad)
    stat = ats(spec, est)
    approx("hcs structure statistic", stat, 5.5229, 0.001)
    p = run_test(females_ad, spec, "MC", 4000, seed=128, est=est).p_value
    if p > 0.031:
        failures.append(f"hcs structure p (MC): got {p:.4f}, want < 0.001 + 0.03")

    males = GroupedSample((data[("M", "AD")], data[("M", "MCI")]))
    rep = combined_test(males, repetitions=2000, seed=129)
    approx("combined p variances", rep.p_variances, 0.418, 0.05)
    approx("combined p correlations", rep.p_correlations, 0.016, 0.05)
    approx("combined p total", rep.p_total, 0.016, 0.05)

    _verdict(9, "EEG case study reproduces published values", failures)


# -------------------------------------------------------------- criterion 10

def test_criterion_10_deterministic_cli_output(tmp_path, capsys):
    failures = []
    rng = np.random.default_rng(1010)
    sample = GroupedSample((rng.standard_normal((3, 30)), rng.standard_normal((3, 35))))
    from covartest.cli import write_csv

    path = tmp_path / "data.csv"
    write_csv(sample, str(path), group_column="g")

    configs = [
        ["--target", "covariance", "--hypothesis", "equal", "--method", "MC"],
        ["--target", "covariance", "--hypothesis", "equal", "--method", "BT"],
        ["--target", "correlation", "--hypothesis", "equal-correlated", "--method", "TAY"],
        ["--target", "combined"],
    ]
    for extra in configs:
        argv = ["--data", str(path), "--group-column", "g", "--repetitions", "600",
                "--seed", "99", "--output", "json", *extra]
        outputs = []
        for _ in range(3):
            code = main(argv)
            out = capsys.readouterr().out
            if code != 0:
                failures.append(f"{extra}: exit code {code}")
            outputs.append(out)
        if not (outputs[0] == outputs[1] == outputs[2]):
            failures.append(f"{extra}: outputs differ across reruns")
        try:
            json.loads(outputs[0])
        except json.JSONDecodeError:
            failures.append(f"{extra}: output is not valid JSON")
    _verdict(10, "identical seeds give byte-identical JSON", failures)
