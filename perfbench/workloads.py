"""Workload definitions and the calls the benchmark makes into covartest.

Every workload runs all five call kinds, so every end-to-end metric exists
on every workload; what differs is the input size each kind sees and so
which layer dominates:

* ``sim_small`` -- the size-study loop: d = 6, two groups of 60, B = 2000.
  Reference draws dominate (BT above all).
* ``highdim`` -- d = 40, three groups of 100, B = 1000.  The dense
  a*p x a*p pooled matrix, the contrast and the m x m eigenproblem
  dominate MC and TAY; the combined test runs on the first two groups.
* ``cli_bigcsv`` -- a 200 000-row CSV with d = 6 and two randomly
  interleaved groups.  Per-cell parsing in ``cli.ingest`` dominates the
  CLI call; the in-process kinds see tiny p against huge n.

BT costs minutes per call at d = 40 or n_i = 100 000 at the seed, so
``highdim`` and ``cli_bigcsv`` run BT on a fresh d = 12, n_i = 200 sample
with B = 500 instead.

Inputs come only from the workload seed: the null covariance, the CSV
sample, each iteration's samples and every per-test ``seed=``.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import cached_property

import numpy as np

import oracle

KINDS = ("mc", "bt", "tay", "combined", "cli")
ALPHA = 0.05
CLI_TIMEOUT_S = 150



@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int] | None  # (a, d, n_i) drawn per iteration; None: the CSV sample
    B: int  # repetitions of mc, tay and combined
    bt_shape: tuple[int, int, int]
    bt_B: int
    csv_shape: tuple[int, int, int]
    cli_hypothesis: str
    cli_B: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_small", (2, 6, 60), 2000, (2, 6, 60), 2000, (2, 6, 60), "equal", 2000),
        Workload("highdim", (3, 40, 100), 1000, (2, 12, 200), 500, (3, 40, 100), "equal-diagonals", 1000),
        Workload("cli_bigcsv", None, 1000, (2, 12, 200), 500, (2, 6, 100_000), "equal", 1000),
    )
}


class Sample:
    """One grouped sample and its oracle quantities, computed on demand."""

    def __init__(self, groups: tuple[np.ndarray, ...]) -> None:
        self.groups = groups

    @cached_property
    def covariance(self) -> oracle.AnovaOracle:
        return oracle.anova_oracle(self.groups, "covariance", "equal")

    @cached_property
    def correlation(self) -> oracle.AnovaOracle:
        return oracle.anova_oracle(self.groups, "correlation", "equal-correlated")

    @cached_property
    def combined(self) -> np.ndarray:
        return oracle.combined_oracle(self.groups[:2])


def null_sample(rng: np.random.Generator, shape: tuple[int, int, int]) -> Sample:
    """Gaussian groups sharing one covariance: AR(0.5) correlation, random scales."""
    a, d, n = shape
    lag = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    scale = np.exp(rng.uniform(-0.5, 0.5, d))
    L = np.linalg.cholesky(0.5 ** lag * np.outer(scale, scale))
    return Sample(tuple(L @ rng.standard_normal((d, n)) for _ in range(a)))


def write_csv(path: str, sample: Sample, rng: np.random.Generator) -> Sample:
    """Write the groups as rows with a group column, interleaved at random.

    Values are written with 17 significant digits so the CLI reads back the
    exact doubles.  Returns the sample in the CLI's group order, which is
    the order of first appearance in the file.
    """
    X = np.hstack(sample.groups).T
    labels = np.repeat(np.arange(len(sample.groups)), [g.shape[1] for g in sample.groups])
    order = rng.permutation(len(labels))
    X, labels = X[order], labels[order]
    d = X.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(d)) + ",g\n")
        for lo in range(0, len(X), 20_000):
            rows = X[lo:lo + 20_000]
            labs = labels[lo:lo + 20_000]
            fh.write("".join(
                ",".join(format(v, ".17g") for v in row) + f",g{lab + 1}\n"
                for row, lab in zip(rows.tolist(), labs.tolist())
            ))
    first_seen = list(dict.fromkeys(labels.tolist()))
    return Sample(tuple(X[labels == g].T.copy() for g in first_seen))


@dataclass
class Outcome:
    """One call into covartest: wall time and what the oracle found wrong."""

    seconds: float
    problems: list[str]


class Calls:
    """The five call kinds, each checked by the oracle."""

    def __init__(self, workload: Workload, csv_path: str, csv_sample: Sample, env: dict) -> None:
        import covartest
        import covartest.cli

        self.ct = covartest
        self.cli = covartest.cli
        self.w = workload
        self.csv_path = csv_path
        self.csv_sample = csv_sample
        self.cli_oracle = oracle.anova_oracle(csv_sample.groups, "covariance", workload.cli_hypothesis)
        self.env = env

    def test_args(self, kind: str, main: Sample, bt: Sample):
        """(sample, target, hypothesis, method, B) of an Anova-type kind."""
        if kind == "mc":
            return main, "covariance", "equal", "MC", self.w.B
        if kind == "bt":
            return bt, "covariance", "equal", "BT", self.w.bt_B
        return main, "correlation", "equal-correlated", "TAY", self.w.B

    def cli_argv(self, seed: int) -> list[str]:
        return [
            "--data", self.csv_path, "--group-column", "g", "--target", "covariance",
            "--hypothesis", self.w.cli_hypothesis, "--method", "MC",
            "--repetitions", str(self.w.cli_B), "--seed", str(seed), "--output", "json",
        ]

    def run(self, kind: str, main: Sample, bt: Sample, seed: int, in_process: bool = False) -> Outcome:
        """One call: timed, then checked outside the timed region.

        ``in_process`` runs the CLI kind through ``cli.main`` in this
        process instead of a subprocess, so that a traced run sees its parts.
        """
        if kind == "cli" and in_process:
            t0 = time.perf_counter()
            code, out = self._cli_in_process(seed)
            dt = time.perf_counter() - t0
            return Outcome(dt, self._check_cli(code, out, seed))
        if kind == "cli":
            cmd = [sys.executable, "-m", "covartest.cli", *self.cli_argv(seed)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            dt = time.perf_counter() - t0
            return Outcome(dt, self._check_cli(proc.returncode, proc.stdout, seed, proc.stderr))
        if kind == "combined":
            gs = self.ct.GroupedSample(main.groups[:2])
            t0 = time.perf_counter()
            report = self.ct.combined_test(gs, repetitions=self.w.B, seed=seed, alpha=ALPHA)
            dt = time.perf_counter() - t0
            return Outcome(dt, oracle.check_combined(report, main.combined, self.w.B, seed, ALPHA))
        sample, target, hyp, method, B = self.test_args(kind, main, bt)
        gs = self.ct.GroupedSample(sample.groups)
        a, d = len(sample.groups), sample.groups[0].shape[0]
        t0 = time.perf_counter()
        spec = self.ct.predefined_hypothesis(hyp, target, a, d)
        report = self.ct.run_test(gs, spec, method=method, repetitions=B, seed=seed)
        dt = time.perf_counter() - t0
        expect = sample.covariance if target == "covariance" else sample.correlation
        return Outcome(dt, oracle.check_test(report, expect, method, B, seed))

    def combined_repeats(self, main: Sample, seed: int) -> Outcome:
        """The same seed twice must give an identical combined report."""
        gs = self.ct.GroupedSample(main.groups[:2])
        t0 = time.perf_counter()
        r1, r2 = (self.ct.combined_test(gs, repetitions=self.w.B, seed=seed, alpha=ALPHA) for _ in range(2))
        dt = time.perf_counter() - t0
        return Outcome(dt, [] if oracle.same_combined(r1, r2) else ["combined report differs between two runs of one seed"])

    def _check_cli(self, code: int, stdout: str, seed: int, stderr: str = "") -> list[str]:
        if code != 0:
            return [f"covartest exited {code}: {stderr.strip()[-300:]}"]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"covartest printed no JSON document: {exc}"]
        return oracle.check_cli_json(payload, self.cli_oracle, self.w.cli_B, seed)

    def _cli_in_process(self, seed: int) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(self.cli_argv(seed))
        return code, buf.getvalue()

    def trace_points(self) -> list:
        """What the traced run wraps: (module, attribute, span, measure).

        The benchmark's own calls go through the ``covartest`` and
        ``covartest.cli`` attributes, the entry points' inner calls through
        the names each module imported.  Only the CLI's own
        ``statistic_covariance`` call is wrapped; ``mc_reference`` computes H
        inside its own span.
        """
        ct, cli = self.ct, self.cli
        engine, combined = sys.modules["covartest.engine"], sys.modules["covartest.combined"]

        def pooled_mb(est, *args, **kwargs):
            nbytes = est.Sigma_pooled.nbytes
            if est.Upsilon_pooled is not None:
                nbytes += est.Upsilon_pooled.nbytes
            return {"estimation.pooled_mb": nbytes / 2**20}

        def contrast_mb(spec, *args, **kwargs):
            return {"hypotheses.contrast_mb": spec.C.nbytes / 2**20}

        pool = ("estimation.pool_estimates", pooled_mb)
        build = ("hypotheses.build", contrast_mb)
        run_test = ("engine.run_test", None)
        return [
            (ct, "predefined_hypothesis", *build),
            (ct, "run_test", *run_test),
            (ct, "combined_test", "combined.combined_test", None),
            (cli, "main", "cli.main", None),
            (cli, "ingest", "cli.ingest", lambda gs, *a, **k: {"cli.rows": gs.N}),
            (cli, "predefined_hypothesis", *build),
            (cli, "pool_estimates", *pool),
            (cli, "run_test", *run_test),
            (cli, "statistic_covariance", "engine.statistic_covariance", None),
            (engine, "pool_estimates", *pool),
            (engine, "ats", "engine.ats", None),
            (engine, "mc_reference", "engine.mc_reference", lambda ref, spec, *a, **k: {"engine.eig_dim": spec.m}),
            (engine, "bootstrap_reference", "engine.bootstrap_reference", None),
            (engine, "taylor_reference", "engine.taylor_reference", None),
            (combined, "pool_estimates", *pool),
            (combined, "simulate_reference", "combined.simulate_reference", None),
            (combined, "calibrate_beta", "combined.calibrate_beta", None),
        ]
