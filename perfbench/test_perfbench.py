"""Self-tests of the benchmark: oracle, tracer, names and the refusal path.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import covartest  # noqa: E402
import covartest.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Calls, null_sample, write_csv  # noqa: E402

B = 2000


@pytest.fixture(scope="module")
def tiny():
    return null_sample(np.random.default_rng(7), (2, 4, 40))


def chi2_even_tail(x: float, k: int) -> float:
    """P(chi2_{2k} > x), a finite Poisson sum."""
    return math.exp(-x / 2) * sum((x / 2) ** j / math.factorial(j) for j in range(k))


@pytest.mark.parametrize("x", [0.3, 2.0, 9.0, 30.0])
def test_imhof_matches_closed_forms(x):
    assert oracle.imhof_tail(x, [1.0] * 10) == pytest.approx(chi2_even_tail(x, 5), abs=1e-8)
    assert oracle.imhof_tail(x, [3.0], [8]) == pytest.approx(chi2_even_tail(x / 3, 4), abs=1e-8)
    assert oracle.imhof_tail(0.0, [1.0, -1.0], [3, 3]) == pytest.approx(0.5, abs=1e-8)


def test_imhof_refuses_too_few_degrees_of_freedom():
    with pytest.raises(ValueError):
        oracle.imhof_tail(1.0, [1.0, 1.0])


@pytest.mark.parametrize("method,target,hyp", [
    ("MC", "covariance", "equal"),
    ("BT", "covariance", "equal"),
    ("TAY", "correlation", "equal-correlated"),
    ("BT", "correlation", "equal-correlated"),
])
def test_oracle_agrees_with_package(tiny, method, target, hyp):
    gs = covartest.GroupedSample(tiny.groups)
    spec = covartest.predefined_hypothesis(hyp, target, 2, 4)
    expect = oracle.anova_oracle(tiny.groups, target, hyp)
    est = covartest.pool_estimates(gs, include_correlation=target == "correlation")
    H = covartest.statistic_covariance(spec, est)
    assert np.abs(H - expect.H).max() < 1e-12 * np.abs(H).max()
    report = covartest.run_test(gs, spec, method=method, repetitions=B, seed=3)
    assert oracle.check_test(report, expect, method, B, 3) == []


def test_oracle_agrees_with_package_combined_and_cli(tiny, tmp_path):
    report = covartest.combined_test(covartest.GroupedSample(tiny.groups), repetitions=B, seed=5)
    assert oracle.check_combined(report, oracle.combined_oracle(tiny.groups), B, 5, 0.05) == []
    path = str(tmp_path / "tiny.csv")
    in_file = write_csv(path, tiny, np.random.default_rng(1))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = covartest.cli.main([
            "--data", path, "--group-column", "g", "--target", "covariance", "--hypothesis",
            "equal", "--repetitions", str(B), "--seed", "9", "--output", "json",
        ])
    assert code == 0
    expect = oracle.anova_oracle(in_file.groups, "covariance", "equal")
    assert oracle.check_cli_json(json.loads(buf.getvalue()), expect, B, 9) == []


def test_oracle_flags_perturbed_outputs(tiny):
    gs = covartest.GroupedSample(tiny.groups)
    spec = covartest.predefined_hypothesis("equal", "covariance", 2, 4)
    expect = oracle.anova_oracle(tiny.groups, "covariance", "equal")
    report = covartest.run_test(gs, spec, method="MC", repetitions=B, seed=3)
    shifted = (report.p_value + 0.1) % 1.0
    assert oracle.check_test(dataclasses.replace(report, p_value=shifted), expect, "MC", B, 3)
    bumped = report.statistic * (1 + 1e-7)
    assert oracle.check_test(dataclasses.replace(report, statistic=bumped), expect, "MC", B, 3)

    comb = covartest.combined_test(gs, repetitions=B, seed=5)
    T = oracle.combined_oracle(tiny.groups)
    assert oracle.check_combined(dataclasses.replace(comb, statistic=comb.statistic * (1 + 1e-7)), T, B, 5, 0.05)
    assert oracle.check_combined(dataclasses.replace(comb, p_total=max(comb.p_total, 0.5) + 1 / B), T, B, 5, 0.05)
    assert not oracle.same_combined(comb, dataclasses.replace(comb, beta_tilde=comb.beta_tilde + 1 / B))


def test_self_time_subtracts_children_and_their_cost():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    spans = tr.spans
    assert [s.parent for s in spans] == [None, 0, 0]
    assert all(s.cost > 0 for s in spans)
    own = tr.self_times()
    assert own[0] == pytest.approx(spans[0].duration - sum(s.duration + s.cost for s in spans[1:]))
    with pytest.raises(RuntimeError), tr.span("boom"):
        raise RuntimeError
    assert tr.spans[-1].raised


def test_patched_calls_nest_inside_the_entry_point(tiny, tmp_path):
    calls = Calls(WORKLOADS["sim_small"], str(tmp_path / "unused.csv"), tiny, {})
    original = covartest.engine.ats
    tr = Tracer()
    with tr.patched(calls.trace_points()):
        assert calls.run("mc", tiny, tiny, seed=3).problems == []
    assert covartest.engine.ats is original
    names = [s.name for s in tr.spans]
    assert names == ["hypotheses.build", "engine.run_test", "estimation.pool_estimates",
                     "engine.ats", "engine.mc_reference"]
    assert [s.parent for s in tr.spans] == [None, None, 1, 1, 1]
    assert {n for n, _, _ in tr.counts} == {"hypotheses.contrast_mb", "estimation.pooled_mb", "engine.eig_dim"}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "sim_small", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_raising_call_counts_as_failed():
    r = run.Run(WORKLOADS["sim_small"], seed=1, trace=False, calls=None)
    assert r.attempt("1.mc", lambda: 1 / 0) is None
    assert (r.attempted, r.failed) == (1, 1)
    assert "ZeroDivisionError" in r.problems[0]
