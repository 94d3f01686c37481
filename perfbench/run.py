"""covartest benchmark: per-kind test latency, oracle-checked, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_small --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one process, one call at a
time, BLAS threads at the machine default.  After set-up and one warm-up
iteration (its calls are checked but not timed into the metrics), the run
repeats iterations for ``--seconds``, and at least ``MIN_ITERATIONS``
times so that every median has samples; an iteration draws fresh inputs and
makes one call of each kind: ``mc``, ``bt``, ``tay`` (``run_test`` from a
GroupedSample to its report, hypothesis build included), ``combined``
(``combined_test``) and ``cli`` (a ``covartest ... --output json``
subprocess on the CSV written at set-up).  Every output is checked
against the independent oracle in ``oracle.py``.

With ``--trace 0`` the last line reports the end-to-end metrics: the
median of each kind's call time, ``setup_s`` (median wall time of a fresh
interpreter running ``import covartest.cli``) and ``peak_rss_mb``.  With
``--trace 1`` the public functions the calls pass through are wrapped in
spans (see ``spans.py``) and the CLI kind runs ``cli.main`` in-process; the
last line reports per-layer times and self times (median over iterations
of the per-iteration sum), counts, import times from ``python -X
importtime`` and ``trace.overhead_s``, the tracer's own time per
iteration.  ``attempted`` and ``failed`` count every call into covartest;
their ratio is the error rate.  Spans and samples go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import KINDS, WORKLOADS, Calls, Outcome, null_sample, write_csv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
MIN_ITERATIONS = 5

END_TO_END = {
    "mc_s": "s", "bt_s": "s", "tay_s": "s", "combined_s": "s", "cli_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.bootstrap_reference_s": "s",
    "engine.taylor_reference_s": "s",
    "engine.mc_reference_s": "s",
    "engine.ats_s": "s",
    "engine.statistic_covariance_s": "s",
    "engine.run_test_self_s": "s",
    "engine.eig_dim": "count",
    "combined.simulate_reference_s": "s",
    "combined.calibrate_beta_s": "s",
    "combined.self_s": "s",
    "estimation.pool_estimates_s": "s",
    "estimation.pooled_mb": "MB",
    "hypotheses.build_s": "s",
    "hypotheses.contrast_mb": "MB",
    "cli.ingest_s": "s",
    "cli.ingest_rows_per_s": "1/s",
    "cli.self_s": "s",
    "import.numpy_s": "s",
    "import.covartest_s": "s",
    "trace.overhead_s": "s",
}
# span -> layer metric that sums its duration, or for entry points its self time
SPAN_TIME = {
    "engine.bootstrap_reference": "engine.bootstrap_reference_s",
    "engine.taylor_reference": "engine.taylor_reference_s",
    "engine.mc_reference": "engine.mc_reference_s",
    "engine.ats": "engine.ats_s",
    "engine.statistic_covariance": "engine.statistic_covariance_s",
    "combined.simulate_reference": "combined.simulate_reference_s",
    "combined.calibrate_beta": "combined.calibrate_beta_s",
    "estimation.pool_estimates": "estimation.pool_estimates_s",
    "hypotheses.build": "hypotheses.build_s",
    "cli.ingest": "cli.ingest_s",
}
SPAN_SELF = {
    "engine.run_test": "engine.run_test_self_s",
    "combined.combined_test": "combined.self_s",
    "cli.main": "cli.self_s",
}
# computed counts: the largest value an iteration records; other counts add up
COUNT_MAX = ("engine.eig_dim", "estimation.pooled_mb", "hypotheses.contrast_mb")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": workload,
        "seed": seed,
    }


def tail_summary(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g} {np.percentile(values, q):.6g} s"
    return "no percentile has ten samples beyond it"


def fresh_interpreter(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)


def setup_times(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing covartest.cli; one warm-up."""
    out = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        fresh_interpreter(["-c", "import covartest.cli"], env)
        out.append(time.perf_counter() - t0)
    return out[1:]


def import_times(env: dict) -> dict[str, float]:
    """Median numpy and covartest import shares from -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(IMPORT_REPEATS + 1):
        err = fresh_interpreter(["-X", "importtime", "-c", "import covartest.cli"], env).stderr
        cum = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) * 1e-6
        numpy_s.append(cum["numpy"])
        own_s.append(cum["covartest.cli"] - cum["numpy"])
    return {"import.numpy_s": statistics.median(numpy_s[1:]),
            "import.covartest_s": statistics.median(own_s[1:])}


class Run:
    """The measurement loop of one workload, untraced or traced."""

    def __init__(self, workload, seed: int, trace: bool, calls: Calls) -> None:
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.calls = calls
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {k: [] for k in KINDS}

    def inputs(self, k: int):
        """Iteration k's samples and per-kind seeds, a function of (seed, k)."""
        rng = np.random.default_rng([self.seed, 0, k])
        main = self.calls.csv_sample if self.w.shape is None else null_sample(rng, self.w.shape)
        bt = main if self.w.bt_shape == self.w.shape else null_sample(rng, self.w.bt_shape)
        seeds = {kind: int(s) for kind, s in zip(KINDS, rng.integers(0, 2**31, len(KINDS)))}
        return main, bt, seeds

    def record(self, tid: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{tid}: {p}" for p in problems]

    def attempt(self, tid: str, call) -> Outcome | None:
        """Make one checked call; a call that raises counts as failed."""
        try:
            out = call()
        except Exception as exc:  # keep measuring; the failure is reported
            self.record(tid, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.record(tid, out.problems)
        return out

    def iteration(self, k: int, timed: bool) -> None:
        main, bt, seeds = self.inputs(k)
        for kind in KINDS:
            tid = self.tracer.test = f"{k}.{kind}"
            out = self.attempt(tid, lambda: self.calls.run(kind, main, bt, seeds[kind], self.trace))
            if out is not None and timed and not self.trace:
                self.samples[kind].append(out.seconds)
        if k == 0:
            self.tracer.test = "0.combined"
            self.attempt("0.combined", lambda: self.calls.combined_repeats(main, seeds["combined"]))

    def measure(self, seconds: float) -> int:
        """Warm up, then run timed iterations; returns how many ran."""
        self.iteration(0, timed=False)
        start = time.perf_counter()
        took = []
        while True:
            t0 = time.perf_counter()
            self.iteration(len(took) + 1, timed=True)
            took.append(time.perf_counter() - t0)
            # no new iteration that would overrun by more than half of one
            if (len(took) >= MIN_ITERATIONS
                    and time.perf_counter() - start + 0.5 * statistics.fmean(took) >= seconds):
                return len(took)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the timed iterations; warm-up spans are left out."""
        spans = self.tracer.spans
        selfs = self.tracer.self_times()
        per_iter: dict[str, dict[str, float]] = {}

        def add(it: str, name: str, value: float, combine=float.__add__) -> None:
            slot = per_iter.setdefault(it, {})
            slot[name] = combine(slot[name], value) if name in slot else value

        for s, own in zip(spans, selfs):
            it = s.test.split(".")[0]
            if it == "0":
                continue
            add(it, "trace.overhead_s", s.cost)
            if s.name in SPAN_TIME:
                add(it, SPAN_TIME[s.name], s.duration)
            elif s.name in SPAN_SELF:
                add(it, SPAN_SELF[s.name], own)
        ingest = {s.test: s.duration for s in spans if s.name == "cli.ingest"}
        for name, value, test in self.tracer.counts:
            it = test.split(".")[0]
            if it == "0":
                continue
            if name in COUNT_MAX:
                add(it, name, value, max)
            elif name == "cli.rows":
                add(it, "cli.ingest_rows_per_s", value / ingest[test])
            else:
                add(it, name, value)
        iters = sorted(per_iter)
        return {m: statistics.median(per_iter[it][m] for it in iters if m in per_iter[it])
                for m in PER_LAYER if any(m in per_iter[it] for it in iters)}

    def raised_by_layer(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.tracer.spans:
            if s.raised:
                out[s.name] = out.get(s.name, 0) + 1
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "covartest" / "__init__.py").is_file():
        print(f"run.py: error: no covartest sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    machine = machine_record(w.name, args.seed)
    print("machine: " + json.dumps(machine))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        rng = np.random.default_rng([args.seed, 1])
        csv_path = str(Path(tmp) / "data.csv")
        csv_sample = write_csv(csv_path, null_sample(rng, w.csv_shape), rng)
        calls = Calls(w, csv_path, csv_sample, env)
        run = Run(w, args.seed, bool(args.trace), calls)
        if args.trace:
            imports = import_times(env)
            with run.tracer.patched(calls.trace_points()):
                iterations = run.measure(args.seconds)
        else:
            setup = setup_times(env)
            iterations = run.measure(args.seconds)

    if args.trace:
        metrics = {**run.layer_metrics(), **imports}
        units = PER_LAYER
    else:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {f"{k}_s": statistics.median(v) for k, v in run.samples.items()}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        units = END_TO_END
        for kind, values in run.samples.items():
            print(f"{kind}_s: median {statistics.median(values):.6g} s, "
                  f"{tail_summary(values)}, n={len(values)}")
        print(f"setup_s: median {metrics['setup_s']:.6g} s, {tail_summary(setup)}, n={len(setup)}")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    failed = run.failed
    print(f"iterations: {iterations}; error_rate: {failed}/{run.attempted} = "
          f"{failed / max(run.attempted, 1):.4g} ratio")
    if args.trace:
        for layer, count in sorted(run.raised_by_layer().items()):
            print(f"raised: {layer} {count}")
        cost: dict[str, float] = {}
        for s in run.tracer.spans:
            if not s.test.startswith("0."):
                cost[s.test] = cost.get(s.test, 0.0) + s.cost
        for kind in KINDS:
            values = [v for t, v in cost.items() if t.endswith(f".{kind}")]
            if values:
                print(f"trace.overhead_s[{kind}]: median {statistics.median(values):.3g} s per call, n={len(values)}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    record = {"machine": machine, "iterations": iterations, "result": result,
              "samples": run.samples, "problems": run.problems}
    if args.trace:
        record["trace"] = run.tracer.as_dict()
        record["raised"] = run.raised_by_layer()
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
