#!/usr/bin/env python3
"""Empirical size and power study for the resampling tests.

Draws Gaussian groups under a configurable common covariance design,
applies the chosen test to every replicate, and reports the rejection
fraction together with its Monte Carlo standard error.  With
--scale2 != 1 the second group's covariance is multiplied by that
factor, which turns the study into a power curve point for the
equality hypotheses.

Examples:
    python3 scripts/size_study.py --test covariance --method MC --runs 500
    python3 scripts/size_study.py --test correlation --method TAY \
        --design ar --rho 0.7 --runs 500
    python3 scripts/size_study.py --test combined --n 60,60 --runs 500
    python3 scripts/size_study.py --test covariance --method BT \
        --scale2 1.5 --runs 200
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from covartest import GroupedSample, combined_test, predefined_hypothesis, run_test


def design_matrix(kind: str, d: int, rho: float) -> np.ndarray:
    """Common covariance matrix shared by all groups under the null."""
    if kind == "identity":
        return np.eye(d)
    if kind == "cs":
        return np.full((d, d), rho) + (1.0 - rho) * np.eye(d)
    if kind == "ar":
        idx = np.arange(d)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    raise ValueError(f"unknown design {kind!r}")


def run_study(config: argparse.Namespace) -> tuple[float, float]:
    """Rejection fraction and its binomial standard error."""
    V = design_matrix(config.design, config.d, config.rho)
    if min(np.linalg.eigvalsh(V)) <= 0.0:
        raise ValueError("design covariance is not positive definite")
    factors = [np.linalg.cholesky(V)] * len(config.n)
    if config.scale2 != 1.0:
        if len(config.n) < 2:
            raise ValueError("--scale2 needs at least two groups")
        factors[1] = factors[1] * math.sqrt(config.scale2)

    spec = None
    if config.test != "combined":
        spec = predefined_hypothesis(
            config.hypothesis, config.test, len(config.n), config.d
        )

    rejections = 0
    root = np.random.SeedSequence(entropy=config.seed)
    for child in root.spawn(config.runs):
        rng = np.random.default_rng(child)
        groups = tuple(
            factors[i] @ rng.standard_normal((config.d, ni))
            for i, ni in enumerate(config.n)
        )
        sample = GroupedSample(groups)
        # engine seed drawn from the same child sequence keeps every
        # replicate reproducible from the single study seed
        engine_seed = int(child.generate_state(3)[2])
        if config.test == "combined":
            report = combined_test(
                sample,
                repetitions=config.repetitions,
                seed=engine_seed,
                alpha=config.alpha,
            )
            rejections += report.p_total <= config.alpha
        else:
            report = run_test(
                sample,
                spec,
                method=config.method,
                repetitions=config.repetitions,
                seed=engine_seed,
                alpha=config.alpha,
            )
            rejections += report.p_value <= config.alpha

    rate = rejections / config.runs
    se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / config.runs)
    return rate, se


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--test", choices=("covariance", "correlation", "combined"),
        default="covariance",
    )
    parser.add_argument(
        "--hypothesis", default=None,
        help="predefined hypothesis name (default: equal / equal-correlated)",
    )
    parser.add_argument("--method", choices=("MC", "BT", "TAY"), default="MC")
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--n", default="50,50", help="comma-separated group sizes")
    parser.add_argument("--design", choices=("identity", "cs", "ar"), default="ar")
    parser.add_argument("--rho", type=float, default=0.7)
    parser.add_argument("--scale2", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--repetitions", type=int, default=500)
    parser.add_argument("--runs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20250817)

    def error(message: str):  # argparse's own errors end in main, as one line
        raise ValueError(message)

    parser.error = error
    args = parser.parse_args(argv)
    if args.hypothesis is None:
        args.hypothesis = "equal-correlated" if args.test == "correlation" else "equal"
    try:
        args.n = tuple(int(part) for part in args.n.split(","))
    except ValueError:
        raise ValueError(f"--n must be comma-separated integers, got {args.n!r}") from None
    for flag, value, least in (
        ("--runs", args.runs, 1),
        ("--repetitions", args.repetitions, 1),
        ("--d", args.d, 1),
        *(("--n", n_i, 2) for n_i in args.n),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    # nan fails both comparisons, so it is refused with the infinities
    if not 0.0 < args.scale2 < math.inf:
        raise ValueError(f"--scale2 must be finite and positive, got {args.scale2}")
    if not math.isfinite(args.rho):
        raise ValueError(f"--rho must be finite, got {args.rho}")
    if args.test == "combined" and len(args.n) != 2:
        raise ValueError(f"--test combined needs two group sizes in --n, got {len(args.n)}")
    return args


def main(argv: list[str] | None = None) -> int:
    # bad numbers, names and layouts, and repetitions too many to
    # allocate, end in one line and exit code 2
    try:
        config = parse_args(argv)
        start = time.time()
        rate, se = run_study(config)
    except (ValueError, MemoryError) as exc:
        print(f"size_study.py: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - start
    label = config.test if config.test == "combined" else (
        f"{config.test}/{config.hypothesis} [{config.method}]"
    )
    print(f"test:       {label}")
    print(f"design:     {config.design}(rho={config.rho}), d={config.d}, "
          f"n={config.n}, scale2={config.scale2}")
    print(f"engine:     B={config.repetitions}, alpha={config.alpha}, "
          f"seed={config.seed}")
    print(f"runs:       {config.runs}  ({elapsed:.1f}s)")
    print(f"rejection:  {rate:.4f}  (se {se:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
