#!/usr/bin/env python3
"""End-to-end demonstration on synthetic two-group data.

Generates Gaussian samples whose covariance matrices genuinely differ,
writes them to a CSV in a temporary directory, and then drives the
command line interface exactly as a user would: a covariance equality
test, a correlation structure test with the Taylor engine, a custom
contrast supplied through files, and the combined variance/correlation
test.  All runs are seeded, so the printed output is reproducible.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from covartest import GroupedSample
from covartest.cli import main as cli_main, write_csv


def make_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(42)
    idx = np.arange(3)
    V1 = 0.6 ** np.abs(idx[:, None] - idx[None, :])
    V2 = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
    V2[0, 0] = 2.0
    groups = (
        np.linalg.cholesky(V1) @ rng.standard_normal((3, 60)),
        np.linalg.cholesky(V2) @ rng.standard_normal((3, 55)),
    )
    write_csv(GroupedSample(groups), str(path), group_column="group")
    return groups


def run(argv: list[str]) -> None:
    print(f"$ covartest {' '.join(argv)}")
    code = cli_main(argv)
    print(f"[exit {code}]")
    print()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        data = tmpdir / "demo.csv"
        groups = make_dataset(data)
        # structure hypotheses describe one population, so the first
        # group goes into its own ungrouped file
        single = tmpdir / "demo_group1.csv"
        write_csv(GroupedSample(groups[:1]), str(single))
        print(f"synthetic dataset written to {data}")
        print()

        common = ["--data", str(data), "--group-column", "group"]

        # two-sided equality of the two covariance matrices
        run(common + [
            "--target", "covariance", "--hypothesis", "equal",
            "--method", "BT", "--repetitions", "1000", "--seed", "7",
        ])

        # autoregressive correlation pattern within the first group
        run([
            "--data", str(single),
            "--target", "correlation-structure", "--structure", "har",
            "--method", "TAY", "--repetitions", "1000", "--seed", "7",
        ])

        # the same equality hypothesis expressed as an explicit contrast
        C = np.kron(
            np.eye(2) - np.full((2, 2), 0.5),
            np.eye(6),
        )
        C_path = tmpdir / "contrast.csv"
        zeta_path = tmpdir / "zeta.csv"
        np.savetxt(C_path, C, delimiter=",")
        np.savetxt(zeta_path, np.zeros(12), delimiter=",")
        run(common + [
            "--target", "covariance", "--C", str(C_path),
            "--zeta", str(zeta_path),
            "--method", "MC", "--repetitions", "1000", "--seed", "7",
            "--output", "json",
        ])

        # simultaneous variance and correlation comparison
        run(common + [
            "--target", "combined",
            "--repetitions", "1000", "--seed", "7",
        ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
