"""Command-line front end: CSV in, rendered test report out.

Input files hold one observation per row under a header line; all columns
except an optional categorical group column must be numeric.  Exit codes
separate the failure stages: 2 for configuration errors, 3 for data
errors, 4 for numerical failures during the test itself.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .combined import CombinedReport, combined_test
from .engine import TestReport, fresh_seed, run_test, statistic_covariance
from .estimation import GroupedSample, pool_estimates
from .hypotheses import (
    CORRELATION,
    COVARIANCE,
    custom_hypothesis,
    predefined_hypothesis,
    structure_hypothesis,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_TARGETS = (
    "covariance",
    "correlation",
    "combined",
    "covariance-structure",
    "correlation-structure",
)

_TITLES = {
    "covariance": "Covariance test",
    "correlation": "Correlation test",
    "covariance-structure": "Covariance structure test",
    "correlation-structure": "Correlation structure test",
    "combined": "Combined variance/correlation test",
}


class ConfigError(Exception):
    """Invalid option combination or hypothesis layout."""


class DataError(Exception):
    """Unreadable or ill-formed input data."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated invocation, ready to execute."""

    data: str
    target: str
    group_column: str | None = None
    group_sizes: tuple[int, ...] | None = None
    hypothesis: str | None = None
    C_path: str | None = None
    zeta_path: str | None = None
    structure: str | None = None
    gamma: float | None = None
    matrix_path: str | None = None
    method: str = "MC"
    repetitions: int = 1000
    seed: int | None = None
    alpha: float = 0.05
    output: str = "text"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covartest",
        description=(
            "Resampling-based tests for hypotheses about covariance and "
            "correlation matrices of grouped multivariate data."
        ),
    )
    parser.add_argument("--data", required=True, help="CSV file, one observation per row")
    parser.add_argument("--group-column", help="name of the categorical grouping column")
    parser.add_argument(
        "--group-sizes",
        help="comma-separated group sizes partitioning the rows in order",
    )
    parser.add_argument("--target", required=True, choices=_TARGETS)
    parser.add_argument("--hypothesis", help="name of a predefined hypothesis")
    parser.add_argument("--C", dest="C_path", help="CSV file with a custom contrast matrix")
    parser.add_argument("--zeta", dest="zeta_path", help="CSV file with the custom right-hand side")
    parser.add_argument("--structure", help="name of a structural hypothesis")
    parser.add_argument("--gamma", type=float, help="target trace for 'given-trace'")
    parser.add_argument("--matrix", dest="matrix_path", help="CSV file with the target matrix for 'given-matrix'")
    parser.add_argument("--method", choices=("MC", "BT", "TAY"))
    parser.add_argument("--repetitions", type=int, default=1000)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    return parser


def _parse_group_sizes(raw: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"--group-sizes must be comma-separated integers, got {raw!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"--group-sizes entries must be positive, got {raw!r}")
    return sizes


def _validate_config(args: argparse.Namespace) -> RunConfig:
    target = args.target
    structural = target.endswith("-structure")
    if args.group_column is not None and args.group_sizes is not None:
        raise ConfigError("--group-column and --group-sizes are mutually exclusive")
    sizes = _parse_group_sizes(args.group_sizes) if args.group_sizes is not None else None

    custom = args.C_path is not None or args.zeta_path is not None
    if target == "combined":
        for flag, value in (
            ("--hypothesis", args.hypothesis),
            ("--structure", args.structure),
            ("--C", args.C_path),
            ("--zeta", args.zeta_path),
            ("--gamma", args.gamma),
            ("--matrix", args.matrix_path),
            ("--method", args.method),
        ):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to the combined test")
    elif structural:
        if args.structure is None:
            raise ConfigError(f"target {target!r} requires --structure")
        if args.hypothesis is not None or custom:
            raise ConfigError("structure targets take --structure, not --hypothesis/--C/--zeta")
    else:
        if args.structure is not None:
            raise ConfigError("--structure requires a structure target")
        if custom and (args.C_path is None or args.zeta_path is None):
            raise ConfigError("custom hypotheses need both --C and --zeta")
        if (args.hypothesis is not None) == custom:
            raise ConfigError(
                f"target {target!r} needs exactly one of --hypothesis or --C/--zeta"
            )

    if args.gamma is not None and args.hypothesis != "given-trace":
        raise ConfigError("--gamma only applies to the 'given-trace' hypothesis")
    if args.matrix_path is not None and args.hypothesis != "given-matrix":
        raise ConfigError("--matrix only applies to the 'given-matrix' hypothesis")

    method = args.method if args.method is not None else "MC"
    if method == "TAY" and target not in ("correlation", "correlation-structure", "combined"):
        raise ConfigError("Taylor method applies to correlation targets only")
    if args.repetitions < 1:
        raise ConfigError(f"--repetitions must be positive, got {args.repetitions}")
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.threads < 1:
        raise ConfigError(f"--threads must be positive, got {args.threads}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")

    return RunConfig(
        data=args.data,
        target=target,
        group_column=args.group_column,
        group_sizes=sizes,
        hypothesis=args.hypothesis,
        C_path=args.C_path,
        zeta_path=args.zeta_path,
        structure=args.structure,
        gamma=args.gamma,
        matrix_path=args.matrix_path,
        method=method,
        repetitions=args.repetitions,
        seed=args.seed,
        alpha=args.alpha,
        output=args.output,
    )


def ingest(
    path: str,
    group_column: str | None = None,
    group_sizes: tuple[int, ...] | None = None,
) -> GroupedSample:
    """Read a CSV of observations into a grouped sample.

    Rows are observations, numeric columns are variables.  Groups come from
    the named categorical column (in first-appearance order of its labels)
    or from explicit sizes partitioning the rows in order; with neither,
    all rows form a single group.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path} is empty: no header row") from None
        gidx: int | None = None
        if group_column is not None:
            if group_column not in header:
                raise DataError(f"group column {group_column!r} not found in {path}")
            gidx = header.index(group_column)
        value_idx = [i for i in range(len(header)) if i != gidx]
        if not value_idx:
            raise DataError(f"{path} has no numeric columns besides the group column")
        values: list[list[float]] = []
        labels: list[str] = []
        for rownum, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue  # ignore trailing blank lines
            if len(row) != len(header):
                raise DataError(
                    f"row {rownum} has {len(row)} fields, expected {len(header)}"
                )
            parsed = []
            for i in value_idx:
                cell = row[i].strip()
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell!r} at row {rownum}, "
                        f"column {header[i]!r}"
                    ) from None
            values.append(parsed)
            if gidx is not None:
                labels.append(row[gidx].strip())
    if not values:
        raise DataError(f"{path} contains no observations")
    data = np.asarray(values, dtype=float)

    if gidx is not None:
        order: dict[str, list[int]] = {}
        for i, lab in enumerate(labels):
            order.setdefault(lab, []).append(i)
        groups = [data[idx].T for idx in order.values()]
    elif group_sizes is not None:
        if sum(group_sizes) != len(data):
            raise DataError(
                f"--group-sizes adds up to {sum(group_sizes)} "
                f"but {path} has {len(data)} observations"
            )
        edges = np.cumsum((0,) + group_sizes)
        groups = [data[lo:hi].T for lo, hi in zip(edges[:-1], edges[1:])]
    else:
        groups = [data.T]
    try:
        return GroupedSample(tuple(groups))
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def write_csv(sample: GroupedSample, path: str, group_column: str | None = None) -> None:
    """Serialize a grouped sample back to CSV with exact decimal round-trip."""
    d = sample.d
    header = [f"x{j + 1}" for j in range(d)]
    if group_column is not None:
        header.append(group_column)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, g in enumerate(sample.groups):
            for col in g.T:
                row = [repr(float(x)) for x in col]
                if group_column is not None:
                    row.append(f"g{i + 1}")
                writer.writerow(row)


def _load_array(path: str, what: str, ndmin: int) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", dtype=float, ndmin=ndmin)
    except OSError as exc:
        raise DataError(f"cannot open {what} file {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"ill-formed {what} file {path}: {exc}") from exc


def _format_pvalue(p: float, B: int) -> str:
    if p == 0.0:
        return f"p < {1.0 / B:g}"
    return f"p = {p:.3f}"


def _render_text(report: TestReport, title: str) -> str:
    n_list = ", ".join(str(n) for n in report.n)
    lines = [
        title,
        f"Groups:      {len(report.n)} (n = {n_list})",
        f"Hypothesis:  {report.label}",
        f"Statistic:   {report.statistic:.4f}",
        f"p-value:     {_format_pvalue(report.p_value, report.repetitions)}",
        f"Method:      {report.method}, B = {report.repetitions}",
        f"Seed:        {report.seed}",
    ]
    return "\n".join(lines)


def _render_json(report: TestReport, title: str, H: np.ndarray) -> str:
    payload = {
        "test": title,
        "hypothesis": report.label,
        "target": report.target,
        "groups": len(report.n),
        "n": list(report.n),
        "statistic": report.statistic,
        "p_value": report.p_value,
        "p_display": _format_pvalue(report.p_value, report.repetitions),
        "method": report.method,
        "repetitions": report.repetitions,
        "seed": report.seed,
        "alpha": report.alpha,
        "critical_value": report.critical_value,
        "statistic_covariance": [[float(x) for x in row] for row in H],
    }
    return json.dumps(payload, indent=2)


def _render_combined_text(report: CombinedReport) -> str:
    n_list = ", ".join(str(n) for n in report.n)
    B = report.repetitions
    lines = [
        _TITLES["combined"],
        f"Groups:                2 (n = {n_list})",
        f"p-value variances:     {_format_pvalue(report.p_variances, B)}",
        f"p-value correlations:  {_format_pvalue(report.p_correlations, B)}",
        f"p-value total:         {_format_pvalue(report.p_total, B)}",
        f"Method:                TAY, B = {B}",
        f"Seed:                  {report.seed}",
    ]
    return "\n".join(lines)


def _render_combined_json(report: CombinedReport) -> str:
    payload = {
        "test": _TITLES["combined"],
        "groups": 2,
        "n": list(report.n),
        "p_variances": report.p_variances,
        "p_correlations": report.p_correlations,
        "p_total": report.p_total,
        "beta_tilde": report.beta_tilde,
        "method": "TAY",
        "repetitions": report.repetitions,
        "seed": report.seed,
        "alpha": report.alpha,
    }
    return json.dumps(payload, indent=2)


def run(config: RunConfig) -> int:
    """Execute a validated configuration and print the rendered report."""
    sample = ingest(config.data, config.group_column, config.group_sizes)
    seed = config.seed if config.seed is not None else fresh_seed()

    if config.target == "combined":
        if sample.a != 2:
            raise ConfigError(
                f"the combined test requires exactly two groups, got {sample.a}"
            )
        try:
            report = combined_test(
                sample,
                repetitions=config.repetitions,
                seed=seed,
                alpha=config.alpha,
            )
        except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            raise _Numerical(str(exc)) from exc
        text = (
            _render_combined_text(report)
            if config.output == "text"
            else _render_combined_json(report)
        )
        print(text)
        return EXIT_OK

    base_target = COVARIANCE if config.target.startswith("covariance") else CORRELATION
    structural = config.target.endswith("-structure")
    try:
        if structural:
            if sample.a != 1:
                raise ConfigError(
                    f"structure hypotheses are defined for a single group, got {sample.a}"
                )
            spec = structure_hypothesis(config.structure, base_target, sample.d)
        elif config.hypothesis is not None:
            extra = None
            if config.hypothesis == "given-trace":
                extra = config.gamma
            elif config.hypothesis == "given-matrix":
                if config.matrix_path is None:
                    raise ConfigError("hypothesis 'given-matrix' needs --matrix")
                extra = _load_array(config.matrix_path, "matrix", ndmin=2)
            spec = predefined_hypothesis(
                config.hypothesis, base_target, sample.a, sample.d, extra=extra
            )
        else:
            C = _load_array(config.C_path, "contrast", ndmin=2)
            zeta = _load_array(config.zeta_path, "zeta", ndmin=1).ravel()
            spec = custom_hypothesis(C, zeta, base_target, sample.a, sample.d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        est = pool_estimates(sample, include_correlation=base_target == CORRELATION)
        report = run_test(
            sample,
            spec,
            method=config.method,
            repetitions=config.repetitions,
            seed=seed,
            alpha=config.alpha,
            est=est,
        )
        H = statistic_covariance(spec, est)
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        raise _Numerical(str(exc)) from exc

    title = _TITLES[config.target]
    text = (
        _render_text(report, title)
        if config.output == "text"
        else _render_json(report, title, H)
    )
    print(text)
    return EXIT_OK


class _Numerical(Exception):
    pass


def _fail(category: str, message: str, code: int) -> int:
    flat = " ".join(str(message).split())
    print(f"covartest: error: {category}: {flat}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _validate_config(args)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    try:
        return run(config)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", str(exc), EXIT_DATA)
    except _Numerical as exc:
        return _fail("numerical", str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
