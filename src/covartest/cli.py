"""Command-line front end: CSV in, rendered test report out.

Input files hold one observation per row under a header line; all columns
except an optional categorical group column must be numeric.  Exit codes
separate the failure stages, and only ``main`` maps them: 2 for
configuration errors, 3 for data errors, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from .combined import _check_layout, combined_test
from .engine import run_test, statistic_covariance
from .estimation import GroupedSample, pool_estimates
from .hypotheses import (
    CORRELATION,
    COVARIANCE,
    HypothesisSpec,
    custom_hypothesis,
    predefined_hypothesis,
    structure_hypothesis,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# the --target choices, in help order, with their report titles
_TITLES = {
    "covariance": "Covariance test",
    "correlation": "Correlation test",
    "combined": "Combined variance/correlation test",
    "covariance-structure": "Covariance structure test",
    "correlation-structure": "Correlation structure test",
}


class ConfigError(Exception):
    """Invalid option combination or hypothesis layout."""


class DataError(Exception):
    """Unreadable or ill-formed input data."""


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
    parser.add_argument("--target", required=True, choices=_TITLES)
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

    def error(message: str):  # argparse's own errors end in main, as one config line
        raise ConfigError(message)

    parser.error = error
    return parser


def _parse_group_sizes(raw: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"--group-sizes must be comma-separated integers, got {raw!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"--group-sizes entries must be positive, got {raw!r}")
    return sizes


def _validate_config(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags; fill in the parsed group sizes and the method."""
    target = args.target
    structural = target.endswith("-structure")
    if args.group_column is not None and args.group_sizes is not None:
        raise ConfigError("--group-column and --group-sizes are mutually exclusive")
    if args.group_sizes is not None:
        args.group_sizes = _parse_group_sizes(args.group_sizes)

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

    if args.method is None:
        args.method = "MC"
    if args.method == "TAY" and target not in ("correlation", "correlation-structure"):
        raise ConfigError("Taylor method applies to correlation targets only")
    if args.repetitions < 1:
        raise ConfigError(f"--repetitions must be positive, got {args.repetitions}")
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    # the parametrized nulls exist for the covariance target only; elsewhere
    # the catalog reports the name as unknown
    if target == "covariance" and args.hypothesis == "given-matrix" and args.matrix_path is None:
        raise ConfigError("hypothesis 'given-matrix' needs --matrix")
    if target == "covariance" and args.hypothesis == "given-trace" and args.gamma is None:
        raise ConfigError("hypothesis 'given-trace' needs the target trace")
    return args


def ingest(
    path: str,
    group_column: str | None = None,
    group_sizes: tuple[int, ...] | None = None,
) -> GroupedSample:
    """Read a CSV of observations into a grouped sample.

    Rows are observations, numeric columns are variables.  Groups come from
    labels, sizes or one group, each turned into sizes: the named column
    gives a group per label, in first-appearance order; explicit sizes
    partition the rows in order; with neither, all rows form one group.

    The file is opened once and its header parsed once.  One structured
    ``np.loadtxt`` pass reads the rows below it.  It declines for one
    reason only: loadtxt raises ValueError on a row it refuses (a bad cell,
    a ragged or whitespace-only row, bytes that are not UTF-8).  The row
    scanner then reads the file again from the top and names the fault.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            try:
                header = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise DataError(f"{path} is empty: no header row") from None
            gidx: int | None = None
            if group_column is not None:
                if group_column not in header:
                    raise DataError(f"group column {group_column!r} not found in {path}")
                gidx = header.index(group_column)
            if header in ([], [group_column]):
                raise DataError(f"{path} has no numeric columns besides the group column")
            try:
                data, labels = _read_structured(fh, len(header), gidx)
            except ValueError:
                fh.seek(0)
                data, labels = _scan_rows(fh, header, gidx)
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} cannot be decoded"
        ) from None
    except csv.Error as exc:  # e.g. a cell over the csv module's field limit
        raise DataError(f"{path}: {exc}") from None
    except OSError as exc:  # e.g. a pipe, which the scanner cannot read again
        raise DataError(f"cannot read {path}: {exc}") from None
    if not len(data):
        raise DataError(f"{path} contains no observations")
    if labels is not None:
        # number the stripped labels by first appearance; a stable sort groups the rows
        ids: dict[str, int] = {}
        group = np.array([ids.setdefault(lab.strip(), len(ids)) for lab in labels])
        data = data[np.argsort(group, kind="stable")]
        group_sizes = np.bincount(group)
    elif group_sizes is None:
        group_sizes = (len(data),)
    elif sum(group_sizes) != len(data):
        raise DataError(f"--group-sizes adds up to {sum(group_sizes)} "
                        f"but {path} has {len(data)} observations")
    groups = np.split(data, np.cumsum(group_sizes)[:-1])
    try:
        return GroupedSample(tuple(g.T for g in groups))
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _read_structured(fh, width: int, gidx: int | None) -> tuple:
    """The rows below the header and their raw group labels, in one
    structured ``np.loadtxt`` pass over the open file.

    Returns what ``_scan_rows`` returns, with the labels not yet stripped;
    loadtxt's ValueError on a row it refuses passes through.
    """
    # an object field keeps every label whole; a "U" field would cut it
    dtype = [(str(i), object if i == gidx else float) for i in range(width)]
    table = _loadtxt(fh, dtype=dtype, comments=None, quotechar='"', ndmin=1)
    data = np.column_stack([table[str(i)] for i in range(width) if i != gidx])
    return data, None if gidx is None else table[str(gidx)]


def _scan_rows(fh, header: list[str], gidx: int | None) -> tuple:
    """The rows and stripped group labels, read cell by cell from the top
    of the open file.

    Every fault in a row is raised here as a DataError that names its
    column and the file line where its record starts.
    """
    reader = csv.reader(fh)
    next(reader)  # the header, parsed by the caller
    value_idx = [i for i in range(len(header)) if i != gidx]
    values: list[list[float]] = []
    labels: list[str] = []
    start = reader.line_num + 1
    for row in reader:
        rownum, start = start, reader.line_num + 1
        if not any(cell.strip() for cell in row):
            continue  # ignore trailing blank lines
        if len(row) != len(header):
            raise DataError(f"row {rownum} has {len(row)} fields, expected {len(header)}")
        parsed = []
        for i in value_idx:
            cell = row[i].strip()
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"non-numeric value {cell!r} at row {rownum}, column {header[i]!r}"
                ) from None
        values.append(parsed)
        if gidx is not None:
            labels.append(row[gidx].strip())
    return np.asarray(values, dtype=float), None if gidx is None else labels


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


def _loadtxt(fh, **options) -> np.ndarray:
    """np.loadtxt on an open comma-separated text file, without its warning
    on input that holds no rows: each caller reports that case itself.  It
    gets a handle, never a path, which it would decompress or fetch."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, delimiter=",", **options)


def _load_array(path: str, what: str, ndmin: int) -> np.ndarray:
    """The numbers in a --C, --zeta or --matrix file, read as plain text."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return _loadtxt(fh, dtype=float, ndmin=ndmin)
    except OSError as exc:
        raise DataError(f"cannot open {what} file {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"ill-formed {what} file {path}: {exc}") from exc


def _format_pvalue(p: float, B: int) -> str:
    if p == 0.0:
        return f"p < {1.0 / B:g}"
    # three decimals would round a nonzero p below 0.0005 to 0.000
    return "p < 0.001" if p < 0.0005 else f"p = {p:.3f}"


def _render(title: str, rows: dict, payload: dict, output: str) -> str:
    """The report as indented JSON, or as the title over aligned rows."""
    if output == "json":
        return json.dumps(payload, indent=2)
    width = max(map(len, rows)) + 3
    lines = [f"{label + ':':<{width}}{value}" for label, value in rows.items()]
    return "\n".join([title, *lines])


def _hypothesis(args: argparse.Namespace, sample: GroupedSample) -> HypothesisSpec | None:
    """The null the flags name for this sample; None for the combined test."""
    base_target = COVARIANCE if args.target.startswith("covariance") else CORRELATION
    try:
        if args.target == "combined":
            _check_layout(sample.a, sample.d)
            return None
        if args.target.endswith("-structure"):
            if sample.a != 1:
                raise ConfigError(
                    f"structure hypotheses are defined for a single group, got {sample.a}"
                )
            return structure_hypothesis(args.structure, base_target, sample.d)
        if args.hypothesis is not None:
            extra = args.gamma
            if args.matrix_path is not None:
                extra = _load_array(args.matrix_path, "matrix", ndmin=2)
            return predefined_hypothesis(
                args.hypothesis, base_target, sample.a, sample.d, extra=extra
            )
        C = _load_array(args.C_path, "contrast", ndmin=2)
        zeta = _load_array(args.zeta_path, "zeta", ndmin=1).ravel()
        return custom_hypothesis(C, zeta, base_target, sample.a, sample.d)
    except (ValueError, FloatingPointError) as exc:
        raise ConfigError(str(exc)) from exc


@np.errstate(over="raise", divide="raise", invalid="raise")
def run(args: argparse.Namespace) -> int:
    """Execute validated flags and print the rendered report.

    Overflow, division by zero and invalid operations raise, so that
    ``main`` reports data out of floating-point range in one numerical
    line, as it does more repetitions than memory can hold.
    """
    sample = ingest(args.data, args.group_column, args.group_sizes)
    spec = _hypothesis(args, sample)
    if spec is None:
        report = combined_test(
            sample, repetitions=args.repetitions, seed=args.seed, alpha=args.alpha
        )
    else:
        est = pool_estimates(sample, include_correlation=spec.target == CORRELATION)
        report = run_test(
            sample,
            spec,
            method=args.method,
            repetitions=args.repetitions,
            seed=args.seed,
            alpha=args.alpha,
            est=est,
        )
        H = statistic_covariance(spec, est).tolist() if args.output == "json" else None

    title = _TITLES[args.target]
    B = report.repetitions
    n_list = ", ".join(str(n) for n in report.n)
    rows = {"Groups": f"{len(report.n)} (n = {n_list})"}
    if spec is None:
        method, tail = "TAY", {}
        rows |= {
            "p-value variances": _format_pvalue(report.p_variances, B),
            "p-value correlations": _format_pvalue(report.p_correlations, B),
            "p-value total": _format_pvalue(report.p_total, B),
        }
        payload = {
            "test": title,
            "groups": 2,
            "n": list(report.n),
            "p_variances": report.p_variances,
            "p_correlations": report.p_correlations,
            "p_total": report.p_total,
            "beta_tilde": report.beta_tilde,
        }
    else:
        method = report.method
        tail = {"critical_value": report.critical_value, "statistic_covariance": H}
        rows |= {
            "Hypothesis": report.label,
            "Statistic": f"{report.statistic:.4f}",
            "p-value": _format_pvalue(report.p_value, B),
        }
        payload = {
            "test": title,
            "hypothesis": report.label,
            "target": report.target,
            "groups": len(report.n),
            "n": list(report.n),
            "statistic": report.statistic,
            "p_value": report.p_value,
            "p_display": rows["p-value"],
        }
    rows |= {"Method": f"{method}, B = {B}", "Seed": report.seed}
    payload |= {
        "method": method,
        "repetitions": B,
        "seed": report.seed,
        "alpha": report.alpha,
        **tail,
    }
    print(_render(title, rows, payload, args.output))
    return EXIT_OK


def _fail(category: str, message: str, code: int) -> int:
    flat = " ".join(str(message).split())
    print(f"covartest: error: {category}: {flat}", file=sys.stderr)
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"covartest: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        # library warnings print as one line in the CLI's own format
        warnings.showwarning = _show_warning
        try:
            return run(_validate_config(build_parser().parse_args(argv)))
        except ConfigError as exc:
            return _fail("config", str(exc), EXIT_CONFIG)
        except DataError as exc:
            return _fail("data", str(exc), EXIT_DATA)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
            return _fail("numerical", str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
