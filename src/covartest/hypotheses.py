"""Builders for the testable hypotheses on covariance and correlation matrices.

Every hypothesis is a pair (C, zeta) acting on the stacked half-vectorized
group parameters, optionally after a smooth coordinate transform: the null
states C f(theta) = zeta.  Every multi-group contrast is kept as the two
factors of C = A kron B: A acts across the groups and B on each group's
half-vector, and C itself is built only when something reads it.
``equal`` and ``equal-correlated`` take the centering matrix for A and
the identity for B; ``equal-trace`` and ``equal-diagonals`` take the
successive group differences for A and the diagonal rows, or their sum,
for B.  One-group ``equal-correlated`` is a centering matrix.  Every other
per-group row follows one rule over the lag of each half-vector entry, its
column minus its row: the entries of a chosen set of lags (lag 0, every
lag above 0, or each lag alone) are equated in succession, and the entries
of another set are set to zero.  Structural nulls (a single group) cover
diagonal, spherical, compound symmetric, Toeplitz and first-order
autoregressive shapes.  The autoregressive ones are nonlinear: each carries
one callable, theta -> (f(theta), J(theta)), that appends the subdiagonal-mean
ratios and returns the Jacobian that linearizes them, and raises
``ValueError`` where a ratio is undefined.

The catalog is two tables keyed by target.  ``STRUCTURES`` maps each canonical
structure name to its short alias, its smallest d (with the reason, where
one is printed) and the builder of its contrast rows, which is None for
the autoregressive shapes.  ``PREDEFINED`` maps each predefined name to
the group counts it accepts: exactly one, at least two, or any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    centering_matrix,
    full_length,
    strict_length,
    vech,
    vech_pairs,
)

COVARIANCE = "covariance"
CORRELATION = "correlation"

_TARGETS = (COVARIANCE, CORRELATION)


@dataclass(frozen=True, eq=False)
class HypothesisSpec:
    """One testable null C f(theta) = zeta for a given target and layout.

    A spec stores either its contrast matrix as ``dense`` or the pair
    ``factors`` (A, B) with C = A kron B, where B None stands for the
    identity on one group's half-vector; the engines work on what it
    stores.  ``spec.C`` is built from them on each read, so it always
    states the null the engines test.  A ``zeta`` of None means the zero
    vector.  A nonlinear null carries ``transform``, which maps theta to
    the pair (f(theta), J(theta)) of the smooth reparametrization C acts
    on and its Jacobian, and raises ``ValueError`` outside its domain.
    Specs compare by identity, and their repr leaves the contrast out.
    """

    target: str
    dense: np.ndarray | None = field(repr=False)
    zeta: np.ndarray | None
    label: str
    a: int
    d: int
    transform: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    factors: tuple[np.ndarray, np.ndarray | None] | None = None

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.a < 1:
            raise ValueError(f"group count must be positive, got {self.a}")
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.factors is None:
            parts = [np.asarray(self.dense, dtype=float)]
        elif self.dense is not None or self.transform is not None:
            raise ValueError("factors replace C and take no transform")
        else:
            A, B = self.factors
            parts = [np.asarray(A, dtype=float)] + ([] if B is None else [np.asarray(B, dtype=float)])
        q = self.base_dim
        # C's shape is the product of its factors' shapes, B = I_q's included
        rows, cols = (q, q) if self.factors is not None and self.factors[1] is None else (1, 1)
        for P in parts:
            if P.ndim != 2:
                raise ValueError("C must be a two-dimensional matrix")
            if P.shape[0] < 1:
                raise ValueError("C needs at least one row")
            rows, cols = rows * P.shape[0], cols * P.shape[1]
        zeta = np.zeros(rows) if self.zeta is None else np.asarray(self.zeta, dtype=float).ravel()
        if not all(np.all(np.isfinite(P)) for P in parts) or not np.all(np.isfinite(zeta)):
            raise ValueError("C and zeta must be finite")
        # a row of A kron B is zero exactly when its row of A or of B is
        if any(np.any(np.all(P == 0.0, axis=1)) for P in parts):
            raise ValueError("C contains an all-zero row")
        # a transformed null's C acts on f(theta); the engine checks its width
        expected = self.a * q
        if self.transform is None and cols != expected:
            raise ValueError(
                f"C has {cols} columns but the {self.target} target "
                f"with a={self.a}, d={self.d} needs {expected}"
            )
        # with the product's width right, A's width fixes B's at q
        if self.factors is not None and parts[0].shape[1] != self.a:
            raise ValueError(f"factor A has {parts[0].shape[1]} columns but a={self.a} needs {self.a}")
        if len(zeta) != rows:
            raise ValueError(
                f"zeta has length {len(zeta)} but C has {rows} rows"
            )
        if self.factors is None:
            object.__setattr__(self, "dense", parts[0])
        else:
            object.__setattr__(self, "factors", (parts[0], parts[1] if len(parts) == 2 else None))
        object.__setattr__(self, "zeta", zeta)

    @property
    def C(self) -> np.ndarray:
        """The contrast matrix: ``dense`` itself, or A kron B built on each read."""
        if self.factors is None:
            return self.dense
        A, B = self.factors
        return np.kron(A, np.eye(self.base_dim) if B is None else B)

    @property
    def base_dim(self) -> int:
        """Half-vector length per group: d(d+1)/2 or d(d-1)/2 by target."""
        return full_length(self.d) if self.target == COVARIANCE else strict_length(self.d)

    @property
    def m(self) -> int:
        return len(self.zeta)


def _lags(target: str, d: int) -> np.ndarray:
    """Column minus row of each entry of one group's half-vector for the target."""
    rows, cols = vech_pairs(d, strict=target == CORRELATION)
    return cols - rows


def _difference_rows(q: int, positions: np.ndarray) -> np.ndarray:
    """Rows e_pos[t] - e_pos[t+1] equating all listed coordinates."""
    positions = np.asarray(positions)
    m = max(len(positions) - 1, 0)
    C = np.zeros((m, q))
    t = np.arange(m)
    C[t, positions[:-1]] = 1.0
    C[t, positions[1:]] = -1.0
    return C


def _rows(lags: np.ndarray, equal=(), zero=None) -> np.ndarray:
    """One group's contrast rows over a half-vector with the given lags.

    Each mask in ``equal`` adds rows equating its entries in succession;
    then one row selects each entry where the mask ``zero`` holds.
    """
    q = len(lags)
    blocks = [_difference_rows(q, np.flatnonzero(mask)) for mask in equal]
    if zero is not None:
        positions = np.flatnonzero(zero)
        selector = np.zeros((len(positions), q))
        selector[np.arange(len(positions)), positions] = 1.0
        blocks.append(selector)
    # a lone block is returned as built: copying the d = 40 selector
    # costs more than building it
    return blocks[0] if len(blocks) == 1 else np.vstack(blocks)


def _uncorrelated_rows(lags: np.ndarray) -> np.ndarray:
    return _rows(lags, zero=lags > 0)


def _toeplitz_rows(lags: np.ndarray) -> np.ndarray:
    """Equality of entries within every diagonal the half-vector holds."""
    return _rows(lags, equal=[lags == h for h in np.unique(lags)])


def _ratio_transform(lags: np.ndarray, d: int):
    """Appends the consecutive subdiagonal-mean ratios to the half-vector.

    Means m_0, ..., m_{d-1} average the entries of each subdiagonal; for the
    strict (correlation) variant m_0 is the constant 1.  The appended
    coordinates are rho_h = m_h / m_{h-1} for h = 1, ..., d-1.  Returns
    theta -> (f(theta), J(theta)).
    """
    q = len(lags)
    first = int(lags.min())  # 1 for the strict half-vector: m_0 == 1 involves no coordinates
    groups = [np.flatnonzero(lags == h) for h in range(first, d)]
    # row h of the averaging matrix is the gradient of m_h
    A = np.zeros((d, q))
    for h, g in enumerate(groups, start=first):
        A[h, g] = 1.0 / len(g)

    def transform(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        m = np.array([1.0] * first + [theta[g].mean() for g in groups])
        # denominators are m_0, ..., m_{d-2}
        if np.any(np.abs(m[: d - 1]) <= 1e-12 * abs(m[0])):
            raise ValueError(
                "subdiagonal-mean ratio undefined: a leading subdiagonal mean vanishes"
            )
        # float_power squares through pow(), as a scalar ** does; an array
        # ** 2 multiplies, which can differ in the last bit
        slopes = m[1:] / np.float_power(m[:-1], 2)
        ratios = A[1:] / m[:-1, None] - slopes[:, None] * A[:-1]
        return np.concatenate([theta, m[1:] / m[:-1]]), np.vstack([np.eye(q), ratios])

    return transform


def _autoregressive_spec(target: str, d: int, label: str) -> HypothesisSpec:
    lags = _lags(target, d)
    q = len(lags)
    lin = _toeplitz_rows(lags)
    ratio_diffs = _difference_rows(d - 1, np.arange(d - 1))
    # C acts on f(theta): the q coordinates followed by the d - 1 ratios
    C = np.zeros((lin.shape[0] + ratio_diffs.shape[0], q + d - 1))
    C[: lin.shape[0], :q] = lin
    C[lin.shape[0]:, q:] = ratio_diffs
    return HypothesisSpec(target=target, dense=C, zeta=None, label=label, a=1, d=d,
                          transform=_ratio_transform(lags, d))


_RATIOS = "fewer than two subdiagonal ratios leave nothing to compare"

# canonical name -> (short alias, smallest d, reason printed with it,
# contrast rows for the half-vector's lags); rows None marks an
# autoregressive shape
STRUCTURES = {
    COVARIANCE: {
        "autoregressive": ("ar", 3, _RATIOS, None),
        "fo-autoregressive": ("fo-ar", 3, _RATIOS, None),
        "diagonal": ("diag", 2, "", _uncorrelated_rows),
        "sphericity": ("spher", 2, "", lambda lags: _rows(lags, [lags == 0], zero=lags > 0)),
        "compoundsymmetry": ("cs", 2, "", lambda lags: _rows(lags, [lags == 0, lags > 0])),
        "toeplitz": ("toep", 2, "", _toeplitz_rows),
    },
    CORRELATION: {
        "hautoregressive": ("har", 3, _RATIOS, None),
        "htoeplitz": ("htoep", 3, "subdiagonals of a 2x2 matrix hold one entry each", _toeplitz_rows),
        "hcompoundsymmetry": ("hcs", 3, "a single correlation leaves nothing to compare",
                              lambda lags: _rows(lags, [lags > 0])),
        "diagonal": ("diag", 2, "", _uncorrelated_rows),
    },
}

# predefined name -> the group counts it accepts
PREDEFINED = {
    COVARIANCE: {"equal": "any", "equal-trace": "several", "equal-diagonals": "several",
                 "given-trace": "one", "given-matrix": "one", "uncorrelated": "one"},
    CORRELATION: {"equal-correlated": "any", "uncorrelated": "one"},
}


def structure_hypothesis(name: str, target: str, d: int) -> HypothesisSpec:
    """Structural null for a single group: the named shape of V or R."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    table = STRUCTURES[target]
    canonical = next((c for c, row in table.items() if name in (c, row[0])), None)
    if canonical is None:
        raise ValueError(
            f"unknown {target} structure {name!r}; valid structures: {', '.join(sorted(table))}"
        )
    _, min_d, reason, rows = table[canonical]
    if d < min_d:
        raise ValueError(
            f"structure {canonical!r} needs d >= {min_d}" + (f": {reason}" if reason else "")
        )
    if rows is None:
        return _autoregressive_spec(target, d, canonical)
    return HypothesisSpec(
        target=target, dense=rows(_lags(target, d)), zeta=None, label=canonical, a=1, d=d
    )


def predefined_hypothesis(
    name: str, target: str, a: int, d: int, extra=None
) -> HypothesisSpec:
    """Named hypothesis from the built-in catalog.

    ``extra`` carries the parameter of the parametrized nulls: the positive
    trace for ``given-trace`` and the symmetric d x d matrix for
    ``given-matrix``.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if name not in PREDEFINED[target]:
        valid = ", ".join(PREDEFINED[target])
        raise ValueError(
            f"unknown {target} hypothesis {name!r}; valid names: {valid}"
        )
    if a < 1:
        raise ValueError(f"group count must be positive, got {a}")
    if extra is not None and name not in ("given-trace", "given-matrix"):
        raise ValueError(f"hypothesis {name!r} takes no extra parameter")
    if target == CORRELATION and d < 2:
        raise ValueError("correlation hypotheses need d >= 2")
    groups = PREDEFINED[target][name]
    if groups == "one" and a != 1:
        raise ValueError(f"hypothesis {name!r} is only defined for one group")
    if groups == "several" and a < 2:
        raise ValueError(f"hypothesis {name!r} needs at least two groups")
    lags = _lags(target, d)
    q = len(lags)
    C = zeta = factors = None

    if name in ("equal", "equal-correlated") and a > 1:
        factors = (centering_matrix(a), None)
    elif name == "equal":
        if d < 2:
            raise ValueError("hypothesis 'equal' with one group needs d >= 2")
        C = _rows(lags, [lags == 0])
    elif name == "equal-correlated":
        if q < 2:
            raise ValueError(
                "hypothesis 'equal-correlated' with one group needs d >= 3: "
                "a single correlation leaves nothing to compare"
            )
        C = centering_matrix(q)
    elif name == "uncorrelated":
        if d < 2:
            raise ValueError("hypothesis 'uncorrelated' needs d >= 2")
        C = _uncorrelated_rows(lags)
    elif name == "given-trace":
        if extra is None:
            raise ValueError("hypothesis 'given-trace' needs the target trace")
        gamma = float(extra)
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ValueError(f"the target trace must be positive, got {extra!r}")
        C = _rows(lags, zero=lags == 0).sum(axis=0, keepdims=True)
        zeta = np.array([gamma])
    elif name == "given-matrix":
        if extra is None:
            raise ValueError("hypothesis 'given-matrix' needs the target matrix")
        V = np.asarray(extra, dtype=float)
        if V.shape != (d, d):
            raise ValueError(f"the target matrix must be {d}x{d}, got shape {V.shape}")
        C = np.eye(q)
        zeta = vech(V)  # raises if V is not symmetric
    else:  # equal-trace, equal-diagonals
        # group i minus group i + 1 on the diagonal entries, or on
        # their sum for the trace
        diag_rows = _rows(lags, zero=lags == 0)
        if name == "equal-trace":
            diag_rows = diag_rows.sum(axis=0, keepdims=True)
        factors = (_difference_rows(a, np.arange(a)), diag_rows)

    return HypothesisSpec(target=target, dense=C, zeta=zeta, label=name, a=a, d=d, factors=factors)


def custom_hypothesis(C, zeta, target: str, a: int, d: int) -> HypothesisSpec:
    """User-supplied contrast matrix and right-hand side (None for zeros), validated for shape."""
    return HypothesisSpec(target=target, dense=C, zeta=zeta, label="custom", a=a, d=d)
