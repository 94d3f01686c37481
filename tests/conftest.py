"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import covartest
from covartest.estimation import MomentEstimates
from covartest.linalg import vech, vech_strict
from reference_loops import correlation_jacobian

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def subprocess_env() -> dict:
    """The environment with covartest's source directory on PYTHONPATH, so
    that a fresh interpreter imports the package under test."""
    src = str(Path(covartest.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def make_spd(rng: np.random.Generator, d: int, spread: tuple[float, float] = (0.5, 3.0)) -> np.ndarray:
    """Random symmetric positive definite matrix with bounded eigenvalues."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(*spread, size=d)
    S = (Q * lam) @ Q.T
    return (S + S.T) / 2.0


def gaussian_sample(rng: np.random.Generator, V: np.ndarray, n: int) -> np.ndarray:
    """d x n draw from a centered normal with covariance V."""
    L = np.linalg.cholesky(V)
    return L @ rng.standard_normal((V.shape[0], n))


def synthetic_estimates(
    vmats: list[np.ndarray] | None,
    n: tuple[int, ...],
    rng: np.random.Generator,
    rmats: list[np.ndarray] | None = None,
) -> MomentEstimates:
    """Moment estimates with prescribed covariance (or correlation) matrices.

    The fourth-moment covariances are arbitrary well-conditioned SPD
    matrices, given by their Cholesky factors; they only enter the
    statistic through the trace denominator, so any choice exercises the
    contrast residual exactly.
    """
    if vmats is None:
        # correlation-only usage: the covariance equals the correlation
        vmats = [np.asarray(R, dtype=float) for R in rmats]
    a = len(vmats)
    d = vmats[0].shape[0]
    p = d * (d + 1) // 2
    vhat = tuple(vech(V) for V in vmats)
    factors = tuple(np.linalg.cholesky(make_spd(rng, p)) for _ in range(a))
    if d < 2:
        return MomentEstimates(d=d, n=tuple(n), vhat=vhat, Sigma_factor=factors)
    if rmats is None:
        rmats = []
        for V in vmats:
            sd = np.sqrt(np.diag(V))
            rmats.append(V / np.outer(sd, sd))
    return MomentEstimates(
        d=d,
        n=tuple(n),
        vhat=vhat,
        Sigma_factor=factors,
        rhat=tuple(vech_strict(R) for R in rmats),
        Upsilon_factor=tuple(correlation_jacobian(v) @ F for v, F in zip(vhat, factors)),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250817)
