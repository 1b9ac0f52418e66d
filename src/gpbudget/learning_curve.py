"""Asymptotic learning curves and their Monte-Carlo counterparts.

With reduced noise variance tau (noise nT = n tau I on n averaged
observations) the IMSE converges, as the design grows dense, to

    sum_p tau lambda_p / (tau + lambda_p)

over the Mercer eigenvalues lambda_p.  That limit is bracketed between
B_tau / 2 and B_tau where

    B_tau = sum_{lambda_p <= tau} lambda_p + tau * #{lambda_p > tau},

which yields the closed-form decay rates per kernel family.  Truncated
spectra leave an unknown tail; since each tail term is at most its
eigenvalue, the tail lies in [0, residual_trace] and the midpoint is
used as the point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .gp_core import (
    Design,
    ImseOperator,
    ObservationSet,
    Quadrature,
    UniformBox,
    fit_blup,
    integrated_mse,
)
from .kernels import KernelSpec, _as_points
from .spectrum import Spectrum, eigenfunction_matrix

_RATE_FAMILIES = ("degenerate", "fbm", "matern1d", "matern_tensor", "gaussian")


@dataclass(frozen=True)
class RateLaw:
    """Decay law IMSE ~ C * tau^exponent * log(1/tau)^log_power."""

    exponent: float
    log_power: int
    family: str

    def __post_init__(self):
        if not 0 < self.exponent <= 1:
            raise ValueError("rate exponent must lie in (0, 1]")
        if self.log_power < 0:
            raise ValueError("log power must be nonnegative")

    def shape(self, tau) -> np.ndarray:
        """Unnormalized tau^a * log(1/tau)^q, valid for tau < 1."""
        tau = np.asarray(tau, dtype=float)
        return tau**self.exponent * np.log(1.0 / tau) ** self.log_power


def rate_law(family: str, *, nu: float | None = None, hurst: float | None = None,
             d: int = 1) -> RateLaw:
    """Closed-form IMSE decay law for a kernel family.

    Matern laws require nu > 1/2 (the exponent 1 - 1/(2 nu) must be
    positive) and every law a dimension d >= 1; ``finite_rank`` is
    accepted as an alias of ``degenerate``.
    """
    if d < 1:
        raise ValueError(f"rate laws require dimension d >= 1, got {d}")
    if family == "finite_rank":
        family = "degenerate"
    if family not in _RATE_FAMILIES:
        raise ValueError(f"no rate law for family {family!r}")
    if family == "degenerate":
        return RateLaw(1.0, 0, family)
    if family == "fbm":
        if hurst is None or not 0 < hurst < 1:
            raise ValueError("fbm rate law requires hurst in (0,1)")
        return RateLaw(1 - 1 / (2 * hurst + 1), 0, family)
    if family == "gaussian":
        return RateLaw(1.0, int(d), family)
    if nu is None or nu <= 0.5:
        raise ValueError("Matern rate laws require nu > 1/2")
    if family == "matern1d":
        return RateLaw(1 - 1 / (2 * nu), 0, family)
    return RateLaw(1 - 1 / (2 * nu), int(d) - 1, family)


def _truncated_imse_sum(lam: np.ndarray, tau: float) -> float:
    return float(np.sum(tau * lam / (tau + lam)))


def asymptotic_imse_bounds(s: Spectrum, tau: float) -> tuple[float, float]:
    """Lower/upper bounds [sum, sum + residual_trace] on the IMSE limit."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    base = _truncated_imse_sum(s.eigenvalues, tau)
    return base, base + s.residual_trace


def asymptotic_imse(s: Spectrum, tau: float) -> float:
    """Point estimate of the dense-design IMSE limit (bracket midpoint)."""
    lo, hi = asymptotic_imse_bounds(s, tau)
    return 0.5 * (lo + hi)


def asymptotic_mse_at(s: Spectrum, spec: KernelSpec, tau: float, x) -> float:
    """Dense-design limit of the pointwise MSE at x.

    Truncated sum of tau lambda_p/(tau+lambda_p) phi_p(x)^2 plus half the
    residual trace (eigenfunctions have unit mean square, so the residual
    trace is the natural tail scale; the pointwise tail is not rigorously
    bounded without sup phi_p^2).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if s.eigvec_table is None:
        raise ValueError("pointwise limit requires a spectrum with a node table")
    X = _as_points(x, s.nodes.shape[1])
    if len(X) != 1:
        raise ValueError("asymptotic_mse_at takes a single point")
    n_pos = int(np.sum(s.eigenvalues > 0))
    total = 0.0
    if n_pos:
        phi = eigenfunction_matrix(s, spec, X, p_max=n_pos)
        lp = s.eigenvalues[:n_pos]
        total = float(np.sum(tau * lp / (tau + lp) * phi[0] ** 2))
    return total + 0.5 * s.residual_trace


def b_tau(s: Spectrum, tau: float) -> tuple[float, float, float]:
    """Bracket quantity B_tau and the interval (B_tau/2, B_tau).

    Residual trace counts toward the small-eigenvalue mass, which is
    accurate once the last retained eigenvalue is below tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    lam = s.eigenvalues
    above = lam > tau
    b = float(lam[~above].sum() + tau * int(above.sum()) + s.residual_trace)
    return b, 0.5 * b, b


def empirical_learning_curve(
    spec: KernelSpec,
    n: int,
    tau_grid,
    n_designs: int,
    seed: int,
    quadrature: Quadrature | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo learning curve: mean and standard error of the IMSE.

    For each of ``n_designs`` designs drawn i.i.d. uniform on the unit
    cube of dimension ``spec.dim`` the IMSE is computed for every tau with
    homoscedastic noise n*tau; the same designs are reused across the tau
    grid (common random numbers).  Without ``quadrature`` the IMSE is
    integrated by a trapezoid rule of about 4000 nodes on that cube.
    Each design's tau sweep is one ``ImseOperator.imse_scaled`` call: one
    eigendecomposition of the Gram matrix, then O(n) per tau, with the
    Cholesky path of ``ImseOperator.imse`` for a tau below its
    conditioning floor.  The designs run under ``_blas.one_numpy_thread``.
    """
    tau_grid = np.asarray(tau_grid, dtype=float).ravel()
    if n < 1 or len(tau_grid) == 0 or n_designs < 1:
        raise ValueError("need n >= 1, a nonempty tau grid, and n_designs >= 1")
    if np.any(tau_grid <= 0):
        raise ValueError("tau values must be positive")
    measure = UniformBox(tuple((0.0, 1.0) for _ in range(spec.dim)))
    if quadrature is None:
        quadrature = Quadrature.tensor_trapezoid(max(2, round(4000 ** (1 / spec.dim))), measure.bounds)
    streams = np.random.SeedSequence(seed).spawn(n_designs)
    per_design = np.empty((n_designs, len(tau_grid)))
    with _blas.one_numpy_thread():
        for r, ss in enumerate(streams):
            op = ImseOperator(spec, measure.sample(n, np.random.default_rng(ss)), quadrature)
            per_design[r] = op.imse_scaled(n * tau_grid)
    mean = per_design.mean(axis=0)
    if n_designs > 1:
        stderr = per_design.std(axis=0, ddof=1) / math.sqrt(n_designs)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def single_design_imse(spec: KernelSpec, design: Design, tau: float,
                       quadrature: Quadrature) -> float:
    """IMSE of one fixed design under homoscedastic noise n*tau.

    Reference implementation through the predictor path (one Cholesky
    factorization and one triangular solve).  ``empirical_learning_curve``
    instead sums over the eigenvalues of each design's Gram matrix with
    ``ImseOperator.imse_scaled``, which agrees with this value to about
    1e-13 relative.
    """
    n = design.n
    obs = ObservationSet(np.zeros(n), np.full(n, n * tau), np.ones(n, dtype=int))
    pred = fit_blup(spec, design, obs)
    return integrated_mse(pred, quadrature)


def fit_loglog_slope(tau_grid, imse_values) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): returns slope, intercept, r^2.

    Pass 1/tau as the abscissa to get slopes in the figure convention
    (decay shown against inverse noise).
    """
    x = np.asarray(tau_grid, dtype=float).ravel()
    y = np.asarray(imse_values, dtype=float).ravel()
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need at least 3 (x, y) pairs")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires strictly positive values")
    lx, ly = np.log(x), np.log(y)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return slope, intercept, r2
