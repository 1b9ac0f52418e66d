"""Budget planning: noise estimation, hyperparameter fitting, IMSE
extrapolation, and solving for the budget that meets a target accuracy.

The workflow mirrors a replication-based simulation campaign: estimate
the observation-noise variance from replicates, fit kernel
hyperparameters by maximizing the concentrated Gaussian log-likelihood

    -1/2 (z - m)' (sigma^2 K + sigma_eps_bar^2 I)^{-1} (z - m)
    -1/2 log det(sigma^2 K + sigma_eps_bar^2 I)

with the mean m fixed at the sample mean, then extrapolate the current
IMSE along the closed-form decay law

    IMSE_T = IMSE_T0 * g(T / sigma_eps_bar^2) / g(T0 / sigma_eps_bar^2),
    g(u) = log(u)^q / u^a,

and invert it for the smallest budget T reaching the target.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import _blas
from .gp_core import Design, ObservationSet
from .kernels import NU_RANGE, _axis_distances, _matern_corr, _symmetric, _triangle
from .learning_curve import RateLaw

DEFAULT_N_RANDOM = 10000
DEFAULT_N_POLISH = 150
# a fitted parameter this close to a bound, relative to the bound, is reported as on it
_AT_BOUND_REL = 1e-6


@dataclass(frozen=True)
class HyperparameterFit:
    """Best concentrated-likelihood parameters and search diagnostics.

    ``at_bound`` names the parameters (``nu``, ``theta_1``..``theta_d``,
    ``sigma2``) that ended on an edge of the search box, where the
    likelihood may still rise outside it.
    """

    nu: float
    theta: tuple[float, ...]
    sigma2: float
    mean: float
    loglik: float
    n_local_maxima: int
    polish_improved: bool
    n_evals: int
    n_failed_evals: int
    n_polish_iters: int
    at_bound: tuple[str, ...]

    def to_json(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


class LikelihoodFitError(RuntimeError):
    """Raised when the likelihood is not finite at any start of the search."""


@dataclass(frozen=True)
class BudgetForecast:
    """Predicted IMSE decay and the budget solving IMSE_T = target."""

    imse_T0: float
    T0: int
    sigma_eps2_bar: float
    target: float
    solved_T: int
    curve: tuple[tuple[int, float], ...]
    s_per_point: int | None = None


def estimate_noise(obs: ObservationSet) -> tuple[np.ndarray, float]:
    """Per-point noise variances sigma_eps^2(x_i), a copy of
    ``obs.sigma_eps2``, and their arithmetic mean."""
    per_point = obs.sigma_eps2.copy()
    return per_point, float(per_point.mean())


def _log_likelihood(params, dists, resid: np.ndarray, noise: float, gradient: bool = False):
    """Concentrated log-likelihood at params = (nu, theta_1..theta_d, sigma2).

    ``dists`` is ``kernels._axis_distances`` of the design.  The covariance
    is mirrored from the condensed correlation triangle by the same
    ``kernels._symmetric`` take as in ``gram_matrix``, so the value is
    bitwise the one a freshly built ``matern_tensor`` kernel of variance
    sigma2 gives.  Both axes read the Bessel factor from the table that
    nu's panel interpolates in nu (``kernels._nu_coef``), so the value
    builds no table and calls no ``kv`` once that panel exists.  With
    ``gradient`` the result is (value, gradient), from the one Cholesky
    factorization: each entry is dL/dp = 1/2 tr((alpha alpha' - C^{-1})
    dC/dp) (Rasmussen & Williams 2006, eq. 5.9).  Each axis reads its
    correlation rho, slope S = theta drho/dtheta and D = dg/dnu from one
    located pass over the same table (``kernels._matern_corr`` with
    ``gradient``), so the gradient calls no ``kv`` either; the nu entry is
    analytic: per axis drho/dnu = rho * D - (drho/dtheta) * theta / (2 nu).
    """
    params = np.asarray(params, dtype=float)
    nu, theta, sigma2 = float(params[0]), params[1:-1], float(params[-1])
    n = len(resid)
    scaled = [dj / float(t) for dj, t in zip(dists, theta)]
    axes = [_matern_corr(rj, nu, gradient) for rj in scaled]
    factors = [rho for rho, _, _ in axes] if gradient else axes
    corr = reduce(np.multiply, factors)
    C = _symmetric(sigma2 * corr, sigma2 + noise, n)
    c, low = cho_factor(C, lower=True)
    alpha = cho_solve((c, low), resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    value = float(-0.5 * np.dot(resid, alpha) - 0.5 * logdet)
    if not gradient:
        return value

    W = np.outer(alpha, alpha) - cho_solve((c, low), np.eye(n))
    # the strict upper triangle in condensed order: W is symmetric only to rounding
    w = W.take(_triangle(n).upper)
    # dC/dnu and dC/dtheta_j have a zero diagonal (the correlation is 1 at
    # r = 0 for every nu), so their trace terms are sums over i < k
    dcorr_dnu = 0.0
    grad_theta = []
    for j, ((rho, S, D), t) in enumerate(zip(axes, theta)):
        others = reduce(np.multiply, [f for k, f in enumerate(factors) if k != j], 1.0)
        slope = S / float(t)
        grad_theta.append(sigma2 * float(np.dot(w, slope * others)))
        dfactor_dnu = rho * D - slope * (float(t) / (2 * nu))
        dcorr_dnu = dcorr_dnu + dfactor_dnu * others
    grad = [sigma2 * float(np.dot(w, dcorr_dnu)), *grad_theta]
    grad.append(0.5 * float(np.trace(W)) + float(np.dot(w, corr)))
    return value, np.array(grad)


def _check_inputs(params, design: Design, values, noise: float) -> tuple[np.ndarray, np.ndarray]:
    params = np.asarray(params, dtype=float).ravel()
    d = design.dim
    if len(params) != d + 2:
        raise ValueError(f"expected (nu, {d} lengthscales, sigma2), got {len(params)} values")
    if params[0] <= 0 or np.any(params[1:-1] <= 0):
        raise ValueError("nu and the lengthscales must be > 0")
    sigma2 = float(params[-1])
    if sigma2 < 0 or noise < 0 or sigma2 + noise <= 0:
        raise ValueError("variances must be nonnegative and not both zero")
    z = np.asarray(values, dtype=float).ravel()
    if len(z) != design.n:
        raise ValueError("values length must match the design")
    return params, z


def concentrated_log_likelihood(params, design: Design, values, m: float, noise: float) -> float:
    """Gaussian log-likelihood of the averaged data at fixed mean m.

    ``params`` is (nu, theta_1..theta_d, sigma2); the covariance is
    sigma2 * K_corr + noise * I with K_corr the unit-variance Matern
    correlation matrix.  Evaluated through a Cholesky factorization.
    """
    params, z = _check_inputs(params, design, values, noise)
    return _log_likelihood(params, _axis_distances(design.points), z - m, noise)


def default_bounds(d: int) -> list[tuple[float, float]]:
    """Search box for (nu, theta_1..theta_d, sigma2)."""
    return [(0.5, 3.0)] + [(0.01, 2.0)] * d + [(0.01, 1.0)]


def _checked_bounds(bounds, d: int) -> list[tuple[float, float]]:
    """A search box for (nu, theta_1..theta_d, sigma2) as float pairs, or ValueError:
    d + 2 pairs with lo < hi, the nu pair inside ``kernels.NU_RANGE``, where the
    likelihood gradient has its nu entry."""
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if len(bounds) != d + 2 or any(hi <= lo for lo, hi in bounds):
        raise ValueError(f"bounds must be {d + 2} (lo, hi) pairs with lo < hi")
    if not NU_RANGE[0] <= bounds[0][0] < bounds[0][1] <= NU_RANGE[1]:
        raise ValueError(f"the nu bounds {list(bounds[0])} must lie within "
                         f"[{NU_RANGE[0]}, {NU_RANGE[1]}], the nu range of the Bessel tables")
    return bounds


def fit_hyperparameters(
    design: Design,
    values,
    *,
    noise: float,
    seed: int,
    bounds=None,
    n_random: int = DEFAULT_N_RANDOM,
    n_polish: int = DEFAULT_N_POLISH,
    mean: float | None = None,
) -> HyperparameterFit:
    """Multi-start maximization of the concentrated log-likelihood.

    ``n_random`` uniform draws in the bounds box are scored, the best
    ``n_polish`` are refined by bounded L-BFGS-B, and the overall best
    point wins (ties broken by draw order).  The nu bounds must lie within
    ``kernels.NU_RANGE``.  Each polish step makes one
    Cholesky factorization for the value and the gradient (see
    ``_log_likelihood``).  Distinct polished optima are counted as a
    multimodality diagnostic.  A start whose covariance cannot be
    factorized scores -inf; if every start does, LikelihoodFitError is
    raised. The starts and polishes run under ``_blas.one_numpy_thread``.
    ``scipy.optimize`` is imported here, at a process's first fit, not
    with the package.
    """
    from scipy.optimize import minimize

    z = np.asarray(values, dtype=float).ravel()
    d = design.dim
    if bounds is None:
        bounds = default_bounds(d)
    bounds = _checked_bounds(bounds, d)
    if n_random < 1 or n_polish < 1:
        raise ValueError("n_random and n_polish must be >= 1")
    m = float(np.mean(z)) if mean is None else float(mean)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    _check_inputs(lo, design, z, noise)
    r = z - m
    dists = _axis_distances(design.points)
    n_evals = n_failed = 0

    def evaluate(loglik, *args):
        # one likelihood value (with its gradient in the polish); None when
        # the covariance cannot be factorized
        nonlocal n_evals, n_failed
        n_evals += 1
        try:
            return loglik(*args)
        except (LinAlgError, FloatingPointError):
            n_failed += 1
            return None

    def score(params) -> float:
        value = evaluate(concentrated_log_likelihood, params, design, z, m, noise)
        return np.inf if value is None else -value

    def polish_objective(params):
        out = evaluate(_log_likelihood, params, dists, r, noise, True)
        if out is None:
            return np.inf, np.zeros(len(params))
        return -out[0], -out[1]

    with _blas.one_numpy_thread():
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        starts = rng.uniform(lo, hi, size=(n_random, len(bounds)))
        scores = np.array([score(p) for p in starts])
        if not np.any(np.isfinite(scores)):
            raise LikelihoodFitError(
                f"the covariance could not be factorized at any of the {n_random} starts"
            )
        top = np.argsort(scores, kind="stable")[: min(n_polish, n_random)]

        best_raw_idx = int(top[0])
        best_val = scores[best_raw_idx]
        best_x = starts[best_raw_idx]
        polished_pts: list[np.ndarray] = []
        improved = False
        n_iters = 0
        for idx in top:
            if not np.isfinite(scores[idx]):
                continue
            res = minimize(polish_objective, starts[idx], method="L-BFGS-B", jac=True, bounds=bounds)
            n_iters += int(res.nit)
            if np.isfinite(res.fun):
                polished_pts.append(np.clip(res.x, lo, hi))
                if res.fun < best_val:
                    best_val = res.fun
                    best_x = polished_pts[-1]
                    improved = True
    if not improved:
        warnings.warn(
            "no polish improved on the best raw start; returning the raw optimum",
            RuntimeWarning,
            stacklevel=2,
        )
    if polished_pts:
        rounded = {tuple(np.round(p, 2)) for p in polished_pts}
        n_clusters = len(rounded)
    else:
        n_clusters = 0
    names = ["nu", *(f"theta_{j + 1}" for j in range(d)), "sigma2"]
    at_bound = tuple(
        name for name, x, edges in zip(names, best_x, bounds)
        if any(abs(x - b) <= _AT_BOUND_REL * abs(b) for b in edges)
    )
    return HyperparameterFit(
        nu=float(best_x[0]),
        theta=tuple(float(t) for t in best_x[1 : 1 + d]),
        sigma2=float(best_x[-1]),
        mean=m,
        loglik=float(-best_val),
        n_local_maxima=n_clusters,
        polish_improved=improved,
        n_evals=n_evals,
        n_failed_evals=n_failed,
        n_polish_iters=n_iters,
        at_bound=at_bound,
    )


def _decay_g(u: float, rate: RateLaw) -> float:
    return math.log(u) ** rate.log_power / u**rate.exponent


def imse_decay(imse_T0: float, T0: int, sigma_eps2_bar: float, rate: RateLaw, T: int) -> float:
    """Predicted IMSE at budget T, anchored at (T0, imse_T0).

    Valid on the region where g(T/sigma_eps2_bar) is decreasing, i.e.
    T0/sigma_eps2_bar > exp(log_power/exponent).
    """
    if imse_T0 <= 0 or sigma_eps2_bar <= 0 or T0 < 1:
        raise ValueError("need imse_T0 > 0, sigma_eps2_bar > 0, T0 >= 1")
    if T < T0:
        raise ValueError("extrapolation runs forward: T >= T0 required")
    u0 = T0 / sigma_eps2_bar
    threshold = math.exp(rate.log_power / rate.exponent)
    if u0 <= threshold:
        raise ValueError(
            f"T0/sigma_eps2_bar = {u0:.3g} is below e^(q/a) = {threshold:.3g} where the "
            "decay law is not yet monotone; increase T0"
        )
    return imse_T0 * _decay_g(T / sigma_eps2_bar, rate) / _decay_g(u0, rate)


def required_budget(
    imse_T0: float,
    T0: int,
    sigma_eps2_bar: float,
    rate: RateLaw,
    target: float,
    n: int | None = None,
    curve_points: int = 50,
) -> BudgetForecast:
    """Smallest integer budget T with predicted IMSE at or below target.

    Solved by doubling plus integer bisection on the monotone decay; the
    forecast carries a log-spaced (T, IMSE) curve and, when the design
    size n is given, the uniform per-point count ceil(T/n).
    """
    if n is not None and n < 1:
        raise ValueError(f"design size n must be >= 1, got {n}")
    if target <= 0:
        raise ValueError("target_imse must be positive")
    if target >= imse_T0:
        raise ValueError(
            f"target_imse = {target} is not below the current IMSE {imse_T0}; nothing to plan"
        )
    decay = lambda T: imse_decay(imse_T0, T0, sigma_eps2_bar, rate, T)
    hi = max(T0 + 1, 2 * T0)
    while decay(hi) > target:
        hi *= 2
        if hi > 10**15:
            raise RuntimeError("budget search exceeded 1e15 without reaching the target")
    lo = T0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decay(mid) <= target:
            hi = mid
        else:
            lo = mid
    solved = hi
    ts = np.unique(
        np.round(np.geomspace(T0, max(solved, T0 + 1), curve_points)).astype(int)
    )
    curve = tuple((int(t), decay(int(t))) for t in ts)
    return BudgetForecast(
        imse_T0=imse_T0,
        T0=int(T0),
        sigma_eps2_bar=sigma_eps2_bar,
        target=target,
        solved_T=int(solved),
        curve=curve,
        s_per_point=None if n is None else int(math.ceil(solved / n)),
    )
