"""BLUP fitting and prediction under heteroscedastic observation noise.

Observations enter in a canonical form: per design point the mean of s_i
runs, the variance sigma_eps^2(x_i) of one run and s_i.  The noise on the
diagonal Delta is the variance of each mean, sigma_eps^2(x_i) / s_i, and
the predictor is the usual kriging mean

    fhat(x) = m + k(x)' (K + Delta)^{-1} (z - m)

with pointwise mean squared error

    sigma^2(x) = k(x, x) - k(x)' (K + Delta)^{-1} k(x)

and the learning-curve functional is its integral against the design
measure, evaluated by quadrature.

This module also owns the byte format of every file gpbudget writes:
``_write_csv`` (one header row, integers bare, every other number with 17
significant digits, so it reads back exactly) and ``_write_json`` (two-space
indent).
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, eigh, solve_triangular
from scipy.linalg.lapack import dpotrf

from .kernels import KernelSpec, cross_matrix, gram_matrix, kernel_diag, _as_points

_JITTER_SCALES = (1e-10, 1e-8)
# ImseOperator.imse_scaled sums over the eigenvalues of K only where
# lambda_min + c >= _SPECTRAL_FLOOR * (lambda_max + c); below that it falls
# back to the jittered Cholesky path.  On a Gaussian theta=0.5, n=200 design
# the two forms agree to 4e-13 at a ratio of 1.3e-3, to 2.9e-10 at 1.3e-6.
_SPECTRAL_FLOOR = 1e-4
_FLOAT_FMT = "%.17g"


class SingularCovarianceError(RuntimeError):
    """Raised when K + Delta cannot be factorized even after jitter."""

    def __init__(self, minor: int):
        self.minor = minor
        super().__init__(
            f"covariance matrix is numerically singular "
            f"(leading minor of order {minor} not positive definite after jitter)"
        )


@dataclass(frozen=True)
class UniformBox:
    """Uniform probability measure on an axis-aligned box."""

    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0),)

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not b or any(hi <= lo for lo, hi in b):
            raise ValueError("box bounds must satisfy lo < hi in every dimension")
        object.__setattr__(self, "bounds", b)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, points, tol: float = 1e-9) -> bool:
        pts = _as_points(points, self.dim)
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return bool(np.all(pts >= lo - tol) and np.all(pts <= hi + tol))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return rng.uniform(lo, hi, size=(n, self.dim))


@dataclass(frozen=True)
class Quadrature:
    """Nodes and nonnegative weights summing to one (a probability measure)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # a copy, so freezing it leaves the caller's array writeable and unshared
        raw = np.array(self.nodes, dtype=float)
        # a flat vector is a list of 1-D nodes, not one high-dimensional node
        nodes = raw[:, None] if raw.ndim == 1 else np.atleast_2d(raw)
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(nodes) == 0:
            raise ValueError("quadrature must have at least one node")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("quadrature nodes must be finite")
        if len(w) != len(nodes):
            raise ValueError("weights length must match node count")
        if np.any(w < 0):
            raise ValueError("quadrature weights must be nonnegative")
        total = w.sum()
        if not np.isclose(total, 1.0, rtol=1e-8, atol=1e-12):
            raise ValueError(f"quadrature weights sum to {total}, expected 1")
        w = w / total
        nodes.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def trapezoid(cls, m: int, lo: float = 0.0, hi: float = 1.0) -> "Quadrature":
        """Trapezoidal rule on [lo, hi], normalized to a probability measure."""
        if m < 2:
            raise ValueError("trapezoid rule needs at least 2 nodes")
        x = np.linspace(lo, hi, m)
        w = np.full(m, 1.0 / (m - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(x[:, None], w)

    @classmethod
    def tensor_trapezoid(cls, m_per_dim, bounds) -> "Quadrature":
        """Tensor-product trapezoidal grid over an axis-aligned box.

        ``m_per_dim`` is one node count for every axis of ``bounds`` or one
        count per axis; any other number of counts is refused, and so is a
        count that is not a whole number, never truncated.  Over one axis
        the grid is ``trapezoid(m, lo, hi)`` itself, nodes and weights alike.
        """
        counts = np.atleast_1d(m_per_dim).tolist()
        if not all(float(m).is_integer() for m in counts):
            raise ValueError(f"node counts must be whole numbers, got {counts}")
        if len(bounds) == 0 or len(counts) not in (1, len(bounds)):
            raise ValueError(f"need one node count or one per axis of a {len(bounds)}-axis box, "
                             f"got {counts}")
        if len(counts) == 1:
            counts = counts * len(bounds)
        axes = [cls.trapezoid(int(m), lo, hi) for m, (lo, hi) in zip(counts, bounds)]
        if len(axes) == 1:
            return axes[0]
        grids = np.meshgrid(*(q.nodes.ravel() for q in axes), indexing="ij")
        nodes = np.column_stack([g.ravel() for g in grids])
        w = axes[0].weights
        for q in axes[1:]:
            w = np.outer(w, q.weights).ravel()
        return cls(nodes, w)


@dataclass(frozen=True)
class Design:
    """Input locations together with the uniform box they were drawn from."""

    points: np.ndarray
    measure: UniformBox = field(default_factory=UniformBox)

    def __post_init__(self):
        pts = _as_points(self.points, self.measure.dim)
        if len(pts) < 1:
            raise ValueError("design needs at least one point")
        if not self.measure.contains(pts):
            raise ValueError("design points fall outside the measure's support")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _whole_counts(s) -> np.ndarray:
    """Replication counts as ints of the same shape; ValueError unless all are whole."""
    s_in = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s_in) & (s_in == np.floor(s_in))):
        raise ValueError("replication counts must be whole numbers")
    return s_in.astype(int)


@dataclass(frozen=True)
class ObservationSet:
    """Averaged observations: per point the mean of ``s`` runs and the
    variance ``sigma_eps2`` of one run.  The variance of each mean,
    ``noise_var = sigma_eps2 / s``, is derived once here and read-only."""

    means: np.ndarray
    sigma_eps2: np.ndarray
    s: np.ndarray
    noise_var: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float).ravel()
        se2 = np.asarray(self.sigma_eps2, dtype=float).ravel()
        s = _whole_counts(self.s).ravel()
        if not (len(means) == len(se2) == len(s)):
            raise ValueError("means, sigma_eps2 and s must have equal length")
        if np.any(s < 1):
            raise ValueError("replication counts must be >= 1")
        if not np.all(np.isfinite(means)):
            raise ValueError("observation means must be finite")
        if not np.all(np.isfinite(se2) & (se2 >= 0)):
            raise ValueError("noise variances must be finite and >= 0")
        for name, arr in (("means", means), ("sigma_eps2", se2), ("s", s), ("noise_var", se2 / s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.means)

    @classmethod
    def from_replicates(cls, replicates, sigma_eps2=None) -> "ObservationSet":
        """Build from raw replicate lists.

        With ``sigma_eps2`` omitted each point's run variance is its sample
        variance over s_i - 1, which requires s_i >= 2 everywhere.
        """
        reps = [np.asarray(r, dtype=float).ravel() for r in replicates]
        if not reps or any(len(r) < 1 for r in reps):
            raise ValueError("every point needs at least one replicate")
        s = np.array([len(r) for r in reps])
        means = np.array([r.mean() for r in reps])
        if sigma_eps2 is None:
            if np.any(s < 2):
                raise ValueError(
                    "estimating noise from replicates requires s_i >= 2; "
                    "pass sigma_eps2 explicitly otherwise"
                )
            sigma_eps2 = np.array([r.var(ddof=1) for r in reps])
        return cls(means, sigma_eps2, s)


@dataclass(frozen=True)
class Predictor:
    """Fitted BLUP state; immutable after construction."""

    kernel: KernelSpec
    design: Design
    mean: float
    noise: np.ndarray
    chol: np.ndarray
    weights: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        for name in ("noise", "chol", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _factor_with_jitter(K: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of A = K + diag(noise) and the jitter added to A.

    A jitter of 1e-10 * trace(A)/n is added whenever some noise entry is
    exactly zero; on failure one retry at 1e-8 scale is made before
    raising SingularCovarianceError.
    """
    A = np.asarray_chkfinite(K + np.diag(noise))
    n = len(A)
    base = np.trace(A) / n
    scales = _JITTER_SCALES if np.min(noise) == 0 else (0.0,) + tuple(_JITTER_SCALES[1:])
    for scale in scales:
        L, info = dpotrf(A + scale * base * np.eye(n), lower=1, clean=1)
        if info == 0:
            # C order keeps the LAPACK path, and so the rounding, of the
            # triangular solves that use the factor
            return np.ascontiguousarray(L), scale * base
    # info is the order of the leading minor that is not positive definite
    raise SingularCovarianceError(info)


def fit_blup(kernel: KernelSpec, design: Design, obs: ObservationSet, mean: float = 0.0) -> Predictor:
    """Factorize K + Delta with ``_factor_with_jitter``; precompute the prediction weights."""
    if len(obs) != design.n:
        raise ValueError("observation count does not match design size")
    L, jitter = _factor_with_jitter(gram_matrix(kernel, design.points), obs.noise_var)
    resid = obs.means - mean
    w = cho_solve((L, True), resid)
    return Predictor(
        kernel=kernel,
        design=design,
        mean=float(mean),
        noise=obs.noise_var,
        chol=L,
        weights=w,
        jitter=jitter,
    )


def _cross(p: Predictor, x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 0 or (pts.ndim == 1 and (p.design.dim > 1 or pts.size == 1))
    X = _as_points(x, p.design.dim)
    return cross_matrix(p.kernel, X, p.design.points), single


def predict_mean(p: Predictor, x):
    """Kriging mean at one point (scalar) or at a stack of points (vector)."""
    Kx, single = _cross(p, x)
    out = p.mean + Kx @ p.weights
    return float(out[0]) if single else out


def _pointwise_mse(L: np.ndarray, Kx: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """k(x, x) - k(x)' (L L')^{-1} k(x) for each row of Kx, clamped at zero."""
    # _factor_with_jitter's asarray_chkfinite has checked L, and _as_points
    # the coordinates that Kx is built from
    V = solve_triangular(L, Kx.T, lower=True, check_finite=False)
    return np.maximum(kx - np.einsum("ij,ij->j", V, V), 0.0)


def predict_mse(p: Predictor, x):
    """Pointwise mean squared error of the kriging mean; clamped at zero."""
    Kx, single = _cross(p, x)
    X = _as_points(x, p.design.dim)
    out = _pointwise_mse(p.chol, Kx, kernel_diag(p.kernel, X))
    return float(out[0]) if single else out


def integrated_mse(p: Predictor, quadrature: Quadrature) -> float:
    """Quadrature approximation of the integral of predict_mse over mu."""
    if quadrature.dim != p.design.dim:
        raise ValueError("quadrature dimension does not match predictor")
    mse = predict_mse(p, quadrature.nodes)
    mse = np.atleast_1d(mse)
    return float(quadrature.weights @ mse)


@dataclass(frozen=True)
class ImseOperator:
    """Quadrature IMSE of the BLUP on fixed points, for any noise diagonal.

    Holds the Gram matrix ``K`` of the points, the cross matrix ``Kq``
    from the quadrature nodes to the points and the prior variances
    ``kq`` at the nodes, so that many IMSE values on one design build
    each kernel matrix once.  ``imse`` takes any noise diagonal and costs
    one Cholesky factorization and one triangular solve per call;
    ``imse_scaled`` takes noise ``c I`` for a whole array of scales and
    costs one eigendecomposition of ``K`` per operator, made on its first
    call, plus O(n) per scale.
    """

    kernel: KernelSpec
    points: InitVar[np.ndarray]
    quadrature: Quadrature
    K: np.ndarray = field(init=False, repr=False)
    Kq: np.ndarray = field(init=False, repr=False)
    kq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, points):
        nodes = self.quadrature.nodes
        for name, arr in (
            ("K", gram_matrix(self.kernel, points)),
            ("Kq", cross_matrix(self.kernel, nodes, points)),
            ("kq", kernel_diag(self.kernel, nodes)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def imse(self, noise_var) -> float:
        """IMSE under noise diagonal ``noise_var``, factorized as fit_blup does."""
        delta = np.asarray(noise_var, dtype=float).ravel()
        if len(delta) != len(self.K):
            raise ValueError("noise vector length must match the number of points")
        if not np.all(np.isfinite(delta) & (delta >= 0)):
            raise ValueError("noise variances must be finite and >= 0")
        L, _ = _factor_with_jitter(self.K, delta)
        return float(self.quadrature.weights @ _pointwise_mse(L, self.Kq, self.kq))

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Eigenvalues of K, the weighted mass g_i = sum_q w_q (Kq v_i)_q^2
        of each eigenvector at the nodes, and the prior IMSE sum_q w_q kq_q."""
        lam, V = eigh(self.K)
        G = self.Kq @ V
        w = self.quadrature.weights
        return lam, np.einsum("q,qi,qi->i", w, G, G), float(w @ self.kq)

    def imse_scaled(self, c) -> np.ndarray:
        """IMSE under noise ``c I`` for each positive scale in ``c``.

        With K = V diag(lambda) V', the IMSE is
        sum_q w_q kq_q - sum_i g_i / (lambda_i + c).  A scale at which
        lambda_min + c < _SPECTRAL_FLOOR * (lambda_max + c) goes through
        ``imse`` instead, which factorizes with jitter and clamps the
        pointwise MSE at zero.
        """
        c = np.asarray(c, dtype=float).ravel()
        if not np.all(np.isfinite(c) & (c > 0)):
            raise ValueError("noise scales must be finite and > 0")
        lam, g, base = self._spectral
        fast = lam[0] + c >= _SPECTRAL_FLOOR * (lam[-1] + c)
        out = np.empty(len(c))
        out[fast] = base - (g / (lam + c[fast, None])).sum(axis=1)
        for j in np.flatnonzero(~fast):
            out[j] = self.imse(np.full(len(lam), c[j]))
        return out

    def local_weight(self) -> np.ndarray:
        """c(x_j) = sum_q w_q k(x_q, x_j)^2 at every point."""
        return self.quadrature.weights @ (self.Kq * self.Kq)


def _write_csv(path, header, rows) -> None:
    """One header row, then ``rows``: an int cell bare, any other with _FLOAT_FMT."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [v if isinstance(v, (int, np.integer)) else _FLOAT_FMT % v for v in row]
            for row in rows
        )


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def save_observations_csv(path, points, obs: ObservationSet) -> None:
    """Write design points and averaged observations (columns x_1.., z, s, sigma_eps2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] != len(obs):
        raise ValueError("points and observations must have equal length")
    d = pts.shape[1]
    header = [f"x_{j + 1}" for j in range(d)] + ["z", "s", "sigma_eps2"]
    columns = (obs.means.tolist(), obs.s.tolist(), obs.sigma_eps2.tolist())
    _write_csv(path, header, (x + [z, s, e] for x, z, s, e in zip(pts.tolist(), *columns)))


def load_observations_csv(path) -> tuple[np.ndarray, ObservationSet]:
    """Read a design/observation CSV in either accepted layout.

    Layout A: x_1..x_d, z, s, sigma_eps2 (averaged form, each column read
    back exactly).  Layout B: x_1..x_d, z_1..z_s (raw replicates, equal
    count per row).  The header row is mandatory.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row is mandatory")
        rows = [r for r in reader if r]
    header = [h.strip() for h in header]
    xcols = [i for i, h in enumerate(header) if re.fullmatch(r"x_\d+", h)]
    if xcols != list(range(len(xcols))) or not xcols:
        raise ValueError(f"{path}: header must start with x_1..x_d, got {header}")
    d = len(xcols)
    rest = header[d:]
    data = np.array([[float(v) for v in r] for r in rows])
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    pts = data[:, :d]
    if rest == ["z", "s", "sigma_eps2"]:
        z, s, se2 = data[:, d], data[:, d + 1], data[:, d + 2]
        if not np.all(np.isfinite(se2) & (se2 >= 0)):
            raise ValueError(f"{path}: sigma_eps2 must be finite and >= 0")
        return pts, ObservationSet(z, se2, s)
    if rest and all(re.fullmatch(r"z_\d+", h) for h in rest):
        reps = [data[i, d:] for i in range(len(data))]
        return pts, ObservationSet.from_replicates(reps)
    raise ValueError(
        f"{path}: expected columns z,s,sigma_eps2 or z_1..z_s after x columns, got {rest}"
    )
