"""Covariance kernel families and their pointwise / matrix evaluation.

Each family's formula is written once.  The stationary families
(``matern1d``, ``matern_tensor``, ``gaussian``, ``exponential``,
``triangular``) are unit-variance correlations times ``variance``: a term
of each axis's scaled distance r = |x_j - y_j| / l_j (``_axis_term``)
combined over the axes (``_stationary``).  The one-dimensional families
are a broadcasting k(a, b) of two coordinates (``_coordinate_kernel``).
``fbm`` uses the form

    k(x, y) = x^{2H} + y^{2H} - |x - y|^{2H}

which is *twice* the conventional fractional-Brownian covariance; with
H = 1/2 it reduces to 2*min(x, y).  ``brownian`` is the plain min(x, y)
kernel.  ``finite_rank`` builds degenerate kernels from an explicit list
of (weight, basis id) terms with cosine or Legendre bases orthonormal for
the uniform measure on [0, 1].  The stationary families take every
|x_j - y_j| as a numpy difference: ``cross_matrix`` per-axis tables of
distinct coordinates (or every pair directly, when no coordinate
repeats), ``gram_matrix`` the per-axis strict upper triangle
in row-major (condensed) order (``_axis_distances``), which one ``take``
mirrors into the square (``_symmetric``).

Matern at nu = 1/2, 3/2, 5/2 has closed forms.  Any other nu needs the
Bessel factor F = 2^{1-nu}/Gamma(nu) u^nu K_nu(u): a piecewise Chebyshev
interpolant of g(s) = u + log F in s = log u (Trefethen, *Approximation
Theory and Approximation Practice*, ch. 3 and 8), evaluated entry by entry
with Clenshaw's recurrence.  The tables are interpolated in nu on
geometric panels [2^k, 2^{k+1}] / 16, each built on first use from the
tables at its Chebyshev points in nu, whose node values come from one
``kv`` call; a Matern ``KernelSpec`` takes nu only in their range,
``NU_RANGE``.  ``_matern_corr`` with ``gradient`` also returns the
lengthscale slope and the nu-derivative of log F, read at the same
located entries in one Clenshaw pass over g's series stacked with two
more: g' = dg/ds, since by d/du[u^nu K_nu] = -u^nu K_{nu-1} (Abramowitz
& Stegun 9.6.28) 2^{1-nu}/Gamma(nu) u^{nu+1} K_{nu-1}(u) = F (u - g'(s)),
and the differentiated nu series.  Entries above the table's top use
``kv`` directly.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebder
from scipy.special import eval_legendre, gammaln, kv

FAMILIES = (
    "matern1d",
    "matern_tensor",
    "gaussian",
    "fbm",
    "brownian",
    "exponential",
    "triangular",
    "finite_rank",
)

_ONE_D_FAMILIES = ("fbm", "brownian", "finite_rank")

# below this scaled distance the Matern correlation is 1 to double precision
_MATERN_U_FLOOR = 1e-10

# The Bessel table spans log u from the floor to _BESSEL_TABLE_TOP, where
# the correlation is about 1e-301 (kv itself underflows to 0 from about
# u = 697.9).  24 panels (1.23 wide in log u) of degree 18 keep the last
# Chebyshev coefficients near 1e-14 for nu up to about 26: 433 nodes in u.
# Above that nu, kv overflows at the small-u nodes and the check fails.
_BESSEL_TABLE_TOP = 690.0
_CHEB_PANELS = 24
_CHEB_DEGREE = 18
_CHEB_TAIL_TOL = 1e-13
_CHEB_S_LO = math.log(_MATERN_U_FLOOR)
_CHEB_WIDTH = (math.log(_BESSEL_TABLE_TOP) - _CHEB_S_LO) / _CHEB_PANELS
# the s-derivative of a panel's series, with x = 2 (s - s_panel) / _CHEB_WIDTH - 1
_CHEB_SLOPE = chebder(np.eye(_CHEB_DEGREE + 1), scl=2 / _CHEB_WIDTH)
# The tables are interpolated in nu as well, on geometric panels
# [2^k, 2^{k+1}] / 16 for k < _NU_PANELS at _NU_NODES Chebyshev points each:
# the last series terms stay below 3e-14 and the factor within about 3e-13
# of kv.  A ninth panel [16, 32] would need the tables that fail above 26.
_NU_PANEL_LO = 1 / 16
_NU_PANELS = 8
_NU_NODES = 24
# the nu range of the panels, ends included: the nu a Matern KernelSpec takes
NU_RANGE = (_NU_PANEL_LO, _NU_PANEL_LO * 2**_NU_PANELS)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family tag plus hyperparameters.

    ``lengthscales`` sets the input dimension for stationary families;
    ``fbm``, ``brownian`` and ``finite_rank`` are one-dimensional.
    """

    family: str
    nu: float | None = None
    lengthscales: tuple[float, ...] = (1.0,)
    variance: float = 1.0
    hurst: float | None = None
    rank_terms: tuple[tuple[float, str], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        object.__setattr__(self, "lengthscales", tuple(float(l) for l in self.lengthscales))
        if not self.lengthscales:
            raise ValueError("lengthscales must not be empty")
        if not all(0 < l < math.inf for l in self.lengthscales):
            raise ValueError("lengthscales must all be finite and > 0")
        if not 0 < self.variance < math.inf:
            raise ValueError("variance must be finite and > 0")
        if self.family in ("matern1d", "matern_tensor"):
            if not isinstance(self.nu, numbers.Real) or not NU_RANGE[0] <= self.nu <= NU_RANGE[1]:
                raise ValueError(f"Matern kernels require nu in [{NU_RANGE[0]}, {NU_RANGE[1]}], "
                                 "the nu range of the Bessel tables")
        if self.family == "matern1d" and len(self.lengthscales) != 1:
            raise ValueError("matern1d is one-dimensional")
        if self.family == "fbm":
            if not isinstance(self.hurst, numbers.Real) or not 0 < self.hurst < 1:
                raise ValueError("fbm requires hurst in (0, 1)")
        # a nu or hurst is written by to_json even where the family ignores it
        for name in ("nu", "hurst"):
            if getattr(self, name) is not None:
                _config_number(getattr(self, name), name)
        if self.family in _ONE_D_FAMILIES and len(self.lengthscales) != 1:
            raise ValueError(f"{self.family} is one-dimensional")
        if self.family == "finite_rank":
            if not self.rank_terms:
                raise ValueError("finite_rank requires nonempty rank_terms")
            terms = tuple((float(w), str(b)) for w, b in self.rank_terms)
            if not all(0 < w < math.inf for w, _ in terms):
                raise ValueError("rank_terms weights must be finite and > 0")
            for _, b in terms:
                _parse_basis_id(b)
            object.__setattr__(self, "rank_terms", terms)

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "lengthscales": list(self.lengthscales),
            "variance": self.variance,
        }
        if self.nu is not None:
            out["nu"] = self.nu
        if self.hurst is not None:
            out["hurst"] = self.hurst
        if self.rank_terms is not None:
            out["rank_terms"] = [[w, b] for w, b in self.rank_terms]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "KernelSpec":
        known = {"family", "nu", "lengthscales", "variance", "hurst", "rank_terms"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown KernelSpec fields: {sorted(unknown)}")
        kwargs = dict(obj)
        kwargs.update({k: _config_number(obj[k], k) for k in ("nu", "hurst", "variance") if k in obj})
        if "lengthscales" in obj:
            kwargs["lengthscales"] = tuple(_config_number(l, "lengthscales") for l in obj["lengthscales"])
        if "rank_terms" in obj:
            kwargs["rank_terms"] = tuple((_config_number(w, "rank_terms weight"), b)
                                         for w, b in obj["rank_terms"])
        return cls(**kwargs)


def _matern_corr(r: np.ndarray, nu: float, gradient: bool = False):
    """Matern correlation rho of scaled distance r >= 0 for regularity nu.

    With ``gradient`` the triple (rho, S, D) of ``_bessel_factor``, with rho
    from the closed form at nu = 1/2, 3/2, 5/2: S = -u dF/du is theta times
    the derivative of rho(|dx| / theta) in the lengthscale theta, and D is
    d log F / d nu at fixed u = sqrt(2 nu) r.
    """
    u = np.sqrt(2 * nu) * np.asarray(r, dtype=float)
    half = 2 * nu
    if abs(half - round(half)) < 1e-12 and round(half) in (1, 3, 5):
        if round(half) == 1:
            rho = np.exp(-u)
        elif round(half) == 3:
            rho = (1 + u) * np.exp(-u)
        else:
            rho = (1 + u + u * u / 3) * np.exp(-u)
        return (rho, *_bessel_factor(u, nu, True)[1:]) if gradient else rho
    return _bessel_factor(u, nu, gradient)


def _log_prefactor(s: np.ndarray, nu: float) -> np.ndarray:
    """log(2^{1-nu}/Gamma(nu) * u^nu) at s = log u."""
    return (1 - nu) * np.log(2.0) - gammaln(nu) + nu * s


@lru_cache(maxsize=None)
def _cheb_transform(deg: int) -> np.ndarray:
    """Map from the values at the deg + 1 ascending Chebyshev points of the second
    kind, x_j = -cos(pi j / deg), to the coefficients of their interpolant:
    c_k = (2/deg) sum'' g_j T_k(x_j), with T_k(x_j) = (-1)^k cos(pi k j / deg)."""
    j = np.arange(deg + 1)
    transform = (2.0 / deg) * (-1.0) ** j[:, None] * np.cos(np.pi * np.outer(j, j) / deg)
    transform[:, [0, deg]] *= 0.5
    transform[[0, deg]] *= 0.5
    transform.flags.writeable = False
    return transform


def _cheb_points01(deg: int) -> np.ndarray:
    """The deg + 1 ascending Chebyshev points of the second kind, mapped to [0, 1]."""
    return (1 - np.cos(np.pi * np.arange(deg + 1) / deg)) / 2


def _tail_ok(coef: np.ndarray) -> bool:
    """The last two Chebyshev coefficients are finite and below _CHEB_TAIL_TOL."""
    return bool(np.max(np.abs(coef[-2:])) <= _CHEB_TAIL_TOL)


@lru_cache(maxsize=None)
def _nu_panel(k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Chebyshev series in nu of the table over nu panel k.

    A table is the interpolant of g(s) = u + log F in s = log u: Chebyshev
    coefficients, shape (degree + 1, u panels), at the Chebyshev points of
    the second kind of each u panel, so neighbouring panels share an end
    point.  In log form the error is relative in F, and every node value
    stays finite where e^u u^nu K_nu(u) would overflow.

    Panel k is [2^k, 2^{k+1}] * _NU_PANEL_LO, mapped to x in [-1, 1]; one
    ``kv`` call gives the node values of the tables at its _NU_NODES
    Chebyshev points in nu.  Returns (A, dA), shape (_NU_NODES, table size)
    and one row less: coef(nu) = sum_m A_m T_m(x) and d coef/dnu = sum_m
    dA_m T_m(x), the differentiated series (``chebder``) times dx/dnu.
    None when the last two coefficients of some node's u panel, or of the
    nu series, exceed _CHEB_TAIL_TOL or are not finite.
    """
    deg = _CHEB_DEGREE
    panels = np.arange(_CHEB_PANELS)[:, None]
    s = (_CHEB_S_LO + _CHEB_WIDTH * (panels + _cheb_points01(deg)[:-1])).ravel()
    s = np.append(s, _CHEB_S_LO + _CHEB_WIDTH * _CHEB_PANELS)
    u = np.exp(s)
    lo = _NU_PANEL_LO * 2.0**k
    nu = lo * (1 + _cheb_points01(_NU_NODES - 1))[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = _log_prefactor(s, nu) + np.log(kv(nu, u)) + u
        # (node, degree + 1, u panel): each node's table
        tables = _cheb_transform(deg) @ g[:, deg * panels + np.arange(deg + 1)].swapaxes(1, 2)
        A = _cheb_transform(_NU_NODES - 1) @ tables.reshape(_NU_NODES, -1)
    if not (_tail_ok(tables.swapaxes(0, 1)) and _tail_ok(A)):
        return None
    # x = 2 nu / lo - 3 on panel k, so dx/dnu = 2 / lo
    dA = chebder(A) * (2.0 / lo)
    A.flags.writeable = dA.flags.writeable = False
    return A, dA


def _nu_coef(nu: float, derivative: bool = False) -> np.ndarray:
    """The table at nu (or its nu-derivative) from nu's panel.  ValueError
    when nu lies outside ``NU_RANGE``, RuntimeError naming the panel when it
    failed its check."""
    # nu * 16 = frac * 2^e with frac in [0.5, 1): panel e - 1, at x = 4 frac - 3
    frac, e = math.frexp(nu / _NU_PANEL_LO)
    k, x = e - 1, 4.0 * frac - 3.0
    if k == _NU_PANELS and frac == 0.5:
        # the top of the range belongs to the last panel
        k, x = _NU_PANELS - 1, 1.0
    if not 0 <= k < _NU_PANELS:
        raise ValueError(f"nu = {nu} is outside the nu range [{NU_RANGE[0]}, {NU_RANGE[1]}] "
                         "of the Bessel tables")
    panel = _nu_panel(k)
    if panel is None:
        lo = _NU_PANEL_LO * 2.0**k
        raise RuntimeError(f"the Bessel table panel nu in [{lo}, {2 * lo}] failed its check")
    series = panel[1] if derivative else panel[0]
    # T_m(x) = cos(m arccos x)
    T = np.cos(np.arange(len(series)) * math.acos(x))
    return (T @ series).reshape(_CHEB_DEGREE + 1, _CHEB_PANELS)


def _cheb_locate(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each u's table panel and 2x, with x in [-1, 1] its position inside that panel."""
    t = (np.log(u) - _CHEB_S_LO) / _CHEB_WIDTH
    idx = t.astype(np.intp)
    np.minimum(idx, _CHEB_PANELS - 1, out=idx)
    x2 = t - idx
    x2 *= 4.0
    x2 -= 2.0
    return idx, x2


def _clenshaw(coef: np.ndarray, idx: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The table's series at the located entries (``_cheb_locate``), by Clenshaw's recurrence.

    ``coef`` is one table, (degree + 1, panels), or a stack of tables,
    (degree + 1, series, panels): the gathers run along the last axis, so
    a stack gives every series at once, shape (series, entries).  Only
    elementwise operations, so an entry's value does not depend on the
    other entries or series; each step gathers one coefficient per entry
    and series, so no array larger than that is made.  The gathers use
    mode="clip" (every index is in range), which writes to ``out`` unbuffered.
    """
    b1 = coef[-1].take(idx, axis=-1, mode="clip")
    b2 = np.zeros_like(b1)
    step = np.empty_like(b1)
    c = np.empty_like(b1)
    for row in coef[-2:0:-1]:
        # b_k = c_k + 2x b_{k+1} - b_{k+2}
        np.multiply(x2, b1, out=step)
        step -= b2
        step += row.take(idx, axis=-1, out=c, mode="clip")
        b2, b1, step = b1, step, b2
    # g = c_0 + x b_1 - b_2
    g = np.multiply(x2, 0.5, out=step)
    g *= b1
    g -= b2
    g += coef[0].take(idx, axis=-1, out=c, mode="clip")
    return g


def _bessel_factor(u: np.ndarray, nu: float, gradient: bool = False):
    """F = 2^{1-nu}/Gamma(nu) u^nu K_nu(u) at scaled distances u >= 0, or with
    ``gradient`` the triple (F, S, D): S = -u dF/du = 2^{1-nu}/Gamma(nu)
    u^{nu+1} K_{nu-1}(u) and D = d log F / d nu at fixed u.

    Each holds its u -> 0 limit, 1 or 0, up to _MATERN_U_FLOOR.  Then up to
    _BESSEL_TABLE_TOP they come from the table nu's panel interpolates at
    nu, located once: F = exp(g - u), S = F (u - g') and D = dg/dnu, from
    one Clenshaw pass over the series of g, g' = dg/ds and dg/dnu.  Above
    it F and S come from the direct ``kv`` formula, and D is 0, where F D
    is below 1e-300.  nu must lie in ``NU_RANGE`` (``_nu_coef``).
    """
    coef = _nu_coef(nu)
    if gradient:
        # g' is one degree lower: its zero top row leaves Clenshaw's sum unchanged
        slope = np.vstack([_CHEB_SLOPE @ coef, np.zeros(_CHEB_PANELS)])
        coef = np.stack([coef, slope, _nu_coef(nu, derivative=True)], axis=1)
    F = np.ones_like(u)
    if gradient:
        S, D = np.zeros_like(u), np.zeros_like(u)
    far = u > _BESSEL_TABLE_TOP
    if far.any():
        uf = u[far]
        # in log space, so it stays finite for large nu
        pref = np.exp(_log_prefactor(np.log(uf), nu))
        F[far] = pref * kv(nu, uf)
        if gradient:
            S[far] = pref * kv(nu - 1, uf) * uf
    near = (u > _MATERN_U_FLOOR) & ~far
    if near.any():
        un = u[near]
        g = _clenshaw(coef, *_cheb_locate(un))
        Fn = g[0] if gradient else g
        Fn -= un
        np.exp(Fn, out=Fn)
        F[near] = Fn
        if gradient:
            S[near] = Fn * (un - g[1])
            D[near] = g[2]
    return (F, S, D) if gradient else F


def _parse_basis_id(basis_id: str) -> tuple[str, int]:
    try:
        kind, idx = basis_id.split(":")
        idx = int(idx)
    except ValueError:
        raise ValueError(f"bad basis id {basis_id!r}; expected 'cos:j' or 'leg:j'")
    if kind not in ("cos", "leg") or idx < 0:
        raise ValueError(f"bad basis id {basis_id!r}; expected 'cos:j' or 'leg:j'")
    return kind, idx


def _basis_values(basis_id: str, x: np.ndarray) -> np.ndarray:
    """Orthonormal basis functions for the uniform measure on [0, 1]."""
    kind, j = _parse_basis_id(basis_id)
    if kind == "cos":
        if j == 0:
            return np.ones_like(x)
        return np.sqrt(2.0) * np.cos(j * np.pi * x)
    return np.sqrt(2 * j + 1.0) * eval_legendre(j, 2 * x - 1)


def _config_number(val, name: str, kind=float):
    """A config number as ``kind`` (float or int), or ValueError naming ``name``: a bool,
    a string or null is never a number, an int must be whole (40.0 reads as 40, never
    truncated) and a float finite."""
    if not isinstance(val, bool) and isinstance(val, numbers.Real):
        if kind is int and (isinstance(val, numbers.Integral) or float(val).is_integer()):
            return int(val)
        if kind is float and abs(val) <= sys.float_info.max:
            return float(val)
    raise ValueError(f"{name}: expected {'whole' if kind is int else 'finite'} numbers, got {val!r}")


def _as_points(x, dim: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        # a length-d vector is one point; a vector in 1-D is many points
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[-1]}, kernel expects {dim}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


# the orders whose triangle indices are kept, about 20 n^2 bytes each: a fit or a
# run of plans reuses its design's; a larger design is indexed once per Gram
# matrix.  No Nystrom grid is indexed: its matrix is filled from cross_matrix
_TRIANGLE_CACHE_MAX_N = 512


class _Triangle(NamedTuple):
    """Index arrays of the pairs i < j of an n x n matrix in row-major order,
    the order of a condensed distance vector."""

    rows: np.ndarray    # i
    cols: np.ndarray    # j
    upper: np.ndarray   # the flat positions i*n + j
    square: np.ndarray  # per flat position of the square, its pair; the pair count on the diagonal


@lru_cache(maxsize=4)
def _cached_triangle(n: int) -> _Triangle:
    rows, cols = np.triu_indices(n, 1)
    upper = rows * n + cols
    square = np.full(n * n, len(upper))
    square[upper] = square[cols * n + rows] = np.arange(len(upper))
    return _Triangle(rows, cols, upper, square)


def _triangle(n: int) -> _Triangle:
    """The index arrays of an n x n matrix's pairs, kept up to ``_TRIANGLE_CACHE_MAX_N``."""
    return (_cached_triangle(n) if n <= _TRIANGLE_CACHE_MAX_N
            else _cached_triangle.__wrapped__(n))


def _axis_distances(points: np.ndarray) -> list[np.ndarray]:
    """The |x_i - x_j| of each axis over the pairs i < j in condensed order."""
    tri = _triangle(len(points))
    return [np.abs(x[tri.rows] - x[tri.cols]) for x in points.T]


def _symmetric(triangle: np.ndarray, diagonal: float, n: int) -> np.ndarray:
    """The n x n symmetric matrix of a condensed strict upper triangle and one diagonal value."""
    return np.append(triangle, diagonal).take(_triangle(n).square).reshape(n, n)


def _axis_term(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """One axis's term of a stationary family at scaled distance r = |x_j - y_j| / l_j >= 0."""
    fam = spec.family
    if fam == "gaussian":
        return r * r
    if fam == "exponential":
        return r
    if fam == "triangular":
        return np.maximum(0.0, 1.0 - r)
    return _matern_corr(r, spec.nu)


def _stationary(spec: KernelSpec, terms) -> np.ndarray:
    """Combine the per-axis terms, each a fresh array, in place into the covariance."""
    fam = spec.family
    op = np.add if fam in ("gaussian", "exponential") else np.multiply
    acc = reduce(lambda acc, t: op(acc, t, out=acc), terms)
    if fam in ("gaussian", "exponential"):
        acc *= -0.5 if fam == "gaussian" else -1.0
        np.exp(acc, out=acc)
    acc *= spec.variance
    return acc


def _coordinate_kernel(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k(a, b) of a one-dimensional family, broadcasting over the coordinates."""
    fam = spec.family
    if fam == "brownian":
        return spec.variance * np.minimum(a, b)
    if fam == "fbm":
        h2 = 2 * spec.hurst
        return spec.variance * (np.abs(a) ** h2 + np.abs(b) ** h2 - np.abs(a - b) ** h2)
    out = 0.0
    for w, bid in spec.rank_terms:
        out = out + w * (_basis_values(bid, a) * _basis_values(bid, b))
    return spec.variance * out


def cross_matrix(spec: KernelSpec, x, y) -> np.ndarray:
    """Covariance matrix k(x_i, y_j) for two point sets, shape (n, m)."""
    X = _as_points(x, spec.dim)
    Y = _as_points(y, spec.dim)
    if spec.family in _ONE_D_FAMILIES:
        return _coordinate_kernel(spec, X[:, 0][:, None], Y[:, 0][None, :])

    def axis_terms():
        # an axis term depends only on the two coordinates, so it is evaluated
        # once per pair of distinct values (the Bessel work of Matern) and
        # gathered; when no coordinate repeats, the table is the term itself
        for j, l in enumerate(spec.lengthscales):
            xu, xi = np.unique(X[:, j], return_inverse=True)
            yu, yi = np.unique(Y[:, j], return_inverse=True)
            if len(xu) == len(X) and len(yu) == len(Y):
                yield _axis_term(spec, np.abs(X[:, j][:, None] - Y[:, j][None, :]) / l)
            else:
                table = _axis_term(spec, np.abs(xu[:, None] - yu[None, :]) / l)
                yield table.take(yi, axis=1).take(xi, axis=0)

    return _stationary(spec, axis_terms())


def kernel_diag(spec: KernelSpec, x) -> np.ndarray:
    """Vector of k(x_i, x_i) values."""
    X = _as_points(x, spec.dim)
    if spec.family in _ONE_D_FAMILIES:
        return _coordinate_kernel(spec, X[:, 0], X[:, 0])
    return np.full(len(X), spec.variance)


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric covariance matrix of a point set.

    A one-dimensional family evaluates its broadcasting formula on the
    whole square, whose terms commute, so the result is exactly symmetric.
    A stationary family evaluates only the strict upper triangle, in
    condensed row-major order (``_axis_distances``), and ``_symmetric``
    mirrors it around the constant ``kernel_diag`` diagonal with one
    ``take``.  ``cross_matrix(spec, X, X)`` gives the same bits, and each
    path serves the workload it wins on (2-core Xeon): the triangle serves
    designs (n = 100, nu ~ 2.7: 0.70-0.84 ms against 1.17-1.59 ms), and
    the tables of distinct coordinates serve the Nystrom grid, which
    ``spectrum.nystrom_spectrum`` fills by row blocks of ``cross_matrix``
    (the 1600-node Karhunen-Loeve grid of ``sim_harness``: 15-21 ms against
    46-54 ms through the triangle).
    """
    X = _as_points(points, spec.dim)
    if len(X) == 0:
        raise ValueError("gram_matrix requires at least one point")
    if spec.family in _ONE_D_FAMILIES:
        return _coordinate_kernel(spec, X[:, 0][:, None], X[:, 0][None, :])
    corr = _stationary(spec, (
        _axis_term(spec, d / l) for d, l in zip(_axis_distances(X), spec.lengthscales)
    ))
    return _symmetric(corr, spec.variance, len(X))
