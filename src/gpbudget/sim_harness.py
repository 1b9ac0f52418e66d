"""Synthetic stochastic simulator and the experiment drivers built on it.

The simulator produces replicated noisy evaluations of a fixed smooth
2-D response (optionally roughened by a seeded Karhunen-Loeve draw) with
a strictly positive, spatially varying noise field.  The drivers
regenerate the learning-curve figures and run the budget-planning case
study end to end: noise estimation, hyperparameter fitting, budget
forecasting, replication allocation, and a uniform-vs-optimal
comparison on held-out data.

The config readers and size caps shared with the CLI live here: each
driver reads and checks its whole config once, before any work, so a
library call is refused as the CLI is, by a ``ConfigError`` naming the key.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve

from .allocation import plan_allocation, heteroscedastic_imse, round_allocation, save_plan_csv
from .gp_core import (
    Design,
    ObservationSet,
    Quadrature,
    UniformBox,
    save_observations_csv,
    _factor_with_jitter,
    _whole_counts,
    _write_csv,
    _write_json,
)
from .kernels import KernelSpec, cross_matrix, gram_matrix, _as_points, _config_number
from .learning_curve import (
    asymptotic_imse,
    empirical_learning_curve,
    fit_loglog_slope,
    rate_law,
)
from .planner import estimate_noise, fit_hyperparameters, required_budget
from .spectrum import eigenfunction_matrix, nystrom_spectrum

_TRUTH_IDS = ("smooth2d", "smooth2d_kl", "sine1d")
_NOISE_IDS = ("constant", "smooth")
_VARIANCE_FLOOR = 1e-30

# Karhunen-Loeve roughening of the 2-D truth: fixed kernel, grid and
# term count so the surface depends only on the simulator seed
_KL_KERNEL = KernelSpec(family="matern_tensor", nu=1.5, lengthscales=(0.4, 0.4), variance=0.04)
_KL_GRID = 40
_KL_TERMS = 40


@lru_cache(maxsize=None)
def _kl_spectrum():
    """The Karhunen-Loeve spectrum of the roughened truth, built once per process.

    Its kernel, grid and term count are module constants, so only the
    seed's normal draws differ between simulators; the spectrum's arrays
    are read-only and shared.  A one-shot process still pays its one
    1600-node ``eigh``; every later case study or truth in the same
    process skips it.  The spectrum keeps the BLAS thread count of the
    first call.
    """
    quad = Quadrature.tensor_trapezoid(_KL_GRID, ((0.0, 1.0), (0.0, 1.0)))
    return nystrom_spectrum(_KL_KERNEL, quad, _KL_TERMS)


@dataclass(frozen=True)
class SyntheticSimulator:
    """Deterministic ground truth plus a positive noise-variance field."""

    truth: str = "smooth2d_kl"
    noise_field: str = "smooth"
    noise_level: float = 3.3e-3
    noise_contrast: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.truth not in _TRUTH_IDS:
            raise ValueError(f"unknown truth id {self.truth!r}")
        if self.noise_field not in _NOISE_IDS:
            raise ValueError(f"unknown noise field id {self.noise_field!r}")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")
        if self.noise_contrast < 1:
            raise ValueError("noise_contrast must be >= 1")

    @property
    def dim(self) -> int:
        return 1 if self.truth == "sine1d" else 2

    @cached_property
    def _kl(self):
        """The shared ``_kl_spectrum()`` and this seed's KL coefficients."""
        spec = _kl_spectrum()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 20251]))
        xi = rng.standard_normal(_KL_TERMS)
        n_pos = int(np.sum(spec.eigenvalues > 0))
        coef = np.sqrt(spec.eigenvalues[:n_pos]) * xi[:n_pos]
        return spec, coef

    def truth_values(self, x) -> np.ndarray:
        X = _as_points(x, self.dim)
        if self.truth == "sine1d":
            t = X[:, 0]
            return 0.65 + 0.4 * np.sin(2 * math.pi * t)
        x1, x2 = X[:, 0], X[:, 1]
        base = 0.65 + 0.3 * np.sin(2 * math.pi * x1) * np.cos(math.pi * x2) + 0.2 * (x2 - 0.5)
        if self.truth == "smooth2d":
            return base
        spec, coef = self._kl
        phi = eigenfunction_matrix(spec, _KL_KERNEL, X, p_max=len(coef))
        return base + phi @ coef

    def noise_variance(self, x) -> np.ndarray:
        raw = self._noise_shape(_as_points(x, self.dim))
        return np.maximum(self.noise_level * raw / self._noise_mean, _VARIANCE_FLOOR)

    def _noise_shape(self, X: np.ndarray) -> np.ndarray:
        """The unnormalized field: exp(b u(x)) with b = log(contrast) / 2, or ones."""
        if self.noise_field == "constant":
            return np.ones(len(X))
        u = np.sin(2 * math.pi * X[:, 0])
        if self.dim == 2:
            u = u * np.cos(math.pi * X[:, 1])
        return np.exp(0.5 * math.log(self.noise_contrast) * u)

    @cached_property
    def _noise_mean(self) -> float:
        if self.noise_field == "constant":
            return 1.0
        quad = Quadrature.tensor_trapezoid(2001 if self.dim == 1 else 81, ((0.0, 1.0),) * self.dim)
        return float(quad.weights @ self._noise_shape(quad.nodes))


def sample_observations(sim: SyntheticSimulator, design: Design, s, seed) -> ObservationSet:
    """Replicated Gaussian observations of the truth at the design points.

    Each point gets its own spawned random stream, so changing one
    point's replicate count leaves the draws at other points untouched.
    """
    return _draw(sim.truth_values(design.points), sim.noise_variance(design.points), s, seed)


def _draw(truth: np.ndarray, var: np.ndarray, s, seed) -> ObservationSet:
    """``s`` replicates around each ``truth`` value with noise variance ``var``,
    one spawned stream per point (the draw behind ``sample_observations``).
    Each point keeps the mean of its runs and their sample variance, or at
    s = 1 the known ``var``."""
    n = len(truth)
    s_arr = _whole_counts(s)
    s = np.full(n, int(s_arr)) if s_arr.ndim == 0 else s_arr.ravel()
    if len(s) != n or np.any(s < 1):
        raise ValueError("replicate counts must match the design and be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = ss.spawn(n)
    means, sigma_eps2 = np.empty(n), np.empty(n)
    for i in range(n):
        rng = np.random.default_rng(streams[i])
        z = truth[i] + math.sqrt(var[i]) * rng.standard_normal(s[i])
        means[i] = z.mean()
        sigma_eps2[i] = z.var(ddof=1) if s[i] >= 2 else var[i]
    return ObservationSet(means, sigma_eps2, s)


def latin_hypercube_design(n: int, dim: int, seed, box: UniformBox | None = None) -> Design:
    """Stratified Latin hypercube design scaled to the box: on each axis one
    point in each of the n strata [(k - 1)/n, k/n), at a uniform offset.

    The draw is the one of scipy 1.17.1's scrambled strength-1
    ``qmc.LatinHypercube``: a stream from the child that
    ``SeedSequence.spawn(1)`` would give next, then n x dim uniform offsets
    and one shuffle of 1..n per axis.  The child is derived without
    spawning, so a ``SeedSequence`` seed gives the same design on every
    call and its spawn counter does not move.
    """
    if box is None:
        box = UniformBox(tuple((0.0, 1.0) for _ in range(dim)))
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    child = np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, ss.n_children_spawned),
                                   pool_size=ss.pool_size)
    rng = np.random.default_rng(child)
    offsets = rng.uniform(size=(n, dim))
    perms = np.tile(np.arange(1, n + 1), (dim, 1))
    for axis in perms:
        rng.shuffle(axis)
    unit = (perms.T - offsets) / n
    lo = np.array([b[0] for b in box.bounds])
    hi = np.array([b[1] for b in box.bounds])
    return Design(unit * (hi - lo) + lo, box)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, ties given the mean of the ranks they span."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.append(starts, len(x)))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(a, b) -> float:
    """Spearman's rank correlation of two samples as ``scipy.stats.spearmanr``
    computes it: ``np.corrcoef`` of their average ranks; NaN when a sample is
    constant."""
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan
    return float(np.corrcoef(np.vstack((_average_ranks(x), _average_ranks(y))))[1, 0])


def _check_keys(cfg, required: set, optional: set, context: str) -> None:
    """ValueError naming ``context`` unless ``cfg`` is an object of ``required`` and ``optional`` keys."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{context}: expected a JSON object, got {cfg!r}")
    missing = required - set(cfg)
    if missing:
        raise ValueError(f"{context}: missing required keys {sorted(missing)}")
    unknown = set(cfg) - required - optional
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")


def _merge_config(defaults: dict, overrides: dict | None, context: str) -> dict:
    """Defaults with each override in the type of its default; ValueError names a misfit.

    An int default takes a whole number, a float default any finite number
    (never a bool); bool, list and dict defaults take only their own type.
    """
    if overrides is None:
        return dict(defaults)
    _check_keys(overrides, set(), set(defaults), context)
    out = dict(defaults)
    for key, val in overrides.items():
        out[key] = _typed_override(defaults[key], val, f"{context}.{key}")
    return out


def _typed_override(default, val, name: str):
    """``val`` converted to the type of ``default``, or ValueError naming ``name``."""
    if isinstance(default, (bool, list, dict)):
        if not isinstance(val, type(default)):
            raise ValueError(f"{name}: expected a {type(default).__name__}, got {val!r}")
        return _merge_config(default, val, name) if isinstance(default, dict) else val
    return _config_number(val, name, type(default))


# Caps on sizes read from a config, checked before anything is allocated:
# a spectrum's m x m Gram is 3.2 GB at MAX_NODES, a curve design's n x n
# Gram 0.8 GB at MAX_POINTS; MAX_COUNT bounds repeat and grid counts, and
# the replicates drawn at once (each count and their total over the points).
# A budget, plan's n or a dimension sizes no array: its cap is math.inf,
# except allocate's budget, which round_allocation splits in float64, exact
# for whole numbers only up to MAX_BUDGET.
MAX_NODES = 20_000
MAX_POINTS = 10_000
MAX_COUNT = 1_000_000
MAX_BUDGET = 2**53
_UNIT_AXIS = ((0.0, 1.0),)


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (exit code 2)."""


@contextmanager
def _at(name: str):
    """Re-raise a KeyError, OSError, TypeError or ValueError as a ConfigError naming ``name``."""
    try:
        yield
    except (KeyError, OSError, TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}")


def _bounded(value, cap: float, name: str, least: float = -math.inf) -> int:
    """A configured size as a whole number (``_config_number``) in ``least``..``cap``."""
    n = _config_number(value, name, int)
    if n > cap:
        raise ConfigError(f"{name} = {n} is above the limit of {cap}")
    if n < least:
        raise ConfigError(f"{name} = {n} is below the minimum of {least}")
    return n


def _numbers(val, name: str, kind=float, n: int | None = None) -> list:
    """A config list, each entry read by ``_config_number``; given ``n``, one number
    may stand for a list of ``n`` equal entries."""
    if n is not None and not isinstance(val, list):
        return [_config_number(val, name, kind)] * n
    return [_config_number(v, name, kind) for v in _typed_override([], val, name)]


def _bounded_replicates(s, n_points: int, name: str, least: int = 1) -> None:
    """Refuse replicate counts (one for all points, or one each) outside ``least``..MAX_COUNT,
    each or summed."""
    counts = _numbers(s, name, int, n_points)
    for c in (min(counts, default=least), max(counts, default=least)):
        _bounded(c, MAX_COUNT, name, least)
    _bounded(sum(counts), MAX_COUNT, f"{name} summed over the points")


def _term_count(value, n_nodes: int, name: str) -> int:
    """A spectrum's eigenvalue count: 1 <= p <= n_nodes / 10."""
    P = _bounded(value, MAX_NODES, name)
    if P < 1 or 10 * P > n_nodes:
        raise ConfigError(f"{name}: need 1 <= p <= {n_nodes // 10} for {n_nodes} nodes")
    return P


def _trapezoid_grid(counts, bounds, cap: float, name: str, total: str | None = None) -> Quadrature:
    """``Quadrature.tensor_trapezoid(counts, bounds)`` for a configured ``counts`` (one for
    every axis, or one per axis): each at least 2, and their node count over the axes,
    named ``total`` (default "``name`` node count"), at most ``cap``."""
    ms = _numbers(counts, name, int, 1)
    if min(ms, default=2) < 2:
        raise ConfigError(f"{name}: a trapezoid grid needs at least 2 nodes per axis, got {min(ms)}")
    n_nodes = ms[0] ** len(bounds) if len(ms) == 1 else math.prod(ms)
    _bounded(n_nodes, cap, total or f"{name} node count")
    return Quadrature.tensor_trapezoid(ms, bounds)


def _inv_tau_grid(cfg: dict, context: str, least: int = 1,
                  keys=("inv_tau_min", "inv_tau_max", "inv_tau_count")) -> np.ndarray:
    """The geometric 1/tau grid between ``cfg``'s two end ``keys``, both above 0, with
    ``least`` <= count <= MAX_COUNT values; each key named under ``context``."""
    count = _bounded(cfg[keys[2]], MAX_COUNT, f"{context}.{keys[2]}", least)
    ends = [_config_number(cfg[k], f"{context}.{k}") for k in keys[:2]]
    for k, x in zip(keys, ends):
        if x <= 0:
            raise ConfigError(f"{context}.{k}: an inverse-tau end must be positive, got {x}")
    return np.geomspace(*ends, count)


def _write_curve_csv(path, inv_tau, mean, stderr, theory) -> None:
    _write_csv(path, ["inv_tau", "imse_mean", "imse_stderr", "theory_value"],
               zip(inv_tau, mean, stderr, theory))


FIGURE1_DEFAULTS = {
    "n": 200,
    "n_designs": 10,
    "inv_tau_min": 5.0,
    "inv_tau_max": 100.0,
    "inv_tau_count": 12,
    "hurst": [0.5, 0.9],
    "quad_m": 4000,
    "spectrum_m": 2000,
    "spectrum_p": 200,
}


def run_figure1(out_dir, seed: int, config: dict | None = None) -> dict:
    """Learning curves for the doubled fractional Brownian kernels.

    One CSV per Hurst value with the Monte-Carlo curve and the spectral
    limit overlay; the report, also written to ``figure1_report.json``,
    holds fitted log-log slopes against 1/tau, and its ``files`` every file
    written.  The config is read and checked whole before any work.
    """
    cfg = _merge_config(FIGURE1_DEFAULTS, config, "figure1")
    n = _bounded(cfg["n"], MAX_POINTS, "figure1.n", 1)
    n_designs = _bounded(cfg["n_designs"], MAX_COUNT, "figure1.n_designs", 1)
    # a log-log slope needs three points
    inv_tau = _inv_tau_grid(cfg, "figure1", least=3)
    quad = _trapezoid_grid(cfg["quad_m"], _UNIT_AXIS, MAX_NODES, "figure1.quad_m")
    sq = _trapezoid_grid(cfg["spectrum_m"], _UNIT_AXIS, MAX_NODES, "figure1.spectrum_m")
    P = _term_count(cfg["spectrum_p"], len(sq), "figure1.spectrum_p")
    hursts = _numbers(cfg["hurst"], "figure1.hurst")
    if not hursts:
        raise ConfigError("figure1.hurst: need at least one Hurst value")
    # each value names its own CSV
    if len(set(hursts)) != len(hursts):
        raise ConfigError(f"figure1.hurst: each Hurst value must appear once, got {hursts}")
    with _at("figure1.hurst"):
        specs = [KernelSpec(family="fbm", hurst=h) for h in hursts]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    taus = 1.0 / inv_tau
    streams = np.random.SeedSequence(seed).spawn(len(hursts))
    report = {"files": [], "curves": {}}
    for h, spec, ss in zip(hursts, specs, streams):
        mean, stderr = empirical_learning_curve(
            spec, n, taus, n_designs, seed=ss.generate_state(1)[0], quadrature=quad,
        )
        sp = nystrom_spectrum(spec, sq, P, table=False)
        theory = np.array([asymptotic_imse(sp, t) for t in taus])
        name = f"figure1_h{h}.csv"
        _write_curve_csv(out / name, inv_tau, mean, stderr, theory)
        slope, _, r2 = fit_loglog_slope(inv_tau, mean)
        t_slope, _, _ = fit_loglog_slope(inv_tau, theory)
        law = rate_law("fbm", hurst=h)
        report["files"].append(name)
        report["curves"][str(h)] = {
            "empirical_slope": slope,
            "theory_slope": t_slope,
            "ideal_slope": -law.exponent,
            "r2": r2,
        }
    _write_json(out / "figure1_report.json", report)
    report["files"].append("figure1_report.json")
    return report


FIGURE2_DEFAULTS = {
    "n": 200,
    "n_designs": 10,
    "matern": {
        "nu": 2.5,
        "theta": 0.2,
        "inv_tau_min": 10.0,
        "inv_tau_max": 100.0,
        "inv_tau_count": 8,
        "quad_m": 63,
    },
    "gaussian": {
        "theta": 0.2,
        "inv_tau_min": 5.0,
        "inv_tau_max": 100.0,
        "inv_tau_count": 10,
        "quad_m": 4000,
    },
}


def _fit_log_constant(values: np.ndarray, shape: np.ndarray) -> float:
    """Least-squares multiplier C for values ~ C * shape, fitted in log space."""
    return float(np.exp(np.mean(np.log(values) - np.log(shape))))


def run_figure2(out_dir, seed: int, config: dict | None = None) -> dict:
    """Learning curves for the 2-D tensorised Matern and 1-D Gaussian kernels.

    As ``run_figure1``: the report goes to ``figure2_report.json`` too.
    """
    cfg = _merge_config(FIGURE2_DEFAULTS, config, "figure2")
    n = _bounded(cfg["n"], MAX_POINTS, "figure2.n", 1)
    n_designs = _bounded(cfg["n_designs"], MAX_COUNT, "figure2.n_designs", 1)
    mc, gc = cfg["matern"], cfg["gaussian"]
    for part, theta in (("matern", mc["theta"]), ("gaussian", gc["theta"])):
        if not theta > 0:
            raise ConfigError(f"figure2.{part}.theta: a lengthscale must be > 0, got {theta}")
    # the Matern curve's log-log slope needs three points
    inv_tau = _inv_tau_grid(mc, "figure2.matern", least=3)
    with _at("figure2.matern.nu"):
        spec = KernelSpec(family="matern_tensor", nu=mc["nu"], lengthscales=(mc["theta"], mc["theta"]))
        law = rate_law("matern_tensor", nu=mc["nu"], d=2)
    quad = _trapezoid_grid(mc["quad_m"], _UNIT_AXIS * 2, MAX_NODES, "figure2.matern.quad_m")
    inv_tau_g = _inv_tau_grid(gc, "figure2.gaussian")
    spec_g = KernelSpec(family="gaussian", lengthscales=(gc["theta"],))
    quad_g = _trapezoid_grid(gc["quad_m"], _UNIT_AXIS, MAX_NODES, "figure2.gaussian.quad_m")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ss_mat, ss_gau = np.random.SeedSequence(seed).spawn(2)
    report = {"files": []}

    taus = 1.0 / inv_tau
    mean, stderr = empirical_learning_curve(
        spec, n, taus, n_designs, seed=ss_mat.generate_state(1)[0], quadrature=quad,
    )
    shape = law.shape(taus)
    theory = _fit_log_constant(mean, shape) * shape
    _write_curve_csv(out / "figure2_matern2d.csv", inv_tau, mean, stderr, theory)
    emp_slope, _, _ = fit_loglog_slope(inv_tau, mean)
    th_slope, _, _ = fit_loglog_slope(inv_tau, theory)
    report["files"].append("figure2_matern2d.csv")
    report["matern2d"] = {
        "empirical_slope": emp_slope,
        "theory_slope_same_grid": th_slope,
        "slope_gap": abs(emp_slope - th_slope),
    }

    taus_g = 1.0 / inv_tau_g
    mean_g, stderr_g = empirical_learning_curve(
        spec_g, n, taus_g, n_designs, seed=ss_gau.generate_state(1)[0], quadrature=quad_g,
    )
    shape_g = rate_law("gaussian", d=1).shape(taus_g)
    # smallest constant whose tau*log(1/tau) curve stays above the data;
    # tightness says how far the curve sags below that envelope at worst
    c_g = float(np.max(mean_g / shape_g))
    theory_g = c_g * shape_g
    _write_curve_csv(out / "figure2_gaussian1d.csv", inv_tau_g, mean_g, stderr_g, theory_g)
    report["files"].append("figure2_gaussian1d.csv")
    report["gaussian1d"] = {
        "envelope_constant": c_g,
        "envelope_tightness": float(np.min(mean_g / theory_g)),
    }
    _write_json(out / "figure2_report.json", report)
    report["files"].append("figure2_report.json")
    return report


CASE_STUDY_DEFAULTS = {
    "n": 100,
    "s0": 10,
    "noise_level": 3.3e-3,
    "noise_contrast": 16.0,
    "kl_truth": True,
    "test_grid": 30,
    "test_s": 200,
    "target_ratio": 0.35,
    "n_random": 600,
    "n_polish": 12,
    "eta_m": 41,
    "s_scan_max": 200,
}


def run_case_study(out_dir, seed: int, config: dict | None = None) -> dict:
    """End-to-end budget-planning study on the synthetic simulator.

    Pilot replicates feed noise estimation and hyperparameter fitting;
    the fitted model's IMSE is extrapolated to solve for the budget
    reaching a target accuracy, which is compared with the budget
    actually needed on fresh data; finally a uniform and an optimal
    replication allocation of the predicted budget are compared on a
    held-out test grid.  The truth and noise variances at the design, its
    Gram matrix and its cross matrix to the test grid are built once and
    shared by every draw and predictor on the design: the pilot, each
    step of the budget scan and both allocations.  The config is read and
    checked whole before any work; the report's ``files`` lists every file
    written.
    """
    cfg = _merge_config(CASE_STUDY_DEFAULTS, config, "casestudy")
    n = _bounded(cfg["n"], MAX_POINTS, "casestudy.n", 1)
    s0 = cfg["s0"]
    # the noise estimate needs two replicates at every point
    _bounded_replicates(s0, n, "casestudy.s0", least=2)
    _bounded_replicates(cfg["s_scan_max"], n, "casestudy.s_scan_max", least=0)
    eta = _trapezoid_grid(cfg["eta_m"], _UNIT_AXIS * 2, MAX_NODES, "casestudy.eta_m")
    test_grid = _trapezoid_grid(cfg["test_grid"], _UNIT_AXIS * 2, MAX_POINTS, "casestudy.test_grid",
                                "casestudy.test_grid point count").nodes
    _bounded_replicates(cfg["test_s"], len(test_grid), "casestudy.test_s")
    n_random, n_polish = (_bounded(cfg[k], MAX_COUNT, f"casestudy.{k}", 1)
                          for k in ("n_random", "n_polish"))
    for key, least in (("noise_level", 0.0), ("noise_contrast", 1.0)):
        if not cfg[key] >= least:
            raise ConfigError(f"casestudy.{key}: need at least {least}, got {cfg[key]}")
    # the target is a fraction of the pilot IMSE
    if not 0 < cfg["target_ratio"] < 1:
        raise ConfigError(f"casestudy.target_ratio: need a fraction in (0, 1), got {cfg['target_ratio']}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    master = np.random.SeedSequence(seed)
    (ss_design, ss_obs0, ss_fit, ss_scan, ss_alloc, ss_test) = master.spawn(6)

    sim = SyntheticSimulator(
        truth="smooth2d_kl" if cfg["kl_truth"] else "smooth2d",
        noise_field="smooth",
        noise_level=cfg["noise_level"],
        noise_contrast=cfg["noise_contrast"],
        seed=seed,
    )
    design = latin_hypercube_design(n, 2, ss_design)
    truth, var = sim.truth_values(design.points), sim.noise_variance(design.points)
    obs0 = _draw(truth, var, s0, ss_obs0)
    noise_pp, noise_bar = estimate_noise(obs0)

    fit = fit_hyperparameters(
        design, obs0.means,
        noise=noise_bar / s0,
        seed=int(ss_fit.generate_state(1)[0]),
        n_random=n_random,
        n_polish=n_polish,
    )
    kernel = KernelSpec(
        family="matern_tensor", nu=fit.nu, lengthscales=fit.theta, variance=fit.sigma2
    )
    imse_t0 = heteroscedastic_imse(kernel, design, noise_pp, np.full(n, s0), eta)

    # held-out test grid; its reference values are replicate means, so a
    # noise floor of sigma_eps2_bar / test_s remains in every EMSE figure
    test_design = Design(test_grid, design.measure)
    test_values = sample_observations(sim, test_design, cfg["test_s"], ss_test).means

    # every predictor below is the BLUP on the same design and kernel: its
    # squared test errors are the ones fit_blup and predict_mean give
    K = gram_matrix(kernel, design.points)
    Kt = cross_matrix(kernel, test_design.points, design.points)

    def squared_errors(means, noise_var):
        L, _ = _factor_with_jitter(K, noise_var)
        w = cho_solve((L, True), means - fit.mean)
        return (fit.mean + Kt @ w - test_values) ** 2

    emse_t0 = float(np.mean(squared_errors(obs0.means, obs0.noise_var)))

    nu_for_rate = max(fit.nu, 0.51)
    law = rate_law("matern_tensor", nu=nu_for_rate, d=2)
    target = cfg["target_ratio"] * imse_t0
    # the pilot budget T0 = n * s0 must reach the region where the fitted law decays
    with _at("casestudy.n and casestudy.s0"):
        forecast = required_budget(imse_t0, n * s0, noise_bar, law, target, n=n)
    t_pred = forecast.solved_T
    s_pred = forecast.s_per_point

    # measured budget: scan uniform replication counts on fresh draws
    # until the test error first drops to the target
    scan_streams = ss_scan.spawn(cfg["s_scan_max"])
    s_meas = None
    scan_rows = []
    for s in range(1, cfg["s_scan_max"] + 1):
        obs_s = _draw(truth, var, s, scan_streams[s - 1])
        e = float(np.mean(squared_errors(obs_s.means, noise_pp / s)))
        scan_rows.append((s, e))
        if e <= target:
            s_meas = s
            break
    t_meas = None if s_meas is None else n * s_meas

    # uniform vs optimal split of the predicted budget
    ss_u, ss_o = ss_alloc.spawn(2)
    s_uniform = round_allocation(np.full(n, t_pred / n), t_pred)
    plan = plan_allocation(kernel, design, noise_pp, t_pred, eta)
    table = {}
    for label, s_vec, imse, ss_run in (
        ("uniform", s_uniform, plan.uniform_imse, ss_u),
        ("optimal", plan.s_int, plan.achieved_imse, ss_o),
    ):
        sq = squared_errors(_draw(truth, var, s_vec, ss_run).means, noise_pp / s_vec)
        table[label] = {"mse": float(np.mean(sq)), "maxse": float(np.max(sq)), "imse_model": imse}
    rho = _spearman(plan.s_int, noise_pp)

    report = {
        "n": n,
        "s0": s0,
        "sigma_eps2_bar": noise_bar,
        "fit": fit.to_json(),
        "nu_floored_for_rate": bool(nu_for_rate != fit.nu),
        "imse_T0": imse_t0,
        "emse_T0": emse_t0,
        "emse_over_imse": emse_t0 / imse_t0,
        "target_imse": target,
        "predicted_budget": t_pred,
        "predicted_s": s_pred,
        "measured_s": s_meas,
        "measured_budget": t_meas,
        "budget_ratio": None if t_meas is None else t_pred / t_meas,
        "allocation": {
            "i_star": plan.i_star,
            "quasi_optimal": plan.quasi_optimal,
            "spearman_s_vs_noise": rho,
        },
        "table": table,
        "test_noise_floor": noise_bar / cfg["test_s"],
    }

    save_observations_csv(out / "pilot_observations.csv", design.points, obs0)
    save_plan_csv(out / "allocation.csv", design, noise_pp, plan)
    _write_csv(out / "budget_curve.csv", ["T", "imse_predicted"], forecast.curve)
    _write_csv(out / "budget_scan.csv", ["s", "emse"], scan_rows)
    _write_json(out / "case_study.json", report)
    report["files"] = [
        "pilot_observations.csv", "allocation.csv", "budget_curve.csv",
        "budget_scan.csv", "case_study.json",
    ]
    return report
