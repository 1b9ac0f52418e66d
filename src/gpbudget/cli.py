"""Command-line front end.

Every subcommand takes --config (JSON), --seed (mandatory; all
randomness flows from it) and --out (output directory).  Exit codes:
0 success, 1 numerical failure, 2 configuration/usage error.  Each run
writes a ``run_manifest.json`` recording the subcommand, a hash of the
config, the seed, output files, wall-clock time and package version.
Every config number is read by ``kernels._config_number``: a bool, string or
null is never a number, a count must be whole; a misfit exits 2 naming its key.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import plan_allocation, save_plan_csv
from .gp_core import (
    Design, Quadrature, UniformBox, load_observations_csv, save_observations_csv, _write_json,
)
from .kernels import KernelSpec, _as_points, _config_number
from .learning_curve import asymptotic_imse, empirical_learning_curve, rate_law
from .planner import (
    DEFAULT_N_POLISH,
    DEFAULT_N_RANDOM,
    _checked_bounds,
    estimate_noise,
    fit_hyperparameters,
    required_budget,
)
from .sim_harness import (
    CASE_STUDY_DEFAULTS,
    FIGURE1_DEFAULTS,
    FIGURE2_DEFAULTS,
    SyntheticSimulator,
    _check_keys,
    _merge_config,
    _typed_override,
    _write_curve_csv,
    latin_hypercube_design,
    run_case_study,
    run_figure1,
    run_figure2,
    sample_observations,
)
from .spectrum import nystrom_spectrum, save_spectrum_csv

SUBCOMMANDS = (
    "spectrum", "curve", "fit", "plan", "allocate", "simulate",
    "figure1", "figure2", "casestudy",
)


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


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (exit code 2)."""


def _bounded(value, cap: float, name: str) -> int:
    """A configured size as a whole number (``_config_number``), refused above ``cap``."""
    n = _config_number(value, name, int)
    if n > cap:
        raise ConfigError(f"{name} = {n} is above the limit of {cap}")
    return n


def _bounded_replicates(s, n_points: int, name: str) -> None:
    """Refuse replicate counts (one for all points, or one each) above MAX_COUNT, each or summed."""
    counts = _numbers(s, name, int, n_points)
    _bounded(max(counts, default=0), MAX_COUNT, name)
    _bounded(sum(counts), MAX_COUNT, f"{name} summed over the points")


def _numbers(val, name: str, kind=float, n: int | None = None) -> list:
    """A config list, each entry read by ``_config_number``; given ``n``, one number
    may stand for a list of ``n`` equal entries."""
    if n is not None and not isinstance(val, list):
        return [_config_number(val, name, kind)] * n
    return [_config_number(v, name, kind) for v in _typed_override([], val, name)]


def _pairs(val, name: str) -> list[tuple]:
    """A config list of (lo, hi) pairs of numbers."""
    pairs = [tuple(_numbers(b, name)) for b in _typed_override([], val, name)]
    if any(len(p) != 2 for p in pairs):
        raise ConfigError(f"{name}: each entry must be a pair [lo, hi], got {val!r}")
    return pairs


def _points(val, dim: int, name: str) -> np.ndarray:
    """A config list of points of dimension ``dim`` (``_as_points``)."""
    pts = _typed_override([], val, name)
    try:
        return _as_points(pts, dim)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{name}: {e}")


def _grid_count(value, cap: float, name: str) -> int:
    """A trapezoid grid's node count per axis: a size (``_bounded``) of at least 2."""
    m = _bounded(value, cap, name)
    if m < 2:
        raise ConfigError(f"{name}: a trapezoid grid needs at least 2 nodes per axis, got {m}")
    return m


def _term_count(value, n_nodes: int, name: str) -> int:
    """A spectrum's eigenvalue count: 1 <= p <= n_nodes / 10."""
    P = _bounded(value, MAX_NODES, name)
    if P < 1 or 10 * P > n_nodes:
        raise ConfigError(f"{name}: need 1 <= p <= {n_nodes // 10} for {n_nodes} nodes")
    return P


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config_hash: str
    seed: int
    outputs: tuple[str, ...]
    wall_clock_s: float
    version: str


def _config_hash(config: dict | None) -> str:
    canon = json.dumps(config or {}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(out: Path, name: str, config, seed: int, outputs, wall: float) -> None:
    manifest = RunManifest(
        subcommand=name,
        config_hash=_config_hash(config),
        seed=seed,
        outputs=tuple(outputs),
        wall_clock_s=wall,
        version=__version__,
    )
    _write_json(out / "run_manifest.json", asdict(manifest))


def _parse_kernel(obj, context: str) -> KernelSpec:
    try:
        return KernelSpec.from_json(obj)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{context}: {e}")


def _parse_measure(obj, context: str, dim: int) -> Quadrature:
    """A config measure of the kernel's dimension ``dim``; a tensor grid without
    ``bounds`` covers the unit box of ``dim`` axes."""
    _check_keys(obj, {"type"}, {"m", "lo", "hi", "bounds", "nodes", "weights"}, context)
    kind = obj["type"]
    try:
        if kind == "trapezoid":
            m = _bounded(obj["m"], MAX_NODES, "m")
            lo, hi = (_config_number(obj.get(k, d), k) for k, d in (("lo", 0.0), ("hi", 1.0)))
            quad = Quadrature.trapezoid(m, lo, hi)
        elif kind == "tensor_trapezoid":
            counts = _numbers(obj["m"], "m", int, 1)
            bounds = _pairs(obj.get("bounds") or [[0.0, 1.0]] * dim, "bounds")
            # each count whole; the node count, one count's power or their product, capped
            n_nodes = counts[0] ** len(bounds) if len(counts) == 1 else math.prod(counts)
            _bounded(n_nodes, MAX_NODES, "the node count")
            quad = Quadrature.tensor_trapezoid(counts, bounds)
        elif kind == "explicit":
            nodes, weights = (_typed_override([], obj[k], k) for k in ("nodes", "weights"))
            _bounded(len(nodes), MAX_NODES, "the node count")
            quad = Quadrature(np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float))
        else:
            raise ConfigError(f"unknown measure type {kind!r}")
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"{context}: {e}")
    if quad.dim != dim:
        raise ConfigError(f"{context}: the measure has dimension {quad.dim}, the kernel {dim}")
    return quad


def _bounding_box(points: np.ndarray) -> UniformBox:
    """The points' bounding box, 1e-9 wide on an axis where they all agree."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    return UniformBox(tuple((float(l), float(max(h, l + 1e-9))) for l, h in zip(lo, hi)))


def _default_eta(box: UniformBox) -> Quadrature:
    """Trapezoid rule over the design box: 2001 nodes in 1-D, 41 per axis above."""
    return Quadrature.tensor_trapezoid(2001 if box.dim == 1 else 41, box.bounds)


def _parse_rate(obj, context: str):
    _check_keys(obj, {"family"}, {"nu", "hurst", "d"}, context)
    d = _bounded(obj.get("d", 1), math.inf, f"{context}.d")
    nu, hurst = (_config_number(obj[k], f"{context}.{k}") if k in obj else None for k in ("nu", "hurst"))
    try:
        return rate_law(obj["family"], nu=nu, hurst=hurst, d=d)
    except ValueError as e:
        raise ConfigError(f"{context}: {e}")


def _load_config(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")


def _cmd_spectrum(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("spectrum: --config is required")
    _check_keys(cfg, {"kernel", "measure", "p"}, {"nodes_table"}, "spectrum")
    spec = _parse_kernel(cfg["kernel"], "spectrum.kernel")
    quad = _parse_measure(cfg["measure"], "spectrum.measure", spec.dim)
    P = _term_count(cfg["p"], len(quad), "spectrum.p")
    nodes_table = _typed_override(False, cfg.get("nodes_table", False), "spectrum.nodes_table")
    s = nystrom_spectrum(spec, quad, P, table=nodes_table)
    outputs = ["spectrum.csv"]
    nodes_path = None
    if nodes_table:
        nodes_path = out / "spectrum_nodes.csv"
        outputs.append("spectrum_nodes.csv")
    save_spectrum_csv(s, out / "spectrum.csv", nodes_path)
    return outputs


def _inv_tau_from_cfg(cfg: dict, context: str) -> np.ndarray:
    if "tau_values" in cfg:
        if "inv_tau" in cfg:
            raise ConfigError(f"{context}.tau_values and {context}.inv_tau: give one of them, not both")
        taus = np.asarray(_numbers(cfg["tau_values"], f"{context}.tau_values"))
        if np.any(taus <= 0):
            raise ConfigError(f"{context}: tau values must be positive")
        return 1.0 / taus
    grid = cfg.get("inv_tau", {"min": 5.0, "max": 100.0, "count": 12})
    _check_keys(grid, {"min", "max", "count"}, set(), f"{context}.inv_tau")
    count = _bounded(grid["count"], MAX_COUNT, f"{context}.inv_tau.count")
    lo, hi = (_config_number(grid[k], f"{context}.inv_tau.{k}") for k in ("min", "max"))
    return np.geomspace(lo, hi, count)


def _cmd_curve(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("curve: --config is required")
    _check_keys(
        cfg, {"kernel", "n"},
        {"n_designs", "inv_tau", "tau_values", "quadrature", "theory"},
        "curve",
    )
    spec = _parse_kernel(cfg["kernel"], "curve.kernel")
    n = _bounded(cfg["n"], MAX_POINTS, "curve.n")
    n_designs = _bounded(cfg.get("n_designs", 10), MAX_COUNT, "curve.n_designs")
    inv_tau = _inv_tau_from_cfg(cfg, "curve")
    taus = 1.0 / inv_tau
    quad = (_parse_measure(cfg["quadrature"], "curve.quadrature", spec.dim)
            if "quadrature" in cfg else None)
    theory_cfg = cfg.get("theory", {})
    if theory_cfg is not False:
        _check_keys(theory_cfg, set(), {"spectrum_m", "p"}, "curve.theory")
        m1 = _bounded(theory_cfg.get("spectrum_m", 2000 if spec.dim == 1 else 45),
                      MAX_NODES, "curve.theory.spectrum_m")
        _bounded(m1**spec.dim, MAX_NODES, "curve.theory.spectrum_m node count")
        sq = Quadrature.tensor_trapezoid(m1, [(0.0, 1.0)] * spec.dim)
        P = _term_count(theory_cfg.get("p", min(200, len(sq) // 10)), len(sq), "curve.theory.p")
    mean, stderr = empirical_learning_curve(spec, n, taus, n_designs, seed, quadrature=quad)
    if theory_cfg is False:
        theory = np.full_like(mean, math.nan)
    else:
        s = nystrom_spectrum(spec, sq, P, table=False)
        theory = np.array([asymptotic_imse(s, t) for t in taus])
    _write_curve_csv(out / "curve.csv", inv_tau, mean, stderr, theory)
    return ["curve.csv"]


def _cmd_fit(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("fit: --config is required")
    _check_keys(
        cfg, {"data_csv"},
        {"noise", "bounds", "n_random", "n_polish", "mean"},
        "fit",
    )
    noise, mean = (_config_number(cfg[k], f"fit.{k}") if k in cfg else None for k in ("noise", "mean"))
    bounds = _pairs(cfg["bounds"], "fit.bounds") if "bounds" in cfg else None
    n_random = _bounded(cfg.get("n_random", DEFAULT_N_RANDOM), MAX_COUNT, "fit.n_random")
    n_polish = _bounded(cfg.get("n_polish", DEFAULT_N_POLISH), MAX_COUNT, "fit.n_polish")
    try:
        points, obs = load_observations_csv(cfg["data_csv"])
    except (OSError, ValueError) as e:
        raise ConfigError(f"fit.data_csv: {e}")
    _bounded(len(points), MAX_POINTS, "fit.data_csv point count")
    design = Design(points, _bounding_box(points))
    if bounds is not None:
        try:
            bounds = _checked_bounds(bounds, design.dim)
        except ValueError as e:
            raise ConfigError(f"fit.bounds: {e}")
    if noise is None:
        noise = float(np.mean(obs.noise_var))
    fit = fit_hyperparameters(design, obs.means, noise=noise, seed=seed, bounds=bounds,
                              n_random=n_random, n_polish=n_polish, mean=mean)
    _write_json(out / "fit.json", dict(fit.to_json(), noise=noise))
    return ["fit.json"]


def _cmd_plan(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("plan: --config is required")
    _check_keys(
        cfg, {"imse_T0", "T0", "sigma_eps2_bar", "rate", "target_imse"},
        {"n", "curve_points"},
        "plan",
    )
    law = _parse_rate(cfg["rate"], "plan.rate")
    imse_t0, target, sigma_bar = (_config_number(cfg[k], f"plan.{k}")
                                  for k in ("imse_T0", "target_imse", "sigma_eps2_bar"))
    if target >= imse_t0:
        raise ConfigError(
            f"plan.target_imse: target {target} must be below the current IMSE {imse_t0}"
        )
    T0 = _bounded(cfg["T0"], math.inf, "plan.T0")
    n = _bounded(cfg["n"], math.inf, "plan.n") if "n" in cfg else None
    if n is not None and n < 1:
        raise ConfigError(f"plan.n: the design size must be >= 1, got {n}")
    forecast = required_budget(
        imse_t0, T0, sigma_bar, law, target, n=n,
        curve_points=_bounded(cfg.get("curve_points", 50), MAX_COUNT, "plan.curve_points"),
    )
    _write_json(out / "forecast.json", {
        "imse_T0": forecast.imse_T0,
        "T0": forecast.T0,
        "sigma_eps2_bar": forecast.sigma_eps2_bar,
        "rate": {"family": law.family, "exponent": law.exponent, "log_power": law.log_power},
        "target_imse": forecast.target,
        "solved_T": forecast.solved_T,
        "s_per_point": forecast.s_per_point,
        "curve": [[t, v] for t, v in forecast.curve],
    })
    return ["forecast.json"]


def _cmd_allocate(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("allocate: --config is required")
    _check_keys(
        cfg, {"kernel", "T"},
        {"points", "sigma_eps2", "data_csv", "eta"},
        "allocate",
    )
    spec = _parse_kernel(cfg["kernel"], "allocate.kernel")
    if "data_csv" in cfg:
        for key in ("points", "sigma_eps2"):
            if key in cfg:
                raise ConfigError(f"allocate.data_csv and allocate.{key}: give one of them, not both")
        try:
            points, obs = load_observations_csv(cfg["data_csv"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"allocate.data_csv: {e}")
        _bounded(len(points), MAX_POINTS, "allocate.data_csv point count")
        noise = obs.noise_var * obs.s
    elif "points" in cfg:
        points = _points(cfg["points"], spec.dim, "allocate.points")
        _bounded(len(points), MAX_POINTS, "allocate.points count")
        if "sigma_eps2" not in cfg:
            raise ConfigError("allocate: inline points require sigma_eps2")
        noise = np.asarray(_numbers(cfg["sigma_eps2"], "allocate.sigma_eps2", n=len(points)))
    else:
        raise ConfigError("allocate: provide either points or data_csv")
    T = _bounded(cfg["T"], MAX_BUDGET, "allocate.T")
    if T < len(points):
        raise ConfigError(f"allocate.T: budget {T} below the number of points {len(points)}")
    if not np.all(np.isfinite(noise) & (noise > 0)):
        raise ConfigError("allocate.sigma_eps2: noise variances must be finite and positive")
    design = Design(points, _bounding_box(points))
    eta = (_parse_measure(cfg["eta"], "allocate.eta", spec.dim)
           if "eta" in cfg else _default_eta(design.measure))
    plan = plan_allocation(spec, design, noise, T, eta)
    save_plan_csv(out / "plan.csv", design, noise, plan)
    _write_json(out / "summary.json", {
        "T": T,
        "i_star": plan.i_star,
        "imse_optimal": plan.achieved_imse,
        "imse_uniform": plan.uniform_imse,
        "quasi_optimal": plan.quasi_optimal,
    })
    return ["plan.csv", "summary.json"]


def _cmd_simulate(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("simulate: --config is required")
    _check_keys(
        cfg, {"design", "s"},
        {"truth", "noise_field", "noise_level", "noise_contrast", "sim_seed"},
        "simulate",
    )
    level, contrast = (_config_number(cfg.get(k, d), f"simulate.{k}")
                       for k, d in (("noise_level", 3.3e-3), ("noise_contrast", 4.0)))
    sim_seed = _config_number(cfg.get("sim_seed", seed), "simulate.sim_seed", int)
    try:
        sim = SyntheticSimulator(truth=cfg.get("truth", "smooth2d_kl"),
                                 noise_field=cfg.get("noise_field", "smooth"),
                                 noise_level=level, noise_contrast=contrast, seed=sim_seed)
    except ValueError as e:
        raise ConfigError(f"simulate: {e}")
    dcfg = cfg["design"]
    _check_keys(dcfg, {"type"}, {"n", "points"}, "simulate.design")
    if dcfg["type"] == "lhs":
        n = _bounded(dcfg["n"], MAX_POINTS, "simulate.design.n")
        design = latin_hypercube_design(n, sim.dim, seed)
    elif dcfg["type"] == "points":
        points = _points(dcfg["points"], sim.dim, "simulate.design.points")
        _bounded(len(points), MAX_POINTS, "simulate.design.points count")
        design = Design(points, UniformBox(tuple((0.0, 1.0) for _ in range(sim.dim))))
    else:
        raise ConfigError(f"simulate.design.type: unknown type {dcfg['type']!r}")
    _bounded_replicates(cfg["s"], design.n, "simulate.s")
    obs = sample_observations(sim, design, cfg["s"], np.random.SeedSequence([seed, 1]))
    save_observations_csv(out / "observations.csv", design.points, obs)
    return ["observations.csv"]


def _cmd_figure1(cfg, seed, out):
    c = _merge_config(FIGURE1_DEFAULTS, cfg, "figure1")
    _bounded(c["n"], MAX_POINTS, "figure1.n")
    for key in ("n_designs", "inv_tau_count"):
        _bounded(c[key], MAX_COUNT, f"figure1.{key}")
    for key in ("quad_m", "spectrum_m"):
        _grid_count(c[key], MAX_NODES, f"figure1.{key}")
    report = run_figure1(out, seed, cfg)
    _write_json(out / "figure1_report.json", report)
    return report["files"] + ["figure1_report.json"]


def _cmd_figure2(cfg, seed, out):
    c = _merge_config(FIGURE2_DEFAULTS, cfg, "figure2")
    _bounded(c["n"], MAX_POINTS, "figure2.n")
    _bounded(c["n_designs"], MAX_COUNT, "figure2.n_designs")
    for part in ("matern", "gaussian"):
        _bounded(c[part]["inv_tau_count"], MAX_COUNT, f"figure2.{part}.inv_tau_count")
    # the Matern quadrature is a tensor grid of quad_m^2 nodes
    m = _grid_count(c["matern"]["quad_m"], MAX_NODES, "figure2.matern.quad_m")
    _bounded(m * m, MAX_NODES, "figure2.matern.quad_m node count")
    _grid_count(c["gaussian"]["quad_m"], MAX_NODES, "figure2.gaussian.quad_m")
    report = run_figure2(out, seed, cfg)
    _write_json(out / "figure2_report.json", report)
    return report["files"] + ["figure2_report.json"]


def _cmd_casestudy(cfg, seed, out):
    c = _merge_config(CASE_STUDY_DEFAULTS, cfg, "casestudy")
    n = _bounded(c["n"], MAX_POINTS, "casestudy.n")
    # the test grid and eta are test_grid^2 points and eta_m^2 nodes in 2-D
    g = _grid_count(c["test_grid"], MAX_POINTS, "casestudy.test_grid")
    _bounded(g * g, MAX_POINTS, "casestudy.test_grid point count")
    m = _grid_count(c["eta_m"], MAX_NODES, "casestudy.eta_m")
    _bounded(m * m, MAX_NODES, "casestudy.eta_m node count")
    for key in ("n_random", "n_polish"):
        _bounded(c[key], MAX_COUNT, f"casestudy.{key}")
    _bounded_replicates(c["s0"], n, "casestudy.s0")
    _bounded_replicates(c["s_scan_max"], n, "casestudy.s_scan_max")
    _bounded_replicates(c["test_s"], g * g, "casestudy.test_s")
    report = run_case_study(out, seed, cfg)
    return report["files"]


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "curve": _cmd_curve,
    "fit": _cmd_fit,
    "plan": _cmd_plan,
    "allocate": _cmd_allocate,
    "simulate": _cmd_simulate,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "casestudy": _cmd_casestudy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpbudget",
        description="Gaussian-process learning curves and simulation-budget planning",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, required=True, help="random seed (mandatory)")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    started = time.perf_counter()
    try:
        config = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs = _HANDLERS[args.command](config, args.seed, out)
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as e:
        print(f"gpbudget {args.command}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # a ConfigError, or a config-shaped mistake surfacing from module validation
        print(f"gpbudget {args.command}: {e}", file=sys.stderr)
        return 2
    _write_manifest(out, args.command, config, args.seed, outputs,
                    time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
