"""Command-line front end.

One parser serves every subcommand: --config (JSON), --seed (mandatory, a
whole number >= 0; all randomness flows from it) and --out (the output
directory, created if missing, never a file) may come before or after it.
Exit codes: 0 success, 1 numerical failure, 2 configuration/usage error.
Each run writes a ``run_manifest.json`` recording the subcommand, a hash of
the config, the seed, output files, wall-clock time, package version and
environment (numpy and scipy versions; each loaded OpenBLAS with its thread
count at the start and whether the run held it at one thread). The handler
runs under ``_blas.one_numpy_thread``.
Every config number is read by ``kernels._config_number``: a bool, string or
null is never a number, a count must be whole; a misfit exits 2 naming its key.
Every other input (a kernel, a measure, a rate law, points, a data file, the
--out directory) is read under ``_at``, which names its key or flag in any
error the read raises.  These readers and the size caps live in ``sim_harness``,
whose drivers read and check their own configs: the ``figure1``, ``figure2``
and ``casestudy`` handlers only return the files a driver wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, _blas
from .allocation import plan_allocation, save_plan_csv
from .gp_core import (
    Design, Quadrature, UniformBox, load_observations_csv, save_observations_csv, _write_json,
)
from .kernels import KernelSpec, _as_points, _config_number
from .learning_curve import rate_law
from .planner import (
    DEFAULT_N_POLISH,
    DEFAULT_N_RANDOM,
    _checked_bounds,
    fit_hyperparameters,
    required_budget,
)
from .sim_harness import (
    MAX_BUDGET, MAX_COUNT, MAX_NODES, MAX_POINTS, ConfigError, SyntheticSimulator, _at, _bounded,
    _bounded_replicates, _check_keys, _curve_with_limit, _inv_tau_grid, _numbers, _term_count,
    _trapezoid_grid, _typed_override, latin_hypercube_design, run_case_study, run_figure1,
    run_figure2, sample_observations,
)
from .spectrum import nystrom_spectrum, save_spectrum_csv


def _pairs(val, name: str) -> list[tuple]:
    """A config list of (lo, hi) pairs of numbers."""
    pairs = [tuple(_numbers(b, name)) for b in _typed_override([], val, name)]
    if any(len(p) != 2 for p in pairs):
        raise ConfigError(f"{name}: each entry must be a pair [lo, hi], got {val!r}")
    return pairs


def _points(val, dim: int, name: str) -> np.ndarray:
    """A config list of points of dimension ``dim`` (``_as_points``)."""
    pts = _typed_override([], val, name)
    with _at(name):
        return _as_points(pts, dim)


def _seed(text: str) -> int:
    """``--seed``: a whole number >= 0, as numpy's seeding requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _parse_kernel(obj, context: str) -> KernelSpec:
    with _at(context):
        return KernelSpec.from_json(obj)


def _parse_measure(obj, context: str, dim: int) -> Quadrature:
    """A config measure of the kernel's dimension ``dim``; a tensor grid without
    ``bounds`` covers the unit box of ``dim`` axes."""
    _check_keys(obj, {"type"}, {"m", "lo", "hi", "bounds", "nodes", "weights"}, context)
    kind = obj["type"]
    with _at(context):
        if kind == "trapezoid":
            lo, hi = (_config_number(obj.get(k, d), k) for k, d in (("lo", 0.0), ("hi", 1.0)))
            quad = _trapezoid_grid(_config_number(obj["m"], "m", int), [(lo, hi)], MAX_NODES, "m")
        elif kind == "tensor_trapezoid":
            bounds = _pairs(obj.get("bounds") or [[0.0, 1.0]] * dim, "bounds")
            quad = _trapezoid_grid(obj["m"], bounds, MAX_NODES, "m", "the node count")
        elif kind == "explicit":
            nodes, weights = (_typed_override([], obj[k], k) for k in ("nodes", "weights"))
            _bounded(len(nodes), MAX_NODES, "the node count")
            quad = Quadrature(np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float))
        else:
            raise ConfigError(f"unknown measure type {kind!r}")
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
    with _at(context):
        return rate_law(obj["family"], nu=nu, hurst=hurst, d=d)


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
    return _inv_tau_grid(grid, f"{context}.inv_tau", keys=("min", "max", "count"))


def _cmd_curve(cfg: dict | None, seed: int, out: Path) -> list[str]:
    if cfg is None:
        raise ConfigError("curve: --config is required")
    _check_keys(
        cfg, {"kernel", "n"},
        {"n_designs", "inv_tau", "tau_values", "quadrature", "theory"},
        "curve",
    )
    spec = _parse_kernel(cfg["kernel"], "curve.kernel")
    n = _bounded(cfg["n"], MAX_POINTS, "curve.n", 1)
    n_designs = _bounded(cfg.get("n_designs", 10), MAX_COUNT, "curve.n_designs", 1)
    inv_tau = _inv_tau_from_cfg(cfg, "curve")
    quad = (_parse_measure(cfg["quadrature"], "curve.quadrature", spec.dim)
            if "quadrature" in cfg else None)
    theory_cfg = cfg.get("theory", {})
    if theory_cfg is not False:
        _check_keys(theory_cfg, set(), {"spectrum_m", "p"}, "curve.theory")
        m1 = _config_number(theory_cfg.get("spectrum_m", 2000 if spec.dim == 1 else 45),
                            "curve.theory.spectrum_m", int)
        sq = _trapezoid_grid(m1, [(0.0, 1.0)] * spec.dim, MAX_NODES, "curve.theory.spectrum_m")
        P = _term_count(theory_cfg.get("p", min(200, len(sq) // 10)), len(sq), "curve.theory.p")
    _curve_with_limit(out / "curve.csv", spec, n, inv_tau, n_designs, seed, quad,
                      None if theory_cfg is False else (sq, P))
    return ["curve.csv"]


def _data_csv(path, name: str) -> tuple:
    """A data CSV's points and observations (``load_observations_csv``), at most MAX_POINTS."""
    if not isinstance(path, str):
        raise ConfigError(f"{name}: expected a file path, got {path!r}")
    with _at(name):
        points, obs = load_observations_csv(path)
    _bounded(len(points), MAX_POINTS, f"{name} point count")
    return points, obs


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
    n_random = _bounded(cfg.get("n_random", DEFAULT_N_RANDOM), MAX_COUNT, "fit.n_random", 1)
    n_polish = _bounded(cfg.get("n_polish", DEFAULT_N_POLISH), MAX_COUNT, "fit.n_polish", 1)
    points, obs = _data_csv(cfg["data_csv"], "fit.data_csv")
    design = Design(points, _bounding_box(points))
    if bounds is not None:
        with _at("fit.bounds"):
            bounds = _checked_bounds(bounds, design.dim)
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
    n = _bounded(cfg["n"], math.inf, "plan.n", 1) if "n" in cfg else None
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
        points, obs = _data_csv(cfg["data_csv"], "allocate.data_csv")
        noise = obs.sigma_eps2
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
    # only the keys given, so the simulator's defaults are the only ones
    given = {k: cfg[k] for k in ("truth", "noise_field") if k in cfg}
    given.update((k, _config_number(cfg[k], f"simulate.{k}"))
                 for k in ("noise_level", "noise_contrast") if k in cfg)
    sim_seed = _bounded(cfg.get("sim_seed", seed), math.inf, "simulate.sim_seed", 0)
    with _at("simulate"):
        sim = SyntheticSimulator(**given, seed=sim_seed)
    dcfg = cfg["design"]
    _check_keys(dcfg, {"type"}, {"n", "points"}, "simulate.design")
    if dcfg["type"] == "lhs":
        n = _bounded(dcfg["n"], MAX_POINTS, "simulate.design.n", 1)
        design = latin_hypercube_design(n, sim.dim, seed)
    elif dcfg["type"] == "points":
        points = _points(dcfg["points"], sim.dim, "simulate.design.points")
        _bounded(len(points), MAX_POINTS, "simulate.design.points count")
        with _at("simulate.design.points"):
            design = Design(points, UniformBox(tuple((0.0, 1.0) for _ in range(sim.dim))))
    else:
        raise ConfigError(f"simulate.design.type: unknown type {dcfg['type']!r}")
    _bounded_replicates(cfg["s"], design.n, "simulate.s")
    obs = sample_observations(sim, design, cfg["s"], np.random.SeedSequence([seed, 1]))
    save_observations_csv(out / "observations.csv", design.points, obs)
    return ["observations.csv"]


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "curve": _cmd_curve,
    "fit": _cmd_fit,
    "plan": _cmd_plan,
    "allocate": _cmd_allocate,
    "simulate": _cmd_simulate,
    # the drivers read and check their own configs
    "figure1": lambda cfg, seed, out: run_figure1(out, seed, cfg)["files"],
    "figure2": lambda cfg, seed, out: run_figure2(out, seed, cfg)["files"],
    "casestudy": lambda cfg, seed, out: run_case_study(out, seed, cfg)["files"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpbudget",
        description="Gaussian-process learning curves and simulation-budget planning",
    )
    parser.add_argument("command", choices=_HANDLERS, metavar="|".join(_HANDLERS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=_seed, required=True,
                        help="random seed, a whole number >= 0 (mandatory)")
    parser.add_argument("--out", required=True, help="output directory, created if missing")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    started = time.perf_counter()
    environment = {"numpy": np.__version__, "scipy": scipy.__version__,
                   "openblas": _blas.openblas_report()}
    try:
        config = _load_config(args.config)
        out = Path(args.out)
        with _at("--out"):
            out.mkdir(parents=True, exist_ok=True)
        with _blas.one_numpy_thread():
            outputs = _HANDLERS[args.command](config, args.seed, out)
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as e:
        print(f"gpbudget {args.command}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # a ConfigError, or a config-shaped mistake surfacing from module validation
        print(f"gpbudget {args.command}: {e}", file=sys.stderr)
        return 2
    canon = json.dumps(config or {}, sort_keys=True, separators=(",", ":"))
    _write_json(out / "run_manifest.json", {
        "subcommand": args.command,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": args.seed,
        "outputs": outputs,
        "wall_clock_s": time.perf_counter() - started,
        "version": __version__,
        "environment": environment,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
