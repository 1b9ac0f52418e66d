"""The benchmark's three workloads, each driven through ``gpbudget.cli.main``.

A workload turns the benchmark seed into operations.  An operation is one
request a user makes and is a list of CLI calls; each call carries the
check that its output files must pass.  The program sees only the
generated arguments and config files, never the benchmark seed itself
except as the ``--seed`` of a call.

- ``casestudy``: ``gpbudget casestudy`` at its default config and seed 1.  The only
  workload that runs the multi-start likelihood search, and with a fitted
  general nu every Matern entry goes through the Bessel ``kv``.
- ``curves``: ``gpbudget figure1`` then ``gpbudget figure2`` at their
  default configs.  Many designs times many tau at n=200 with closed-form
  kernels: the main workload for learning curves and spectra, and the one
  that bypasses the likelihood fit and the Bessel function.
- ``allocate``: a geometric sweep of ``gpbudget allocate`` budgets on one
  fixed 2-D design with heteroscedastic noise.  One design is read many
  times, the opposite pattern to ``curves``, which builds a fresh design
  for every IMSE.

``run.py --record-reference`` re-records the ``allocate`` reference values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gpbudget.sim_harness import SyntheticSimulator, latin_hypercube_design

REFERENCE = Path(__file__).resolve().parent / "allocate_reference.json"

# casestudy runs at the acceptance gate's seed whatever the workload seed.
# Criterion 8 (budget ratio in [0.5, 2]) is stated at that seed and does
# not hold at every seed, and the work done depends on the seed: the
# held-out scan stops at a seed-dependent replicate count.
CASE_SEED = 1

# allocate inputs.  The design is fixed, so that every plan can be checked
# against a value recorded once; the workload seed picks which budgets of
# the recorded pool a run visits.
ALLOC_N = 100
ALLOC_DESIGN_SEED = 2012
ALLOC_KERNEL = {
    "family": "matern_tensor", "nu": 2.7071,
    "lengthscales": [0.36, 0.56], "variance": 0.205,
}
# passed explicitly, so a change to the CLI's default eta cannot move it
ALLOC_ETA = {"type": "tensor_trapezoid", "m": [41, 41], "bounds": [[0.0, 1.0], [0.0, 1.0]]}
ALLOC_POOL = tuple(int(t) for t in np.unique(np.round(np.geomspace(2 * ALLOC_N, 200 * ALLOC_N, 80))))
# 40 plans per pass leave ten samples above the 75th percentile
ALLOC_CALLS = 40
ALLOC_REL_TOL = 1e-8


@dataclass(frozen=True)
class Call:
    """One CLI call; ``--out`` is appended when it runs."""

    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]


def _s_int(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([int(row["s_int"]) for row in csv.DictReader(fh)])


def _check_casestudy(out: Path) -> list[str]:
    r = json.loads((out / "case_study.json").read_text())
    problems = []
    ratio = r["budget_ratio"]
    if ratio is None or not 0.5 <= ratio <= 2.0:
        problems.append(f"budget_ratio {ratio} outside [0.5, 2]")
    t0, t_pred = r["n"] * r["s0"], r["predicted_budget"]
    if not t_pred > t0:
        problems.append(f"solved_T {t_pred} not above T0 {t0}")
    s = _s_int(out / "allocation.csv")
    if s.sum() != t_pred or s.min() < 1:
        problems.append(f"allocation sums to {s.sum()} (min {s.min()}), budget {t_pred}")
    if not math.isfinite(r["fit"]["loglik"]):
        problems.append(f"loglik {r['fit']['loglik']} not finite")
    return problems


def _check_figure1(out: Path) -> list[str]:
    curves = json.loads((out / "figure1_report.json").read_text())["curves"]
    problems = []
    for h, lo, hi in (("0.5", -0.58, -0.42), ("0.9", -0.72, -0.56)):
        slope = curves[h]["empirical_slope"]
        if not lo <= slope <= hi:
            problems.append(f"H={h} slope {slope} outside [{lo}, {hi}]")
    return problems


def _check_figure2(out: Path) -> list[str]:
    gap = json.loads((out / "figure2_report.json").read_text())["matern2d"]["slope_gap"]
    rows = np.loadtxt(out / "figure2_gaussian1d.csv", delimiter=",", skiprows=1)
    emp, env = rows[:, 1], rows[:, 3]
    problems = []
    if not gap <= 0.10:
        problems.append(f"Matern slope gap {gap} above 0.10")
    if not np.all(emp <= env * (1.0 + 1e-12)):
        problems.append("Gaussian curve above its envelope")
    if not float(np.min(emp / env)) >= 2.0 / 3.0:
        problems.append(f"Gaussian envelope tightness {float(np.min(emp / env))} below 2/3")
    return problems


def _allocate_check(T: int, reference: float | None) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        imse = json.loads((out / "summary.json").read_text())["imse_optimal"]
        s = _s_int(out / "plan.csv")
        problems = []
        if s.sum() != T or s.min() < 1:
            problems.append(f"s_int sums to {s.sum()} (min {s.min()}), budget {T}")
        if not math.isfinite(imse):
            problems.append(f"imse_optimal {imse} not finite")
        elif reference is None:
            problems.append(f"no recorded imse_optimal for T={T}")
        elif abs(imse - reference) > ALLOC_REL_TOL * abs(reference):
            problems.append(f"imse_optimal {imse!r} differs from recorded {reference!r}")
        return problems
    return check


def casestudy(seed: int, inputs: Path) -> list[list[Call]]:
    return [[Call(("casestudy", "--seed", str(CASE_SEED)), _check_casestudy)]]


def curves(seed: int, inputs: Path) -> list[list[Call]]:
    return [[
        Call(("figure1", "--seed", str(seed)), _check_figure1),
        Call(("figure2", "--seed", str(seed)), _check_figure2),
    ]]


def allocate_config() -> dict:
    """The allocate config without its budget ``T``."""
    design = latin_hypercube_design(ALLOC_N, 2, ALLOC_DESIGN_SEED)
    noise = SyntheticSimulator(noise_contrast=16.0).noise_variance(design.points)
    return {
        "kernel": ALLOC_KERNEL,
        "points": design.points.tolist(),
        "sigma_eps2": noise.tolist(),
        "eta": ALLOC_ETA,
    }


def allocate(seed: int, inputs: Path, budgets=None) -> list[list[Call]]:
    """One plan per budget; ``budgets`` defaults to a seeded draw from the pool."""
    if budgets is None:
        rng = np.random.default_rng(seed)
        budgets = np.sort(rng.choice(ALLOC_POOL, ALLOC_CALLS, replace=False))
    reference = json.loads(REFERENCE.read_text())["imse_optimal"] if REFERENCE.exists() else {}
    base = allocate_config()
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for T in map(int, budgets):
        path = inputs / f"allocate_T{T}.json"
        path.write_text(json.dumps(dict(base, T=T)))
        ops.append([Call(("allocate", "--seed", str(seed), "--config", str(path)),
                         _allocate_check(T, reference.get(str(T))))])
    return ops


WORKLOADS = {"casestudy": casestudy, "curves": curves, "allocate": allocate}
