"""Optimal replication allocation for a fixed simulation budget.

Given n design points with per-observation noise variances sigma_eps^2(x_i)
and a budget of T total runs, the real-valued allocation minimizing the
IMSE (exact when the covariance matrix K is diagonal) sorts points by

    g_j = (k(x_j, x_j) + sigma_eps^2(x_j)) / sqrt(c(x_j) sigma_eps^2(x_j)),

where c(x) = int k(x', x)^2 d eta(x') weights the local IMSE mass, pins
s_i = 1 below a threshold index i*, and spreads the remainder of the
budget in proportion to sqrt(c sigma_eps^2) above it.  The integer plan
rounds the real solution; ties and increment order are fixed for
determinism (descending fractional part, then original index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .gp_core import Design, ImseOperator, Quadrature, _write_csv
from .kernels import KernelSpec, _is_single_point, _keep


class InfeasibleBudgetError(ValueError):
    """Budget below the number of design points (one run each is mandatory)."""


@dataclass(frozen=True)
class AllocationPlan:
    """Replication counts for a budget T, real-valued and rounded, each kept
    as a read-only copy, so the sums checked here hold for the plan's life."""

    s_real: np.ndarray
    budget: int
    i_star: int
    s_int: np.ndarray | None = None
    achieved_imse: float | None = None
    quasi_optimal: bool = False
    uniform_imse: float | None = None

    def __post_init__(self):
        s = np.array(self.s_real, dtype=float).ravel()
        if np.any(s < 1 - 1e-9):
            raise ValueError("allocations must be >= 1")
        if abs(s.sum() - self.budget) > 1e-8 * max(self.budget, 1):
            raise ValueError("real allocation must exhaust the budget")
        si = self.s_int
        if si is not None:
            si = np.asarray(si).ravel().astype(int)
            if si.sum() != self.budget:
                raise ValueError("integer allocation must sum to the budget exactly")
            if np.any(np.abs(si - s) >= 1):
                raise ValueError("rounded entries must stay within 1 of the real ones")
        _keep(self, s_real=s, s_int=si)

    @property
    def n(self) -> int:
        return len(self.s_real)


def local_imse_weight(spec: KernelSpec, x, eta: Quadrature):
    """c(x) = int k(x', x)^2 d eta(x'), by quadrature.

    Scalar for a single point, vector for a stack of points.
    """
    c = ImseOperator(spec, x, eta).local_weight()
    return float(c[0]) if _is_single_point(x, spec.dim) else c


def optimal_real_allocation(spec: KernelSpec, design: Design, noise, T: int,
                            eta: Quadrature) -> AllocationPlan:
    """The budget split minimizing the IMSE for diagonal K: the plan of
    ``plan_allocation``, its real split, rounding and both IMSE values.

    ``noise`` holds the per-observation variances sigma_eps^2(x_i) (all
    positive).  Requires T >= n; T == n forces one run everywhere.  For
    non-diagonal covariance matrices the same formulas are applied and
    the plan is flagged quasi-optimal.
    """
    return plan_allocation(spec, design, noise, T, eta)


def _plan(op: ImseOperator, noise, T: int) -> AllocationPlan:
    """The whole plan on one design's operator: the closed-form real split,
    its rounding, and the IMSE of the rounded and of the uniform split.
    The prior variances k(x_i, x_i) are the diagonal of ``op.K``."""
    sig2 = np.asarray(noise, dtype=float).ravel()
    n = len(op.K)
    if len(sig2) != n:
        raise ValueError("noise vector length must match the design")
    if np.any(sig2 <= 0):
        raise ValueError("allocation requires strictly positive noise variances")
    T = int(T)
    if T < n:
        raise InfeasibleBudgetError(f"budget T={T} below n={n}; every design point needs one run")
    kdiag = np.diag(op.K)
    if np.any(kdiag <= 0):
        raise ValueError("allocation requires k(x_i, x_i) > 0 at every point")
    corr = np.abs(op.K) / np.sqrt(np.outer(kdiag, kdiag))
    np.fill_diagonal(corr, 0.0)
    quasi = bool(corr.max() > 1e-8)

    i_star, s_real = n, np.ones(n)
    if T > n:
        c = op.local_weight()
        g = (kdiag + sig2) / np.sqrt(c * sig2)
        order = np.argsort(-g, kind="stable")
        gs, ks, ss, cs = g[order], kdiag[order], sig2[order], c[order]
        ratio_s_over_k = ss / ks
        ratio_sqrt = np.sqrt(cs * ss) / ks
        # suffix sums over j > i in the sorted order (1-based i)
        suf_s = np.concatenate([np.cumsum(ratio_s_over_k[::-1])[::-1], [0.0]])
        suf_r = np.concatenate([np.cumsum(ratio_sqrt[::-1])[::-1], [0.0]])
        i_star = 0
        for i in range(1, n):
            den = suf_r[i]
            if den <= 0:
                continue
            if gs[i - 1] >= (T - i + suf_s[i]) / den:
                i_star = i
        total = T - i_star + suf_s[i_star]
        S = suf_r[i_star]
        s_sorted = np.ones(n)
        tail = slice(i_star, n)
        s_sorted[tail] = (np.sqrt(cs[tail] * ss[tail]) / S * total - ss[tail]) / ks[tail]
        s_real[order] = np.maximum(s_sorted, 1.0)
    s_int = round_allocation(s_real, T)
    s_uniform = round_allocation(np.full(n, T / n), T)
    return AllocationPlan(s_real=s_real, budget=T, i_star=i_star, s_int=s_int,
                          achieved_imse=op.imse(sig2 / s_int), quasi_optimal=quasi,
                          uniform_imse=op.imse(sig2 / s_uniform))


def round_allocation(s_real, T: int) -> np.ndarray:
    """Integer allocation summing exactly to T.

    Entries keep their floors; the leftover budget goes one unit at a
    time to the largest fractional parts (ties by original index).
    """
    s = np.asarray(s_real, dtype=float).ravel()
    T = int(T)
    if np.any(s < 1 - 1e-9):
        raise ValueError("allocations must be >= 1")
    if abs(s.sum() - T) > 1e-6 * max(T, 1):
        raise ValueError(f"real allocation sums to {s.sum()}, budget is {T}")
    floors = np.floor(s + 1e-12).astype(int)
    floors = np.maximum(floors, 1)
    frac = s - floors
    deficit = T - int(floors.sum())
    if deficit < 0 or deficit > len(s):
        raise ValueError("allocation total inconsistent with budget")
    out = floors.copy()
    if deficit:
        order = np.argsort(-frac, kind="stable")
        out[order[:deficit]] += 1
    return out


def heteroscedastic_imse(spec: KernelSpec, design: Design, noise, s, eta: Quadrature) -> float:
    """IMSE of the BLUP with noise diagonal sigma_eps^2(x_i) / s_i.

    ``s`` may be real-valued (the continuum relaxation) as long as every
    entry is >= 1.
    """
    sig2 = np.asarray(noise, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    if len(sig2) != design.n or len(s) != design.n:
        raise ValueError("noise and s must match the design size")
    if np.any(s < 1 - 1e-9):
        raise ValueError("replication counts must be >= 1")
    if np.any(sig2 < 0):
        raise ValueError("noise variances must be nonnegative")
    return ImseOperator(spec, design.points, eta).imse(sig2 / s)


def plan_allocation(spec: KernelSpec, design: Design, noise, T: int, eta: Quadrature) -> AllocationPlan:
    """Full pipeline: real optimum, rounding, achieved IMSE, all read from
    one ``ImseOperator`` of the design and eta.

    ``uniform_imse`` is the IMSE of the same budget split as evenly as
    round_allocation allows, the baseline the optimum is compared with.
    The plan is made under ``_blas.one_numpy_thread``.
    """
    with _blas.one_numpy_thread():
        return _plan(ImseOperator(spec, design.points, eta), noise, T)


def save_plan_csv(path, design: Design, noise, plan: AllocationPlan) -> None:
    """Write the per-point allocation table."""
    sig2 = np.asarray(noise, dtype=float).ravel()
    header = ["point_index"] + [f"x_{j + 1}" for j in range(design.dim)]
    header += ["sigma_eps2", "s_real", "s_int"]
    s_int = plan.s_int if plan.s_int is not None else np.full(plan.n, -1)
    columns = (design.points.tolist(), sig2.tolist(), plan.s_real.tolist(), s_int.tolist())
    _write_csv(path, header, ([i] + x + [e, r, k] for i, (x, e, r, k) in enumerate(zip(*columns))))
