"""Replication-budget allocation: closed form vs brute force and uniform.

The two-point oracle: unit-variance constant kernel (k_ii = c_i = 1),
noise (0.01, 0.04), T = 10.  Neither point satisfies the ones-threshold,
so both take the square-root rule
    s_i = sqrt(sigma_i^2) / S * (T + sum sigma_j^2) - sigma_i^2
with S = 0.1 + 0.2, giving s = (3.34, 6.66) exactly.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbudget.allocation import (
    AllocationPlan,
    InfeasibleBudgetError,
    heteroscedastic_imse,
    local_imse_weight,
    optimal_real_allocation,
    plan_allocation,
    round_allocation,
    save_plan_csv,
)
from gpbudget.gp_core import Design, Quadrature, UniformBox
from gpbudget.kernels import KernelSpec, kernel_diag

CONSTANT = KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"),))
# lengthscale 0.04 with points >= 0.25 apart: exactly zero off-diagonal
SPIKY = KernelSpec(family="triangular", lengthscales=(0.04,))
ETA = Quadrature.trapezoid(2001, 0.0, 1.0)
BOX = UniformBox(((0.0, 1.0),))


def _diagonal_design():
    return Design(np.array([[0.2], [0.5], [0.8]]), BOX)


def _diagonal_parts(spec, design, eta):
    """(trace, kdiag, c) of the closed-form IMSE for a diagonal Gram matrix."""
    pts = design.points
    kdiag = kernel_diag(spec, pts)
    c = np.atleast_1d(local_imse_weight(spec, pts, eta))
    trace = float(eta.weights @ kernel_diag(spec, eta.nodes))
    return trace, kdiag, c


def _diagonal_imse(spec, design, noise, s, eta):
    """Closed-form IMSE when the design Gram matrix is diagonal."""
    trace, kdiag, c = _diagonal_parts(spec, design, eta)
    return trace - float(np.sum(c / (kdiag + np.asarray(noise) / np.asarray(s))))


class TestLocalImseWeight:
    def test_constant_kernel_weight_is_one(self):
        assert local_imse_weight(CONSTANT, 0.42, ETA) == pytest.approx(1.0, abs=1e-12)
        vec = local_imse_weight(CONSTANT, np.array([[0.1], [0.9]]), ETA)
        assert np.allclose(vec, 1.0, atol=1e-12)

    def test_brownian_closed_form(self):
        # int_0^1 min(x', x)^2 dx' = x^2 - 2 x^3 / 3
        brown = KernelSpec(family="brownian")
        fine = Quadrature.trapezoid(4001, 0.0, 1.0)
        for x in (0.3, 0.5, 1.0):
            want = x**2 - 2 * x**3 / 3
            assert local_imse_weight(brown, x, fine) == pytest.approx(want, abs=1e-5)


class TestTwoPointOracle:
    def test_spec_instance(self):
        design = Design(np.array([[0.25], [0.75]]), BOX)
        noise = np.array([0.01, 0.04])
        plan = optimal_real_allocation(CONSTANT, design, noise, 10, ETA)
        assert plan.s_real[0] == pytest.approx(3.34, abs=1e-9)
        assert plan.s_real[1] == pytest.approx(6.66, abs=1e-9)
        assert plan.i_star == 0
        assert plan.quasi_optimal  # constant kernel correlates everything

    def test_noisier_point_gets_more_runs(self):
        design = Design(np.array([[0.25], [0.75]]), BOX)
        plan = optimal_real_allocation(CONSTANT, design, [0.01, 0.04], 10, ETA)
        assert plan.s_real[1] > plan.s_real[0]


class TestBudgetEdgeCases:
    def test_budget_equal_n_forces_single_runs(self):
        design = _diagonal_design()
        plan = optimal_real_allocation(SPIKY, design, [0.1, 0.2, 0.3], 3, ETA)
        np.testing.assert_array_equal(plan.s_real, np.ones(3))
        assert plan.i_star == 3

    def test_budget_below_n_infeasible(self):
        design = _diagonal_design()
        with pytest.raises(InfeasibleBudgetError):
            optimal_real_allocation(SPIKY, design, [0.1, 0.2, 0.3], 2, ETA)

    def test_infeasible_is_a_value_error(self):
        assert issubclass(InfeasibleBudgetError, ValueError)

    def test_noise_must_be_positive(self):
        design = _diagonal_design()
        with pytest.raises(ValueError, match="positive"):
            optimal_real_allocation(SPIKY, design, [0.1, 0.0, 0.3], 9, ETA)

    def test_noise_length_checked(self):
        design = _diagonal_design()
        with pytest.raises(ValueError, match="length"):
            optimal_real_allocation(SPIKY, design, [0.1, 0.2], 9, ETA)

    def test_diagonal_gram_not_flagged_quasi(self):
        plan = optimal_real_allocation(SPIKY, _diagonal_design(), [0.1, 0.2, 0.3], 9, ETA)
        assert not plan.quasi_optimal


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_at_most_grid_minimum(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence([515, seed]))
        design = _diagonal_design()
        noise = rng.uniform(0.02, 0.5, 3)
        T = 12
        plan = optimal_real_allocation(SPIKY, design, noise, T, ETA)
        best = _diagonal_imse(SPIKY, design, noise, plan.s_real, ETA)
        trace, kdiag, c = _diagonal_parts(SPIKY, design, ETA)
        grid = np.arange(1.0, T - 2.0 + 1e-9, 0.1)
        s1, s2 = np.meshgrid(grid, grid, indexing="ij")
        s3 = T - s1 - s2
        feasible = s3 >= 1.0 - 1e-12
        s3 = np.where(feasible, s3, 1.0)
        gain = sum(
            c[i] / (kdiag[i] + noise[i] / s)
            for i, s in enumerate((s1, s2, s3))
        )
        grid_min = float(np.min((trace - gain)[feasible]))
        assert best <= grid_min + 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_quadrature_imse(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence([516, seed]))
        design = _diagonal_design()
        noise = rng.uniform(0.02, 0.5, 3)
        plan = optimal_real_allocation(SPIKY, design, noise, 12, ETA)
        direct = heteroscedastic_imse(SPIKY, design, noise, plan.s_real, ETA)
        closed = _diagonal_imse(SPIKY, design, noise, plan.s_real, ETA)
        assert direct == pytest.approx(closed, rel=1e-8)


class TestFeasibilityProperties:
    @given(
        noise=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
        t_per_point=st.floats(1.0, 20.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_plan_feasible(self, noise, t_per_point, seed):
        n = len(noise)
        rng = np.random.default_rng(seed)
        # keep the points >= 0.1 apart so the triangular Gram is diagonal
        base = np.linspace(0.05, 0.95, n)
        pts = (base + rng.uniform(-0.02, 0.02, n))[:, None]
        design = Design(pts, BOX)
        T = int(np.ceil(t_per_point * n))
        plan = optimal_real_allocation(SPIKY, design, noise, T, ETA)
        assert plan.s_real.sum() == pytest.approx(T, abs=1e-8 * max(T, 1))
        assert np.all(plan.s_real >= 1 - 1e-9)
        s_int = round_allocation(plan.s_real, T)
        assert s_int.sum() == T
        assert np.all(s_int >= 1)
        assert np.all(np.abs(s_int - plan.s_real) < 1)


class TestRounding:
    def test_largest_fraction_gets_leftover(self):
        np.testing.assert_array_equal(round_allocation([1.4, 2.6], 4), [1, 3])

    def test_three_way_example(self):
        np.testing.assert_array_equal(round_allocation([1.2, 1.3, 1.5], 4), [1, 1, 2])

    def test_ties_break_by_index(self):
        np.testing.assert_array_equal(round_allocation([1.5, 1.5], 3), [2, 1])

    def test_integers_pass_through(self):
        np.testing.assert_array_equal(round_allocation([2.0, 3.0, 5.0], 10), [2, 3, 5])

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            round_allocation([1.4, 2.6], 5)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            round_allocation([0.5, 3.5], 4)


class TestHeteroscedasticImse:
    def test_matches_diagonal_closed_form(self):
        design = _diagonal_design()
        noise = [0.05, 0.1, 0.2]
        s = [2.0, 3.0, 4.0]
        got = heteroscedastic_imse(SPIKY, design, noise, s, ETA)
        want = _diagonal_imse(SPIKY, design, noise, s, ETA)
        assert got == pytest.approx(want, rel=1e-8)

    def test_single_point_closed_form(self):
        design = Design(np.array([[0.5]]), BOX)
        noise, s = [0.07], [3.0]
        got = heteroscedastic_imse(SPIKY, design, noise, s, ETA)
        want = _diagonal_imse(SPIKY, design, noise, s, ETA)
        assert got == pytest.approx(want, rel=1e-10)

    def test_infinite_replication_reaches_noiseless_limit(self):
        spec = KernelSpec(family="matern1d", nu=1.5, lengthscales=(0.3,))
        design = Design(np.array([[0.2], [0.5], [0.8]]), BOX)
        noise = [0.1, 0.1, 0.1]
        many = heteroscedastic_imse(spec, design, noise, [1e12] * 3, ETA)
        zero = heteroscedastic_imse(spec, design, [0.0, 0.0, 0.0], [1, 1, 1], ETA)
        assert many == pytest.approx(zero, abs=1e-6)

    def test_monotone_in_replication(self):
        spec = KernelSpec(family="matern1d", nu=1.5, lengthscales=(0.3,))
        design = _diagonal_design()
        noise = [0.1, 0.1, 0.1]
        a = heteroscedastic_imse(spec, design, noise, [1, 1, 1], ETA)
        b = heteroscedastic_imse(spec, design, noise, [4, 4, 4], ETA)
        assert b < a

    def test_fractional_replication_allowed(self):
        val = heteroscedastic_imse(SPIKY, _diagonal_design(), [0.1] * 3, [1.5, 2.5, 3.0], ETA)
        assert np.isfinite(val) and val > 0

    def test_replication_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            heteroscedastic_imse(SPIKY, _diagonal_design(), [0.1] * 3, [0.5, 2, 3], ETA)


class TestPlanPipeline:
    def test_pinned_instance_beats_uniform(self):
        spec = KernelSpec(family="matern1d", nu=2.5, lengthscales=(0.03,))
        rng = np.random.default_rng(np.random.SeedSequence([2718, 0]))
        pts = BOX.sample(25, rng)
        design = Design(pts, BOX)
        noise = 0.3 * np.exp(np.log(100.0) * (pts[:, 0] - 0.5))
        plan = plan_allocation(spec, design, noise, 200, ETA)
        uniform = round_allocation(np.full(25, 8.0), 200)
        imse_uniform = heteroscedastic_imse(spec, design, noise, uniform, ETA)
        assert plan.uniform_imse == imse_uniform
        assert plan.achieved_imse < imse_uniform

    def test_plan_carries_integer_allocation_and_imse(self):
        plan = plan_allocation(SPIKY, _diagonal_design(), [0.1, 0.3, 0.2], 10, ETA)
        assert plan.s_int is not None and plan.s_int.sum() == 10
        assert plan.achieved_imse == pytest.approx(
            heteroscedastic_imse(SPIKY, _diagonal_design(), [0.1, 0.3, 0.2], plan.s_int, ETA)
        )

    def test_plan_validation_catches_bad_sum(self):
        with pytest.raises(ValueError, match="exhaust"):
            AllocationPlan(s_real=np.array([2.0, 3.0]), budget=6, i_star=0)

    def test_plan_validation_catches_rounding_drift(self):
        with pytest.raises(ValueError, match="within 1"):
            AllocationPlan(s_real=np.array([2.5, 3.5]), budget=6, i_star=0,
                           s_int=np.array([1, 5]))


class TestCsvExport:
    def test_columns_and_values(self, tmp_path):
        design = _diagonal_design()
        noise = [0.1, 0.3, 0.2]
        plan = plan_allocation(SPIKY, design, noise, 10, ETA)
        path = tmp_path / "plan.csv"
        save_plan_csv(path, design, noise, plan)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["point_index", "x_1", "sigma_eps2", "s_real", "s_int"]
        assert len(rows) == 4
        s_int = np.array([int(r[-1]) for r in rows[1:]])
        np.testing.assert_array_equal(s_int, plan.s_int)
        s_real = np.array([float(r[-2]) for r in rows[1:]])
        np.testing.assert_allclose(s_real, plan.s_real, rtol=0, atol=0)
