"""Asymptotic learning-curve limits against independently derived oracles.

Brownian reference numbers below come from the exact eigenvalues
lambda_p = 1/(pi^2 (p+1/2)^2): the dense-design IMSE limit at tau=0.05
was computed by direct summation of tau lambda_p/(tau+lambda_p) over
p < 10^7 plus an integral tail estimate, and the bracket quantity B_tau
by the same route.  At x=0.5 every eigenfunction satisfies
phi_p(0.5)^2 = 2 sin^2((p+1/2) pi/2) = 1, so the pointwise limit there
coincides with the IMSE limit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbudget.gp_core import (
    Design,
    ImseOperator,
    ObservationSet,
    Quadrature,
    UniformBox,
    fit_blup,
    integrated_mse,
)
from gpbudget.kernels import KernelSpec
from gpbudget.learning_curve import (
    RateLaw,
    asymptotic_imse,
    asymptotic_imse_bounds,
    asymptotic_mse_at,
    b_tau,
    empirical_learning_curve,
    fit_loglog_slope,
    rate_law,
    single_design_imse,
)
from gpbudget.sim_harness import FIGURE1_DEFAULTS, FIGURE2_DEFAULTS
from gpbudget.spectrum import Spectrum, nystrom_spectrum

BROWNIAN = KernelSpec(family="brownian")
CONSTANT = KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"),))
EVERY_FAMILY = (
    BROWNIAN,
    KernelSpec(family="matern1d", nu=1.31, lengthscales=(0.3,)),
    KernelSpec(family="matern1d", nu=2.5, lengthscales=(0.3,)),
    KernelSpec(family="matern_tensor", nu=1.31, lengthscales=(0.3,)),
    KernelSpec(family="gaussian", lengthscales=(0.3,)),
    KernelSpec(family="fbm", hurst=0.7),
    KernelSpec(family="exponential", lengthscales=(0.3,)),
    KernelSpec(family="triangular", lengthscales=(0.3,)),
    KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"), (0.5, "leg:2"))),
)


def _family_id(spec):
    return spec.family if spec.nu is None else f"{spec.family}-{spec.nu}"


def _figure_cases():
    """(kernel, quadrature, box, n, tau grid) of each figure curve at its defaults."""
    def taus(c):
        return 1.0 / np.geomspace(c["inv_tau_min"], c["inv_tau_max"], c["inv_tau_count"])

    unit = UniformBox(((0.0, 1.0),))
    cases = [
        pytest.param(KernelSpec(family="fbm", hurst=float(h)),
                     Quadrature.trapezoid(FIGURE1_DEFAULTS["quad_m"]), unit,
                     FIGURE1_DEFAULTS["n"], taus(FIGURE1_DEFAULTS), id=f"fbm-{h}")
        for h in FIGURE1_DEFAULTS["hurst"]
    ]
    mc, gc = FIGURE2_DEFAULTS["matern"], FIGURE2_DEFAULTS["gaussian"]
    square = ((0.0, 1.0), (0.0, 1.0))
    cases.append(pytest.param(
        KernelSpec(family="matern_tensor", nu=mc["nu"], lengthscales=(mc["theta"],) * 2),
        Quadrature.tensor_trapezoid([mc["quad_m"]] * 2, square), UniformBox(square),
        FIGURE2_DEFAULTS["n"], taus(mc), id="matern_tensor-2d"))
    cases.append(pytest.param(
        KernelSpec(family="gaussian", lengthscales=(gc["theta"],)),
        Quadrature.trapezoid(gc["quad_m"]), unit, FIGURE2_DEFAULTS["n"], taus(gc),
        id="gaussian"))
    return cases


# direct-summation oracles for the Brownian kernel at tau = 0.05
BROWNIAN_IMSE_LIMIT_TAU_005 = 0.11177422592127886
BROWNIAN_B_TAU_005 = 0.14471526543064897


def brownian_spectrum(m=1500, P=150) -> Spectrum:
    return nystrom_spectrum(BROWNIAN, Quadrature.trapezoid(m, 0.0, 1.0), P)


class TestRateLaw:
    def test_degenerate_is_pure_monte_carlo(self):
        law = rate_law("degenerate")
        assert law.exponent == 1.0 and law.log_power == 0

    def test_finite_rank_alias(self):
        assert rate_law("finite_rank").exponent == 1.0

    def test_fbm_exponent(self):
        assert rate_law("fbm", hurst=0.5).exponent == pytest.approx(0.5)
        assert rate_law("fbm", hurst=0.9).exponent == pytest.approx(1 - 1 / 2.8)

    def test_matern_exponents(self):
        law1 = rate_law("matern1d", nu=2.5)
        assert law1.exponent == pytest.approx(0.8) and law1.log_power == 0
        law2 = rate_law("matern_tensor", nu=2.5, d=3)
        assert law2.exponent == pytest.approx(0.8) and law2.log_power == 2

    def test_gaussian_log_power_is_dimension(self):
        law = rate_law("gaussian", d=2)
        assert law.exponent == 1.0 and law.log_power == 2

    def test_matern_smoothness_floor(self):
        with pytest.raises(ValueError, match="nu > 1/2"):
            rate_law("matern1d", nu=0.5)

    def test_fbm_needs_hurst(self):
        with pytest.raises(ValueError, match="hurst"):
            rate_law("fbm")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="rate law"):
            rate_law("brownian")

    @pytest.mark.parametrize("family,kw", [("gaussian", {}), ("matern_tensor", {"nu": 1.5})])
    def test_dimension_below_one_rejected(self, family, kw):
        with pytest.raises(ValueError, match="d >= 1"):
            rate_law(family, d=0, **kw)

    def test_shape_value(self):
        law = rate_law("matern_tensor", nu=1.0, d=2)
        # tau^(1/2) * log(1/tau) at tau = 0.01
        assert law.shape(0.01) == pytest.approx(0.1 * math.log(100.0), rel=1e-12)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            RateLaw(0.0, 0, "degenerate")
        with pytest.raises(ValueError):
            RateLaw(0.5, -1, "fbm")


class TestAsymptoticImse:
    def test_single_unit_eigenvalue(self):
        s = Spectrum(eigenvalues=np.array([1.0]))
        assert asymptotic_imse(s, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_two_term_arithmetic(self):
        s = Spectrum(eigenvalues=np.array([2.0, 1.0]))
        want = 0.1 * 2 / 2.1 + 0.1 * 1 / 1.1
        assert asymptotic_imse(s, 0.1) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(0.18614718614718614, rel=1e-15)

    def test_bounds_spread_is_residual(self):
        s = Spectrum(eigenvalues=np.array([1.0]), residual_trace=0.3)
        lo, hi = asymptotic_imse_bounds(s, 1.0)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.8)
        assert asymptotic_imse(s, 1.0) == pytest.approx(0.65)

    def test_brownian_limit_against_direct_summation(self):
        s = brownian_spectrum()
        lo, hi = asymptotic_imse_bounds(s, 0.05)
        assert lo - 1e-6 <= BROWNIAN_IMSE_LIMIT_TAU_005 <= hi + 1e-6
        assert asymptotic_imse(s, 0.05) == pytest.approx(
            BROWNIAN_IMSE_LIMIT_TAU_005, rel=5e-3
        )

    def test_monotone_in_tau(self):
        s = brownian_spectrum(m=400, P=40)
        vals = [asymptotic_imse(s, t) for t in (0.2, 0.1, 0.05, 0.01)]
        assert np.all(np.diff(vals) < 0)

    def test_tau_must_be_positive(self):
        s = Spectrum(eigenvalues=np.array([1.0]))
        with pytest.raises(ValueError):
            asymptotic_imse(s, 0.0)


class TestAsymptoticMseAt:
    def test_rank_one_constant_kernel(self):
        q = Quadrature.trapezoid(100, 0.0, 1.0)
        s = nystrom_spectrum(CONSTANT, q, P=1)
        assert asymptotic_mse_at(s, CONSTANT, 1.0, 0.3) == pytest.approx(0.5, rel=1e-10)

    def test_brownian_midpoint_matches_imse_limit(self):
        s = brownian_spectrum()
        val = asymptotic_mse_at(s, BROWNIAN, 0.05, 0.5)
        assert val == pytest.approx(BROWNIAN_IMSE_LIMIT_TAU_005, rel=5e-3)

    def test_monotone_in_tau(self):
        s = brownian_spectrum(m=400, P=40)
        assert asymptotic_mse_at(s, BROWNIAN, 0.01, 0.5) < asymptotic_mse_at(
            s, BROWNIAN, 0.05, 0.5
        )

    def test_single_point_only(self):
        s = brownian_spectrum(m=200, P=10)
        with pytest.raises(ValueError, match="single point"):
            asymptotic_mse_at(s, BROWNIAN, 0.05, [[0.2], [0.4]])

    def test_needs_node_table(self):
        s = Spectrum(eigenvalues=np.array([1.0]))
        with pytest.raises(ValueError, match="node table"):
            asymptotic_mse_at(s, BROWNIAN, 0.05, 0.5)


class TestBTau:
    def test_hand_computed_bracket(self):
        s = Spectrum(eigenvalues=np.array([2.0, 0.3, 0.05]))
        b, lo, hi = b_tau(s, 0.1)
        assert b == pytest.approx(0.05 + 2 * 0.1, rel=1e-14)
        assert lo == pytest.approx(b / 2) and hi == pytest.approx(b)

    def test_residual_counts_as_small_eigenvalue_mass(self):
        s = Spectrum(eigenvalues=np.array([2.0, 0.3, 0.05]), residual_trace=0.04)
        b, _, _ = b_tau(s, 0.1)
        assert b == pytest.approx(0.29, rel=1e-12)

    def test_brownian_value(self):
        s = brownian_spectrum()
        b, lo, hi = b_tau(s, 0.05)
        assert b == pytest.approx(BROWNIAN_B_TAU_005, rel=2e-3)
        assert lo - 1e-9 <= BROWNIAN_IMSE_LIMIT_TAU_005 <= hi + 1e-9

    @given(
        lam=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
        tau=st.floats(1e-6, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bracket_encloses_exact_sum(self, lam, tau):
        lam = np.sort(np.asarray(lam))[::-1]
        s = Spectrum(eigenvalues=lam)
        exact = float(np.sum(tau * lam / (tau + lam)))
        b, lo, hi = b_tau(s, tau)
        assert lo - 1e-12 * b <= exact <= hi + 1e-12 * b

    def test_matern_law_recovers_rate_exponent(self):
        # lambda_p = p^-5 gives B_tau ~ 1.25 tau^(4/5); the log-log slope
        # against tau over two decades should sit at the rate-law exponent
        p = np.arange(1, 100001, dtype=float)
        s = Spectrum(eigenvalues=p ** -5.0)
        taus = np.geomspace(1e-4, 1e-2, 12)
        bs = np.array([b_tau(s, t)[0] for t in taus])
        slope, _, r2 = fit_loglog_slope(taus, bs)
        assert slope == pytest.approx(rate_law("matern1d", nu=2.5).exponent, abs=0.03)
        assert r2 > 0.999


class TestEmpiricalLearningCurve:
    def test_deterministic_for_fixed_seed(self):
        mean1, se1 = empirical_learning_curve(BROWNIAN, 30, [0.1, 0.05], 3, seed=11)
        mean2, se2 = empirical_learning_curve(BROWNIAN, 30, [0.1, 0.05], 3, seed=11)
        np.testing.assert_array_equal(mean1, mean2)
        np.testing.assert_array_equal(se1, se2)

    def test_seed_changes_draws(self):
        mean1, _ = empirical_learning_curve(BROWNIAN, 30, [0.1], 3, seed=11)
        mean2, _ = empirical_learning_curve(BROWNIAN, 30, [0.1], 3, seed=12)
        assert not np.array_equal(mean1, mean2)

    def test_monotone_in_tau_with_common_designs(self):
        taus = [0.2, 0.1, 0.05, 0.02]
        mean, _ = empirical_learning_curve(BROWNIAN, 40, taus, 4, seed=5)
        assert np.all(np.diff(mean) < 0)

    @pytest.mark.parametrize("spec", EVERY_FAMILY, ids=_family_id)
    def test_matches_reference_predictor_path(self, spec):
        # the curve sums over the eigenvalues of K, so it agrees with the
        # predictor path to rounding; ImseOperator.imse runs the same
        # arithmetic as fit_blup plus integrated_mse, so those two agree
        # exactly, also when a zero noise entry forces the jitter
        seed, n = 77, 25
        quad = Quadrature.trapezoid(500, 0.0, 1.0)
        mean, _ = empirical_learning_curve(
            spec, n, [0.07], 1, seed=seed, quadrature=quad
        )
        ss = np.random.SeedSequence(seed).spawn(1)[0]
        rng = np.random.default_rng(ss)
        pts = UniformBox(((0.0, 1.0),)).sample(n, rng)

        np.testing.assert_allclose(
            mean[0], single_design_imse(spec, Design(pts), 0.07, quad), rtol=1e-12
        )
        delta = np.linspace(0.0, 0.2, n)
        obs = ObservationSet(np.zeros(n), delta, np.ones(n, dtype=int))
        ref = integrated_mse(fit_blup(spec, Design(pts), obs), quad)
        assert ImseOperator(spec, pts, quad).imse(delta) == ref

    def test_tiny_noise_goes_through_jitter_retry(self):
        # a plain Cholesky of K + n tau I fails at this tau
        spec = KernelSpec(family="gaussian", lengthscales=(0.5,))
        mean, _ = empirical_learning_curve(
            spec, 200, [1e-20], 1, 0, quadrature=Quadrature.trapezoid(400)
        )
        assert np.isfinite(mean[0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            empirical_learning_curve(BROWNIAN, 0, [0.1], 2, seed=0)
        with pytest.raises(ValueError):
            empirical_learning_curve(BROWNIAN, 10, [-0.1], 2, seed=0)
        with pytest.raises(ValueError):
            empirical_learning_curve(BROWNIAN, 10, [], 2, seed=0)


class TestImseScaled:
    @pytest.mark.parametrize("spec", EVERY_FAMILY, ids=_family_id)
    def test_matches_cholesky_path_every_family(self, spec):
        n = 25
        pts = UniformBox(((0.0, 1.0),)).sample(n, np.random.default_rng(3))
        op = ImseOperator(spec, pts, Quadrature.trapezoid(500))
        c = n * np.array([0.2, 0.07, 0.01])
        want = [op.imse(np.full(n, cj)) for cj in c]
        np.testing.assert_allclose(op.imse_scaled(c), want, rtol=1e-12)

    @pytest.mark.parametrize("spec, quad, box, n, taus", _figure_cases())
    def test_matches_cholesky_path_figure_kernels(self, spec, quad, box, n, taus):
        op = ImseOperator(spec, box.sample(n, np.random.default_rng(4)), quad)
        c = n * taus
        want = [op.imse(np.full(n, cj)) for cj in c]
        np.testing.assert_allclose(op.imse_scaled(c), want, rtol=1e-12)

    def test_scale_below_floor_takes_cholesky_path(self):
        # K of 200 points at lengthscale 0.5 is singular to working
        # precision, so lambda_min + c sits far below the floor at c = 1e-12
        n = 200
        spec = KernelSpec(family="gaussian", lengthscales=(0.5,))
        pts = UniformBox(((0.0, 1.0),)).sample(n, np.random.default_rng(0))
        op = ImseOperator(spec, pts, Quadrature.trapezoid(400))
        got = op.imse_scaled([1e-12, 1.0])
        assert got[0] == op.imse(np.full(n, 1e-12))
        np.testing.assert_allclose(got[1], op.imse(np.full(n, 1.0)), rtol=1e-12)

    @pytest.mark.parametrize("c", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_scales(self, c):
        op = ImseOperator(BROWNIAN, [[0.2], [0.6]], Quadrature.trapezoid(50))
        with pytest.raises(ValueError, match="finite and > 0"):
            op.imse_scaled([0.1, c])

    def test_eigendecomposition_is_lazy(self):
        op = ImseOperator(BROWNIAN, [[0.2], [0.6]], Quadrature.trapezoid(50))
        op.imse([0.1, 0.1])
        assert "_spectral" not in vars(op)
        op.imse_scaled([0.1])
        assert "_spectral" in vars(op)


class TestLogLogSlope:
    def test_exact_power_law(self):
        x = np.geomspace(1, 100, 10)
        y = 3.0 * x ** -2.0
        slope, intercept, r2 = fit_loglog_slope(x, y)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_points(self):
        with pytest.raises(ValueError, match="3"):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -1.0, 2.0])
