"""Kernel evaluation against closed forms and precomputed oracles."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import gamma, gammaln, kv

import gpbudget
from gpbudget import kernels
from gpbudget.kernels import (
    KernelSpec,
    NU_RANGE,
    _bessel_factor,
    _nu_coef,
    _nu_panel,
    _matern_corr,
    cross_matrix,
    gram_matrix,
    kernel_diag,
)

# K_{1.31}(2.0) from adaptive quadrature of the integral representation
# int_0^inf exp(-z cosh t) cosh(nu t) dt, frozen before the implementation
# existed (scipy.integrate.quad, abs err below 1e-13).
BESSEL_K_131_20 = 0.16167079017083388


def _kernel_at(spec, x, y):
    """Covariance between two points."""
    return cross_matrix(spec, x, y)[0, 0]


class TestModifiedBesselK:
    def test_integral_representation_oracle(self):
        # Matern correlation at u = sqrt(2 nu) r / l = 2 carries K_nu(2)
        nu, l = 1.31, 0.5
        r = 2.0 * l / math.sqrt(2 * nu)
        spec = KernelSpec(family="matern1d", nu=nu, lengthscales=(l,))
        expect = 2 ** (1 - nu) / math.gamma(nu) * 2.0**nu * BESSEL_K_131_20
        assert cross_matrix(spec, [0.0], [r])[0, 0] == pytest.approx(expect, rel=1e-10)


class TestKernelSpecValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec(family="sinc")

    def test_rejects_bad_lengthscale(self):
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", lengthscales=(1.0, -2.0))

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", variance=0.0)

    def test_matern_requires_nu(self):
        with pytest.raises(ValueError):
            KernelSpec(family="matern1d")

    def test_fbm_requires_hurst_in_unit_interval(self):
        with pytest.raises(ValueError):
            KernelSpec(family="fbm", hurst=1.0)

    def test_one_dimensional_families_reject_extra_lengthscales(self):
        with pytest.raises(ValueError):
            KernelSpec(family="brownian", lengthscales=(1.0, 1.0))

    def test_finite_rank_requires_terms(self):
        with pytest.raises(ValueError):
            KernelSpec(family="finite_rank")
        with pytest.raises(ValueError):
            KernelSpec(family="finite_rank", rank_terms=((1.0, "sin:1"),))

    def test_dim_property(self):
        spec = KernelSpec(family="matern_tensor", nu=2.5, lengthscales=(0.3, 0.4))
        assert spec.dim == 2


class TestKernelSpecJson:
    def test_round_trip(self):
        spec = KernelSpec(family="matern_tensor", nu=1.31, lengthscales=(0.67, 0.45), variance=0.24)
        again = KernelSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec

    def test_round_trip_fbm(self):
        spec = KernelSpec(family="fbm", hurst=0.75)
        assert KernelSpec.from_json(spec.to_json()) == spec

    def test_round_trip_finite_rank(self):
        spec = KernelSpec(family="finite_rank", rank_terms=((2.0, "cos:0"), (1.0, "cos:1")))
        assert KernelSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            KernelSpec.from_json({"family": "gaussian", "jitter": 1e-6})

    @pytest.mark.parametrize("key,val", [
        ("nu", True), ("nu", "2.5"), ("variance", True), ("variance", "1"),
        ("lengthscales", [True]), ("lengthscales", ["0.3"]),
    ])
    def test_bool_or_string_number_rejected(self, key, val):
        obj = dict({"family": "matern1d", "nu": 2.5, "lengthscales": [0.3], "variance": 1.0}, **{key: val})
        with pytest.raises(ValueError, match=rf"{key}: expected"):
            KernelSpec.from_json(obj)

    def test_whole_numbers_read_as_floats(self):
        spec = KernelSpec.from_json({"family": "matern1d", "nu": 2, "lengthscales": [1], "variance": 3})
        assert spec == KernelSpec(family="matern1d", nu=2.0, lengthscales=(1.0,), variance=3.0)
        assert type(spec.nu) is float and type(spec.variance) is float


class TestEvalKernel:
    def test_matern_half_closed_form(self):
        spec = KernelSpec(family="matern1d", nu=0.5, lengthscales=(1.0,))
        assert _kernel_at(spec, 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_fbm_half_is_twice_min(self):
        spec = KernelSpec(family="fbm", hurst=0.5)
        assert _kernel_at(spec, 0.3, 0.7) == pytest.approx(0.6, rel=1e-12)
        assert _kernel_at(spec, 0.3, 0.7) == pytest.approx(2 * min(0.3, 0.7), rel=1e-12)

    def test_stationary_diagonal_is_variance(self):
        spec = KernelSpec(family="matern1d", nu=2.5, lengthscales=(0.2,), variance=1.7)
        x = 0.31
        assert _kernel_at(spec, x, x) == 1.7

    def test_dimension_mismatch(self):
        spec = KernelSpec(family="gaussian", lengthscales=(1.0, 1.0))
        with pytest.raises(ValueError):
            _kernel_at(spec, [0.0, 0.0], [0.0, 0.0, 0.0])

    def test_non_finite_input(self):
        spec = KernelSpec(family="gaussian")
        with pytest.raises(ValueError):
            _kernel_at(spec, math.nan, 0.0)

    def test_tensor_matern_multiplies_factors(self):
        spec = KernelSpec(family="matern_tensor", nu=1.5, lengthscales=(0.3, 0.7))
        f1 = KernelSpec(family="matern1d", nu=1.5, lengthscales=(0.3,))
        f2 = KernelSpec(family="matern1d", nu=1.5, lengthscales=(0.7,))
        v = _kernel_at(spec, [0.1, 0.2], [0.5, 0.9])
        assert v == pytest.approx(
            _kernel_at(f1, 0.1, 0.5) * _kernel_at(f2, 0.2, 0.9), rel=1e-12
        )

    def test_general_nu_matches_bessel_formula(self):
        # correlation (2^{1-nu}/Gamma(nu)) u^nu K_nu(u) at u = sqrt(2 nu) r/l
        nu, l, r = 1.31, 0.5, 0.8
        u = math.sqrt(2 * nu) * r / l
        expect = 2 ** (1 - nu) / math.gamma(nu) * u**nu * kv(nu, u)
        spec = KernelSpec(family="matern1d", nu=nu, lengthscales=(l,))
        assert _kernel_at(spec, 0.0, r) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize(
        "nu,closed",
        [
            (0.5, lambda u: math.exp(-u)),
            (1.5, lambda u: (1 + u) * math.exp(-u)),
            (2.5, lambda u: (1 + u + u * u / 3) * math.exp(-u)),
        ],
    )
    def test_half_integer_closed_forms(self, nu, closed):
        spec = KernelSpec(family="matern1d", nu=nu, lengthscales=(0.4,))
        for r in (0.05, 0.3, 1.1, 2.7):
            u = math.sqrt(2 * nu) * r / 0.4
            assert _kernel_at(spec, 0.0, r) == pytest.approx(closed(u), rel=1e-10)

    def test_near_half_integer_continuity(self):
        a = KernelSpec(family="matern1d", nu=1.5, lengthscales=(1.0,))
        b = KernelSpec(family="matern1d", nu=1.5 + 1e-7, lengthscales=(1.0,))
        assert _kernel_at(a, 0.0, 0.8) == pytest.approx(_kernel_at(b, 0.0, 0.8), rel=1e-5)

    def test_finite_rank_constant(self):
        spec = KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"),))
        assert _kernel_at(spec, 0.2, 0.9) == pytest.approx(1.0, rel=1e-12)

    def test_finite_rank_cosine_expansion(self):
        spec = KernelSpec(family="finite_rank", rank_terms=((2.0, "cos:1"), (0.5, "leg:2")))
        x, y = 0.2, 0.9
        c1 = math.sqrt(2) * math.cos(math.pi * x) * math.sqrt(2) * math.cos(math.pi * y)
        p2 = lambda t: 0.5 * (3 * (2 * t - 1) ** 2 - 1)
        l2 = math.sqrt(5) * p2(x) * math.sqrt(5) * p2(y)
        assert _kernel_at(spec, x, y) == pytest.approx(2.0 * c1 + 0.5 * l2, rel=1e-12)


def _random_spec(draw):
    fam = draw(st.sampled_from(["matern1d", "gaussian", "fbm", "brownian", "exponential", "triangular"]))
    var = draw(st.floats(0.1, 4.0))
    l = draw(st.floats(0.1, 3.0))
    if fam == "matern1d":
        return KernelSpec(family=fam, nu=draw(st.floats(0.3, 4.0)), lengthscales=(l,), variance=var)
    if fam == "fbm":
        return KernelSpec(family=fam, hurst=draw(st.floats(0.05, 0.95)), variance=var)
    return KernelSpec(family=fam, lengthscales=(l,), variance=var)


class TestKernelProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_symmetry(self, data, x, y):
        spec = _random_spec(data.draw)
        a, b = _kernel_at(spec, x, y), _kernel_at(spec, y, x)
        assert abs(a - b) <= 1e-14 * max(abs(a), 1e-300)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_cauchy_schwarz(self, data, x, y):
        spec = _random_spec(data.draw)
        kxy = _kernel_at(spec, x, y)
        bound = _kernel_at(spec, x, x) * _kernel_at(spec, y, y)
        assert kxy * kxy <= bound * (1 + 1e-12) + 1e-12

    def test_diagonal_bounded_on_unit_cube(self):
        xs = np.linspace(0, 1, 101)
        for fam, kw in [
            ("matern1d", dict(nu=1.31)),
            ("gaussian", {}),
            ("fbm", dict(hurst=0.9)),
            ("brownian", {}),
            ("exponential", {}),
            ("triangular", {}),
            ("finite_rank", dict(rank_terms=((1.0, "cos:1"), (0.5, "leg:3")))),
        ]:
            spec = KernelSpec(family=fam, **kw)
            d = kernel_diag(spec, xs)
            assert np.all(np.isfinite(d)) and d.max() < 1e4


EVERY_FAMILY = [
    KernelSpec(family="matern1d", nu=0.5, lengthscales=(0.2,), variance=1.3),
    KernelSpec(family="matern_tensor", nu=1.31, lengthscales=(0.67, 0.45), variance=0.24),
    KernelSpec(family="gaussian", lengthscales=(0.3, 0.7), variance=0.9),
    KernelSpec(family="exponential", lengthscales=(0.3, 0.7), variance=1.1),
    KernelSpec(family="triangular", lengthscales=(0.4, 0.6), variance=0.8),
    KernelSpec(family="brownian", variance=1.7),
    KernelSpec(family="fbm", hurst=0.3, variance=2.0),
    KernelSpec(family="finite_rank", rank_terms=((0.3, "cos:1"), (0.7, "leg:3")), variance=1.3),
]


def _repeated_design(dim):
    """Points with repeated coordinates on every axis, and a repeated point."""
    X = np.random.default_rng(8).choice([0.0, 0.25, 0.5, 0.9, 1.0], size=(24, dim))
    return np.vstack([X, X[:1], np.random.default_rng(9).uniform(size=(6, dim))])


def _distinct_design(dim):
    """Points whose coordinates are all distinct, on every axis."""
    return np.random.default_rng(10).uniform(size=(31, dim))


class TestGramMatrix:
    def test_symmetric_psd_collinear(self):
        spec = KernelSpec(family="exponential")
        K = gram_matrix(spec, [0.0, 0.5, 1.0])
        assert np.allclose(K, K.T)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-8 * np.trace(K) / 3

    def test_duplicate_points_rank_deficient(self):
        spec = KernelSpec(family="gaussian")
        K = gram_matrix(spec, [0.3, 0.3])
        assert abs(np.linalg.det(K)) < 1e-12

    def test_random_matern52_psd(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(10, 1))
        spec = KernelSpec(family="matern1d", nu=2.5, lengthscales=(0.3,))
        w = np.linalg.eigvalsh(gram_matrix(spec, pts))
        assert w.min() >= -1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix(KernelSpec(family="gaussian"), np.empty((0, 1)))

    def test_cross_matrix_shape(self):
        spec = KernelSpec(family="matern_tensor", nu=1.5, lengthscales=(0.5, 0.5))
        X = np.random.default_rng(0).uniform(size=(4, 2))
        Y = np.random.default_rng(1).uniform(size=(7, 2))
        assert cross_matrix(spec, X, Y).shape == (4, 7)

    @pytest.mark.parametrize("spec", EVERY_FAMILY, ids=lambda s: s.family)
    def test_diag_matches_gram(self, spec):
        X = _repeated_design(spec.dim)
        assert np.array_equal(kernel_diag(spec, X), np.diag(cross_matrix(spec, X, X)))
        assert np.array_equal(kernel_diag(spec, X), np.diag(gram_matrix(spec, X)))

    @pytest.mark.parametrize("spec, design", [
        *(pytest.param(s, _repeated_design, id=s.family) for s in EVERY_FAMILY),
        *(pytest.param(s, _distinct_design, id=f"{s.family}-distinct") for s in EVERY_FAMILY),
    ])
    def test_gram_matches_cross(self, spec, design):
        # the condensed-triangle and distinct-coordinate-table paths agree bitwise
        X = design(spec.dim)
        assert np.array_equal(gram_matrix(spec, X), cross_matrix(spec, X, X))


def _per_pair_stationary(spec, X, Y):
    """A stationary cross matrix evaluated pair by pair, with no table."""
    diff = [X[:, j][:, None] - Y[:, j][None, :] for j in range(spec.dim)]
    if spec.family == "gaussian":
        sq = np.zeros((len(X), len(Y)))
        for dj, l in zip(diff, spec.lengthscales):
            sq += (dj / l) * (dj / l)
        return spec.variance * np.exp(-0.5 * sq)
    if spec.family == "exponential":
        r = np.zeros((len(X), len(Y)))
        for dj, l in zip(diff, spec.lengthscales):
            r += np.abs(dj) / l
        return spec.variance * np.exp(-r)
    out = np.ones((len(X), len(Y)))
    for dj, l in zip(diff, spec.lengthscales):
        if spec.family == "triangular":
            out *= np.maximum(0.0, 1.0 - np.abs(dj) / l)
        else:
            out *= _matern_corr(np.abs(dj) / l, spec.nu)
    return spec.variance * out


class TestMaternCrossTables:
    """cross_matrix evaluates each stationary axis on its distinct coordinates only."""

    @pytest.fixture(params=[0.5, 1.31, 2.5, 2.7071, "gaussian", "exponential", "triangular"])
    def spec(self, request):
        if isinstance(request.param, str):
            return KernelSpec(family=request.param, lengthscales=(0.36, 0.56), variance=0.205)
        return KernelSpec(family="matern_tensor", nu=request.param,
                          lengthscales=(0.36, 0.56), variance=0.205)

    def test_tensor_grid(self, spec):
        g = np.linspace(0.0, 1.0, 30)
        gx, gy = np.meshgrid(g, g, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        pts = np.random.default_rng(4).uniform(size=(40, 2))
        assert np.array_equal(cross_matrix(spec, grid, pts), _per_pair_stationary(spec, grid, pts))

    def test_random_points(self, spec):
        rng = np.random.default_rng(5)
        X, Y = rng.uniform(size=(25, 2)), rng.uniform(size=(17, 2))
        assert np.array_equal(cross_matrix(spec, X, Y), _per_pair_stationary(spec, X, Y))

    def test_repeated_coordinates(self, spec):
        rng = np.random.default_rng(6)
        X = rng.choice([0.0, 0.25, 0.5, 1.0], size=(30, 2))
        Y = np.vstack([X[:5], rng.choice([0.25, 0.75], size=(8, 2))])
        assert np.array_equal(cross_matrix(spec, X, Y), _per_pair_stationary(spec, X, Y))

    def test_one_dimensional(self):
        spec = KernelSpec(family="matern1d", nu=1.31, lengthscales=(0.2,))
        x = np.array([0.1, 0.4, 0.4, 0.9, 0.1])[:, None]
        y = np.linspace(0.0, 1.0, 7)[:, None]
        assert np.array_equal(cross_matrix(spec, x, y), _per_pair_stationary(spec, x, y))


class TestMaternLengthscaleDerivative:
    @pytest.mark.parametrize("nu", [0.5, 0.8, 1.0, 1.31, 2.5, 3.0])
    def test_matches_central_difference(self, nu):
        dx, theta = np.array([1e-3, 0.02, 0.3, 1.1, 4.0]), 0.4
        h = 1e-6 * theta
        fd = (_matern_corr(dx / (theta + h), nu) - _matern_corr(dx / (theta - h), nu)) / (2 * h)
        got = _matern_corr(dx / theta, nu, True)[1] / theta
        # the difference quotient of values near 1 carries ~eps/h = 5e-10 rounding
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=5e-9)

    def test_exponential_closed_form(self):
        # nu = 1/2: rho = exp(-r), so d rho / d theta = r exp(-r) / theta
        r, theta = np.array([0.1, 1.0, 3.0]), 0.7
        np.testing.assert_allclose(_matern_corr(r, 0.5, True)[1] / theta,
                                   r * np.exp(-r) / theta, rtol=1e-13)

    def test_zero_at_coincident_points(self):
        assert np.array_equal(_matern_corr(np.array([0.0, 1e-12]), 1.31, True)[1], [0.0, 0.0])

    @pytest.mark.parametrize("nu", [0.05, 1 / 16, 0.3, 0.8, 1.0, 1.31, 2.7071, 5.3, 7.9, 16.0, 20.0])
    def test_matches_kv_per_entry(self, nu):
        # S = 2^{1-nu}/Gamma(nu) u^{nu+1} K_{nu-1}(u), read from nu's panel: its
        # error is absolute (~1e-11), so at small u, where the slope is about u^2,
        # only atol holds.  A nu outside the panels has no slope.
        u = np.exp(np.random.default_rng(32).uniform(math.log(1e-10), math.log(690.0), 400))
        r = u / math.sqrt(2 * nu)
        if not NU_RANGE[0] <= nu <= NU_RANGE[1]:
            with pytest.raises(ValueError, match="outside the nu range"):
                _matern_corr(r, nu, True)
            return
        u = math.sqrt(2 * nu) * r
        want = _direct_bessel_factor(u, nu, nu - 1) * u
        got = _matern_corr(r, nu, True)[1]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=2e-11)


def _direct_bessel_factor(u, nu, mu):
    """2^{1-nu}/Gamma(nu) u^nu K_mu(u) straight from kv, as the kernel computes it off the table."""
    return np.exp((1 - nu) * np.log(2.0) - gammaln(nu) + nu * np.log(u)) * kv(mu, u)


class TestBesselTable:
    """The tabulated Bessel factor against scipy's kv."""

    def test_matches_scipy_kv(self):
        rng = np.random.default_rng(31)
        nus = np.concatenate([rng.uniform(0.5, 3.0, 100), [1.0, 5.3]])
        for nu in nus:
            u = np.exp(rng.uniform(math.log(1e-10), math.log(690.0), 4))
            want = 2 ** (1 - nu) / gamma(nu) * u**nu * kv(nu, u)
            np.testing.assert_allclose(_bessel_factor(u, nu), want, rtol=1e-12, atol=0)

    def test_failed_check_falls_back_to_kv(self):
        # no panel, and kv overflows at a table's small-u nodes for this nu
        nu = 30.7
        assert _nu_coef(nu) is None
        r = np.array([0.0, 1e-12, 1e-8, 1e-3, 0.4, 2.5, 40.0, 200.0])
        u = math.sqrt(2 * nu) * r
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(u > 1e-10, _direct_bessel_factor(u, nu, nu), 1.0)
            assert np.array_equal(_matern_corr(r, nu), np.where(np.isnan(corr), 1.0, corr))
        # outside the panels, so no slope
        with pytest.raises(ValueError, match="outside the nu range"):
            _matern_corr(r, nu, True)

    def test_direct_kv_path_is_silent_near_the_floor(self):
        # with no table, just above the floor the prefactor underflows to 0 and kv
        # overflows to inf; their product is the u -> 0 limit, and no warning
        nu = 30.7
        r = np.array([1.1e-10, 3e-10, 5.5e-10]) / math.sqrt(2 * nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_matern_corr(r, nu), [1.0, 1.0, 1.0])

    def test_above_the_table_uses_kv(self):
        nu = 1.31
        u = np.array([100.0, 690.0, 690.5, 697.0, 720.0])
        got = _bessel_factor(u, nu)
        far = u > 690.0
        assert np.array_equal(got[far], _direct_bessel_factor(u[far], nu, nu))
        np.testing.assert_allclose(got[~far], _direct_bessel_factor(u[~far], nu, nu), rtol=1e-12)


class TestMaternGradientTriple:
    """_matern_corr with gradient: the value of the triple is the value path's."""

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1 / 16, 1.31, 2.7071, 16.0])
    def test_value_is_bitwise_the_value_path(self, nu):
        # held entries (u <= 1e-10), table entries and entries above the table's top
        u = np.concatenate([[0.0, 1e-12, 5e-11],
                            np.exp(np.random.default_rng(33).uniform(math.log(2e-10),
                                                                     math.log(680.0), 300)),
                            [700.0, 750.0, 1000.0]])
        r = u / math.sqrt(2 * nu)
        rho, S, D = _matern_corr(r, nu, True)
        assert np.array_equal(rho, _matern_corr(r, nu))
        # the u -> 0 limits, and no nu-derivative above the table's top
        assert not S[:3].any() and not D[:3].any() and not D[-3:].any()


class TestNuPanels:
    """The mu = nu tables interpolated in nu."""

    def test_every_panel_passes_its_check(self):
        # so NU_RANGE, where the fit accepts its nu bounds, has a gradient everywhere
        for k in range(8):
            assert _nu_panel(k) is not None
        assert NU_RANGE == (1 / 16, 16.0)

    @pytest.mark.parametrize("nu", [0.0625, 0.3, 1.0, 2.7, 7.9, 16.0])
    def test_log_factor_dnu_matches_a_central_difference(self, nu):
        r = np.array([1e-6, 1e-3, 0.05, 0.4, 1.3, 6.0]) / math.sqrt(2 * nu)
        u = math.sqrt(2 * nu) * r
        h = 1e-5 * nu
        fd = (np.log(_direct_bessel_factor(u, nu + h, nu + h))
              - np.log(_direct_bessel_factor(u, nu - h, nu - h))) / (2 * h)
        np.testing.assert_allclose(_matern_corr(r, nu, True)[2], fd, rtol=1e-6, atol=1e-8)

    def test_log_factor_dnu_is_zero_where_the_correlation_is_held(self):
        assert np.array_equal(_matern_corr(np.array([0.0, 1e-12]), 1.31, True)[2], [0.0, 0.0])

    @pytest.mark.parametrize("nu", [0.05, 16.01, 20.0])
    def test_log_factor_dnu_outside_the_panels_raises(self, nu):
        with pytest.raises(ValueError, match="outside the nu range"):
            _matern_corr(np.array([0.5]), nu, True)

    def test_outside_the_panels_every_entry_is_kv(self):
        for nu in (0.05, 20.0):
            u = np.array([1e-3, 0.7, 30.0])
            assert _nu_coef(nu) is None
            assert np.array_equal(_bessel_factor(u, nu), _direct_bessel_factor(u, nu, nu))

    def test_a_panel_is_built_from_one_kv_call(self, monkeypatch):
        # the 24 nu nodes broadcast against the 433 u nodes of every node's table
        calls = []

        def counting_kv(nu, u):
            calls.append(np.broadcast_shapes(np.shape(nu), np.shape(u)))
            return kv(nu, u)

        monkeypatch.setattr(kernels, "kv", counting_kv)
        A, _ = _nu_panel.__wrapped__(3)
        assert calls == [(24, 433)]
        assert np.array_equal(A, _nu_panel(3)[0])

    def test_a_failed_node_table_fails_the_panel(self, monkeypatch):
        # kv overflowing at one node's small-u end leaves that table's series non-finite
        def overflowing_kv(nu, u):
            out = kv(nu, u)
            out[5, 0] = np.inf
            return out

        monkeypatch.setattr(kernels, "kv", overflowing_kv)
        assert _nu_panel.__wrapped__(3) is None


def test_import_builds_no_table():
    # a fresh import of the command line makes no kv call and fills no table cache
    body = (
        "import scipy.special\n"
        "calls = []\n"
        "kv = scipy.special.kv\n"
        "scipy.special.kv = lambda *a: calls.append(a) or kv(*a)\n"
        "import gpbudget.cli\n"
        "from gpbudget import kernels\n"
        "print(len(calls), kernels._nu_panel.cache_info().currsize)\n"
    )
    src = str(Path(gpbudget.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
