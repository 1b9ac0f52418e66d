"""Kernel evaluation against closed forms and precomputed oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.distance import cdist, pdist, squareform
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

    @pytest.mark.parametrize("nu", [0.05, 16.01, 20.0, 30.7, math.nan, "2.5"])
    def test_matern_nu_outside_the_range_rejected(self, nu):
        with pytest.raises(ValueError, match=r"nu in \[0.0625, 16.0\]"):
            KernelSpec(family="matern_tensor", nu=nu, lengthscales=(0.3, 0.4))

    @pytest.mark.parametrize("nu", [1 / 16, 16.0])
    def test_matern_nu_range_includes_its_ends(self, nu):
        assert KernelSpec(family="matern1d", nu=nu).nu == nu

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_lengthscale(self, bad):
        with pytest.raises(ValueError, match="lengthscales must all be finite"):
            KernelSpec(family="gaussian", lengthscales=(0.5, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_variance(self, bad):
        with pytest.raises(ValueError, match="variance must be finite"):
            KernelSpec(family="gaussian", variance=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
    def test_rejects_non_finite_rank_weight(self, bad):
        with pytest.raises(ValueError, match="weights must be finite and > 0"):
            KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"), (bad, "cos:1")))

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "str"])
    def test_rejects_a_bool_or_string_rank_weight(self, bad):
        # from_json refuses both; the constructor read them as 1.0 and 0.5
        with pytest.raises(ValueError, match="rank_terms"):
            KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"), (bad, "cos:1")))

    def test_rejects_empty_lengthscales(self):
        with pytest.raises(ValueError, match="lengthscales must not be empty"):
            KernelSpec(family="gaussian", lengthscales=())

    @pytest.mark.parametrize("family,key,bad", [
        ("gaussian", "nu", math.nan), ("gaussian", "nu", math.inf), ("gaussian", "nu", True),
        ("exponential", "hurst", math.nan), ("gaussian", "hurst", "0.5"),
        ("matern1d", "nu", True), ("matern_tensor", "hurst", -math.inf),
    ])
    def test_rejects_a_given_nu_or_hurst_that_is_not_a_finite_real(self, family, key, bad):
        nu = 2.5 if family.startswith("matern") and key != "nu" else None
        with pytest.raises(ValueError, match=f"{key}: expected finite numbers"):
            KernelSpec(family=family, **{"nu": nu, key: bad})

    @pytest.mark.parametrize("key,val", [
        ("variance", True), ("variance", "1"), ("lengthscales", (True,)), ("lengthscales", ("0.3",)),
    ], ids=["variance-bool", "variance-str", "lengthscales-bool", "lengthscales-str"])
    def test_rejects_a_bool_or_string_variance_or_lengthscale(self, key, val):
        # to_json would write a bool variance that from_json refuses, a string
        # variance raised TypeError, and a bool or string lengthscale read as a float
        with pytest.raises(ValueError, match=key):
            KernelSpec(family="gaussian", **{key: val})

    def test_keeps_a_finite_nu_the_family_ignores(self):
        spec = KernelSpec(family="gaussian", nu=2.5, hurst=0.3)
        assert json.loads(json.dumps(spec.to_json(), allow_nan=False))["nu"] == 2.5

    def test_fbm_requires_hurst_in_unit_interval(self):
        with pytest.raises(ValueError):
            KernelSpec(family="fbm", hurst=1.0)

    def test_fbm_refuses_a_string_hurst(self):
        with pytest.raises(ValueError, match=r"hurst in \(0, 1\)"):
            KernelSpec(family="fbm", hurst="0.5")

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


# EVERY_FAMILY, a second Hurst value and a general nu on one axis
DIAGONAL_SPECS = [
    *(pytest.param(s, id=s.family) for s in EVERY_FAMILY),
    pytest.param(KernelSpec(family="fbm", hurst=0.75, variance=0.6), id="fbm-hurst0.75"),
    pytest.param(KernelSpec(family="matern1d", nu=2.7, lengthscales=(0.35,), variance=0.9),
                 id="matern1d-nu2.7"),
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

    @pytest.mark.parametrize("spec", DIAGONAL_SPECS)
    def test_diag_matches_gram(self, spec):
        # bitwise: allocation reads the prior variances k(x_i, x_i) off the Gram matrix
        for X in (_repeated_design(spec.dim), _distinct_design(spec.dim)):
            diag = np.asarray(kernel_diag(spec, X), dtype=float).tobytes()
            assert np.diag(cross_matrix(spec, X, X)).tobytes() == diag
            assert np.diag(gram_matrix(spec, X)).tobytes() == diag

    def test_diagonal_specs_cover_every_family(self):
        assert {p.values[0].family for p in DIAGONAL_SPECS} == set(kernels.FAMILIES)

    @pytest.mark.parametrize("spec, design", [
        *(pytest.param(s, _repeated_design, id=s.family) for s in EVERY_FAMILY),
        *(pytest.param(s, _distinct_design, id=f"{s.family}-distinct") for s in EVERY_FAMILY),
    ])
    def test_gram_matches_cross(self, spec, design):
        # the condensed-triangle and distinct-coordinate-table paths agree bitwise
        X = design(spec.dim)
        assert np.array_equal(gram_matrix(spec, X), cross_matrix(spec, X, X))


class TestTriangleHelpers:
    """The numpy |dx| and triangle helpers against ``scipy.spatial.distance``."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_pdist_and_squareform(self, dim):
        rng = np.random.default_rng(23)
        for n in [*range(2, 301), kernels._TRIANGLE_CACHE_MAX_N + 1]:
            X = rng.uniform(-2.0, 3.0, size=(n, dim))
            dists = kernels._axis_distances(X)
            for j in range(dim):
                assert np.array_equal(dists[j], pdist(X[:, [j]], "cityblock"))
            K = squareform(dists[0])
            np.fill_diagonal(K, 0.7)
            assert np.array_equal(kernels._symmetric(dists[0], 0.7, n), K)
            M = rng.standard_normal((n, n))
            assert np.array_equal(M.take(kernels._triangle(n).upper), squareform(M, checks=False))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_unit_exponential_equals_cityblock(self, dim):
        # exp(-sum_j |dx_j|): gram_matrix's triangle and cross_matrix's tables
        # against cdist and pdist, bit for bit
        spec = KernelSpec(family="exponential", lengthscales=(1.0,) * dim)
        rng = np.random.default_rng(29)
        X, Y = rng.uniform(size=(40, dim)), rng.uniform(size=(13, dim))
        X[5] = X[3]
        assert np.array_equal(cross_matrix(spec, X, Y), np.exp(-cdist(X, Y, "cityblock")))
        assert np.array_equal(gram_matrix(spec, X), np.exp(-squareform(pdist(X, "cityblock"))))


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

    @pytest.mark.parametrize("layout", ["one-row-x", "one-column-y", "strided", "fortran"])
    def test_point_layouts(self, spec, layout):
        # the gathered tables keep their shape and order whatever the inputs' memory layout
        grid = np.random.default_rng(7).uniform(size=(60, 2))
        X, Y = grid[:20], grid[20:]
        if layout == "one-row-x":
            X = X[:1]
        elif layout == "one-column-y":
            Y = Y[:1]
        elif layout == "strided":
            X, Y = grid[::3], grid[1::3]
        else:
            X, Y = np.asfortranarray(X), np.asfortranarray(Y)
        got = cross_matrix(spec, X, Y)
        assert got.shape == (len(X), len(Y))
        assert np.array_equal(got, _per_pair_stationary(spec, X, Y))

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
        # the u -> 0 limits, held up to the floor for nu >= 1 (below it, for
        # nu < 1, ``TestBelowTheFloor``), and no nu-derivative above the table's top
        held = 3 if nu >= 1 else 1
        assert not S[:held].any() and not D[:held].any() and not D[-3:].any()


class TestBelowTheFloor:
    """For nu < 1 the factor below _MATERN_U_FLOOR differs from 1 by (u/2)^{2 nu}."""

    @pytest.mark.parametrize("nu", [1 / 16, 0.1, 0.25, 0.5])
    def test_matches_the_direct_formula(self, nu):
        u = np.array([1e-12, 0.999e-10])
        F, S, D = _bessel_factor(u, nu, True)
        np.testing.assert_allclose(F, _direct_bessel_factor(u, nu, nu), rtol=0, atol=1e-12)
        # S = -u dF/du, a central difference in log u of the series itself
        h = 1e-4
        fd = -(_bessel_factor(u * math.exp(h), nu) - _bessel_factor(u * math.exp(-h), nu)) / (2 * h)
        np.testing.assert_allclose(S, fd, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(S, _direct_bessel_factor(u, nu, nu - 1) * u, rtol=1e-9, atol=1e-18)
        # D = d log F / d nu at fixed u, against the direct formula
        dn = 1e-5 * nu
        fd = (np.log(_direct_bessel_factor(u, nu + dn, nu + dn))
              - np.log(_direct_bessel_factor(u, nu - dn, nu - dn))) / (2 * dn)
        np.testing.assert_allclose(D, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("nu", [1 / 16, 0.5, 1.0, 2.7071])
    def test_coincident_points_keep_the_limits(self, nu):
        F, S, D = _bessel_factor(np.array([0.0]), nu, True)
        assert (F[0], S[0], D[0]) == (1.0, 0.0, 0.0)


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

    def test_a_failed_panel_is_a_named_error(self, monkeypatch):
        monkeypatch.setattr(kernels, "_nu_panel", lambda k: None)
        with pytest.raises(RuntimeError, match=r"panel nu in \[0.5, 1.0\] failed its check"):
            _nu_coef(0.7)
        with pytest.raises(RuntimeError, match="failed its check"):
            _matern_corr(np.array([0.5]), 16.0, True)


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
