"""Hyperparameter fitting and budget forecasting.

Frozen formula oracles, evaluated independently with plain math:
with imse_T0 = 1.0e-3 at T0 = 100, mean noise 3.3e-3, and the decay law
tau^(1-1/(2*1.31)) * log(1/tau) (exponent 0.6183206106870229, one log
factor), the predicted IMSE at T = 3600 is 1.4694741061852922e-4 and
the smallest integer budget reaching 2e-4 is T = 2045.

The recovery check at the bottom simulates data from known parameters
(nu, theta, sigma2) = (1.31, (0.67, 0.45), 0.24) on [0,3]^2 with n=200
and mean 0.65, then requires the fitted nu to land within +-0.3 in at
least 8 of 10 seeds and the fitted likelihood to match or beat the
truth's in every seed.  It is by far the slowest test in the suite
(several hundred optimizer runs per seed).
"""

import hashlib
import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import pdist, squareform
from scipy.special import gamma, kv

from gpbudget import kernels, planner
from gpbudget.gp_core import Design, ObservationSet, UniformBox
from gpbudget.kernels import KernelSpec, cross_matrix, gram_matrix
from gpbudget.learning_curve import rate_law
from gpbudget.planner import (
    BudgetForecast,
    HyperparameterFit,
    LikelihoodFitError,
    _axis_distances,
    _log_likelihood,
    concentrated_log_likelihood,
    default_bounds,
    estimate_noise,
    fit_hyperparameters,
    imse_decay,
    required_budget,
)
from gpbudget.sim_harness import latin_hypercube_design

BENCH_RATE = rate_law("matern_tensor", nu=1.31, d=2)
DECAY_AT_3600 = 1.4694741061852922e-4
SOLVED_T_FOR_2E4 = 2045


def _line_design(n):
    return Design(np.linspace(0.05, 0.95, n)[:, None], UniformBox(((0.0, 1.0),)))


class TestEstimateNoise:
    def test_replicate_sample_variance(self):
        reps = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 8.0])]
        obs = ObservationSet.from_replicates(reps)
        per_point, bar = estimate_noise(obs)
        assert per_point[0] == pytest.approx(1.0)   # var([1,2,3], ddof=1)
        assert per_point[1] == pytest.approx(8.0)   # var([4,8], ddof=1)
        assert bar == pytest.approx(4.5)

    def test_external_variances_read_as_given(self):
        # the run variances come back as given, whatever s, in a copy
        obs = ObservationSet(means=[0.0, 0.0], sigma_eps2=[0.04, 0.1], s=[4, 5])
        per_point, bar = estimate_noise(obs)
        assert per_point.tolist() == [0.04, 0.1]
        assert per_point.flags.writeable and not np.shares_memory(per_point, obs.sigma_eps2)
        assert bar == pytest.approx(0.07)


class TestConcentratedLikelihood:
    def test_matches_dense_inverse_oracle(self):
        design = _line_design(5)
        rng = np.random.default_rng(3)
        z = rng.normal(0.5, 1.0, 5)
        params = np.array([0.9, 0.3, 0.5])
        noise, m = 0.05, 0.5
        val = concentrated_log_likelihood(params, design, z, m, noise)

        spec = KernelSpec(family="matern1d", nu=0.9, lengthscales=(0.3,))
        C = 0.5 * gram_matrix(spec, design.points) + noise * np.eye(5)
        r = z - m
        oracle = -0.5 * r @ np.linalg.inv(C) @ r - 0.5 * np.linalg.slogdet(C)[1]
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_zero_signal_closed_form(self):
        design = _line_design(4)
        z = np.array([1.0, 2.0, 0.5, 1.5])
        m, noise = 1.0, 0.2
        val = concentrated_log_likelihood(np.array([1.5, 0.3, 0.0]), design, z, m, noise)
        r = z - m
        want = -0.5 * r @ r / noise - 0.5 * 4 * math.log(noise)
        assert val == pytest.approx(want, rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, 12)[:, None]
        z = rng.normal(0, 1, 12)
        params = np.array([1.2, 0.25, 0.4])
        box = UniformBox(((0.0, 1.0),))
        base = concentrated_log_likelihood(params, Design(pts, box), z, 0.0, 0.05)
        perm = rng.permutation(12)
        shuffled = concentrated_log_likelihood(
            params, Design(pts[perm], box), z[perm], 0.0, 0.05
        )
        assert shuffled == pytest.approx(base, rel=1e-10)

    def test_parameter_count_checked(self):
        design = _line_design(3)
        with pytest.raises(ValueError, match="lengthscales"):
            concentrated_log_likelihood(np.array([1.0, 0.3]), design, np.zeros(3), 0.0, 0.1)

    def test_negative_variance_rejected(self):
        design = _line_design(3)
        with pytest.raises(ValueError, match="variances"):
            concentrated_log_likelihood(np.array([1.0, 0.3, -0.1]), design, np.zeros(3), 0.0, 0.1)

    @pytest.mark.parametrize("params", [(0.0, 0.3, 0.2), (1.0, -0.3, 0.2)])
    def test_nonpositive_nu_or_lengthscale_rejected(self, params):
        design = _line_design(3)
        with pytest.raises(ValueError, match="> 0"):
            concentrated_log_likelihood(np.array(params), design, np.zeros(3), 0.0, 0.1)

    def test_values_length_checked(self):
        design = _line_design(3)
        with pytest.raises(ValueError, match="match"):
            concentrated_log_likelihood(np.array([1.0, 0.3, 0.2]), design, np.zeros(4), 0.0, 0.1)


def _dense_bessel_loglik(params, points, z, m, noise):
    """Concentrated log-likelihood from a Matern correlation written out with scipy's kv."""
    nu, theta, sigma2 = params[0], params[1:-1], params[-1]
    n = len(points)
    corr = np.ones((n, n))
    for j, t in enumerate(theta):
        u = math.sqrt(2 * nu) * np.abs(points[:, j][:, None] - points[:, j][None, :]) / t
        with np.errstate(divide="ignore", invalid="ignore"):
            f = 2 ** (1 - nu) / gamma(nu) * u**nu * kv(nu, u)
        corr *= np.where(u == 0, 1.0, f)
    C = sigma2 * corr + noise * np.eye(n)
    r = z - m
    return -0.5 * r @ np.linalg.solve(C, r) - 0.5 * np.linalg.slogdet(C)[1]


def test_likelihood_matches_dense_bessel_reference():
    # the tabulated Bessel factor against kv at every entry, over the search box
    design = latin_hypercube_design(30, 2, np.random.SeedSequence(21))
    rng = np.random.default_rng(22)
    z = rng.normal(0.2, 0.5, 30)
    lo, hi = np.array(default_bounds(2)).T
    for p in rng.uniform(lo, hi, size=(300, 4)):
        got = concentrated_log_likelihood(p, design, z, 0.2, 3e-3)
        want = _dense_bessel_loglik(p, design.points, z, 0.2, 3e-3)
        assert got == pytest.approx(want, rel=1e-10)


def _squareform_log_likelihood(params, points, resid, noise):
    """(value, gradient) as ``_log_likelihood`` built them from ``pdist`` and
    ``squareform``, frozen as the bitwise reference of the numpy triangle."""
    nu, theta, sigma2 = float(params[0]), params[1:-1], float(params[-1])
    n = len(resid)
    axes = [kernels._matern_corr(pdist(points[:, [j]], "cityblock") / float(t), nu, True)
            for j, t in enumerate(theta)]
    factors = [rho for rho, _, _ in axes]
    corr = reduce(np.multiply, factors)
    C = sigma2 * (squareform(corr) + np.eye(n)) + noise * np.eye(n)
    c, low = cho_factor(C, lower=True)
    alpha = cho_solve((c, low), resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    value = float(-0.5 * np.dot(resid, alpha) - 0.5 * logdet)
    W = np.outer(alpha, alpha) - cho_solve((c, low), np.eye(n))
    w = squareform(W, checks=False)
    dcorr_dnu, grad_theta = 0.0, []
    for j, ((rho, S, D), t) in enumerate(zip(axes, theta)):
        others = reduce(np.multiply, [f for k, f in enumerate(factors) if k != j], 1.0)
        slope = S / float(t)
        grad_theta.append(sigma2 * float(np.dot(w, slope * others)))
        dcorr_dnu = dcorr_dnu + (rho * D - slope * (float(t) / (2 * nu))) * others
    grad = [sigma2 * float(np.dot(w, dcorr_dnu)), *grad_theta,
            0.5 * float(np.trace(W)) + float(np.dot(w, corr))]
    return value, np.array(grad)


def test_likelihood_equals_the_squareform_build():
    # 300 values and gradients at the case study's design (seed 1), bit for bit
    design = latin_hypercube_design(100, 2, np.random.SeedSequence(1).spawn(6)[0])
    rng = np.random.default_rng(2024)
    resid = rng.standard_normal(100)
    dists = _axis_distances(design.points)
    got, want = hashlib.sha256(), hashlib.sha256()
    for p in rng.uniform(*np.array(default_bounds(2)).T, size=(300, 4)):
        value, grad = _log_likelihood(p, dists, resid, 3.3e-4, True)
        got.update(np.array([value, _log_likelihood(p, dists, resid, 3.3e-4), *grad]).tobytes())
        value, grad = _squareform_log_likelihood(p, design.points, resid, 3.3e-4)
        want.update(np.array([value, value, *grad]).tobytes())
    assert got.hexdigest() == want.hexdigest()


class TestLikelihoodGradient:
    """The polish gradient against a central difference of the public value."""

    NOISE, MEAN = 3e-3, 0.1

    @pytest.fixture(scope="class")
    def data(self):
        design = latin_hypercube_design(40, 2, np.random.SeedSequence(7))
        z = np.random.default_rng(5).normal(0.1, 0.5, 40)
        return design, z

    @pytest.mark.parametrize("params", [
        (1.31, 0.3, 0.5, 0.4),   # general nu
        (0.5, 0.2, 0.7, 0.3),    # nu at the lower bound
        (3.0, 0.4, 0.1, 0.6),    # nu at the upper bound
        (2.2, 0.01, 0.02, 0.5),  # lengthscales at the floor of the box
        (2.7071, 0.36, 0.56, 0.205),  # general nu
        (2.5, 0.3, 0.4, 0.5),    # closed form at nu, the table at nu +- h
    ])
    def test_matches_central_difference(self, data, params):
        design, z = data
        p = np.array(params)
        value, grad = _log_likelihood(
            p, _axis_distances(design.points), z - self.MEAN, self.NOISE, True
        )
        assert value == concentrated_log_likelihood(p, design, z, self.MEAN, self.NOISE)
        fd = []
        for k in range(len(p)):
            step = np.zeros(len(p))
            step[k] = 1e-5 * p[k]
            up, down = (concentrated_log_likelihood(p + sgn * step, design, z, self.MEAN,
                                                    self.NOISE) for sgn in (1, -1))
            fd.append((up - down) / (2 * step[k]))
        np.testing.assert_allclose(grad, fd, rtol=1e-5)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 1.5, 2.5],
                             ids=["edge-0.5", "edge-1", "edge-2", "closed-1.5", "closed-2.5"])
    def test_nu_entry_at_panel_edges_and_closed_forms(self, data, nu):
        # the analytic nu entry against a central difference of the public value,
        # at the edges of the nu panels and at the closed-form nu
        design, z = data
        p = np.array([nu, 0.3, 0.5, 0.4])
        _, grad = _log_likelihood(p, _axis_distances(design.points), z - self.MEAN, self.NOISE, True)
        h = 1e-5 * nu
        up, down = (concentrated_log_likelihood([nu + sgn * h, *p[1:]], design, z, self.MEAN,
                                                self.NOISE) for sgn in (1, -1))
        assert grad[0] == pytest.approx((up - down) / (2 * h), rel=1e-5)

    def test_raw_scoring_calls_no_kv_once_its_panels_exist(self, data, monkeypatch):
        design, z = data
        starts = np.random.default_rng(14).uniform(*np.array(default_bounds(2)).T, size=(40, 4))
        for p in starts:  # builds the nu panels the starts need
            concentrated_log_likelihood(p, design, z, self.MEAN, self.NOISE)
        calls = []

        def counting(*args):
            calls.append(None)
            return kernels.kv(*args)

        monkeypatch.setattr(kernels, "kv", counting)
        for p in starts:
            concentrated_log_likelihood(p, design, z, self.MEAN, self.NOISE)
        assert calls == []

    def test_gradient_calls_no_kv_once_its_panels_exist(self, data, monkeypatch):
        # the lengthscale entries read the slope from nu's own table, so a
        # polish step at a new nu builds nothing once that nu's panel exists
        design, z = data
        dists, resid = _axis_distances(design.points), z - self.MEAN
        starts = np.random.default_rng(15).uniform(*np.array(default_bounds(2)).T, size=(40, 4))
        for p in starts:  # builds the nu panels the starts need
            _log_likelihood(p, dists, resid, self.NOISE, True)
        calls = []

        def counting(*args):
            calls.append(None)
            return kernels.kv(*args)

        monkeypatch.setattr(kernels, "kv", counting)
        for p in starts:
            _log_likelihood(p, dists, resid, self.NOISE, True)
        assert calls == []

    def test_gradient_locates_each_axis_once(self, data, monkeypatch):
        # each axis reads its value, slope and nu-derivative from one located pass
        design, z = data
        dists, resid = _axis_distances(design.points), z - self.MEAN
        p = np.array([1.31, 0.3, 0.5, 0.4])
        counts = {"_cheb_locate": 0, "_clenshaw": 0}
        for name in counts:
            def counting(*args, name=name, f=getattr(kernels, name)):
                counts[name] += 1
                return f(*args)

            monkeypatch.setattr(kernels, name, counting)
        _log_likelihood(p, dists, resid, self.NOISE, True)
        assert counts == {"_cheb_locate": 2, "_clenshaw": 2}
        counts.update(dict.fromkeys(counts, 0))
        _log_likelihood(p, dists, resid, self.NOISE)
        assert counts == {"_cheb_locate": 2, "_clenshaw": 2}

    def test_polish_value_is_the_public_value(self, data):
        design, z = data
        pairs = _axis_distances(design.points)
        rng = np.random.default_rng(12)
        lo, hi = np.array(default_bounds(2)).T
        for p in rng.uniform(lo, hi, size=(20, 4)):
            polished, _ = _log_likelihood(p, pairs, z - self.MEAN, self.NOISE, True)
            assert polished == concentrated_log_likelihood(p, design, z, self.MEAN, self.NOISE)

    def test_value_is_the_gram_matrix_likelihood(self, data):
        # the likelihood's correlation matrix is bitwise the public Gram matrix's
        design, z = data
        r = z - self.MEAN
        rng = np.random.default_rng(13)
        lo, hi = np.array(default_bounds(2)).T
        for p in rng.uniform(lo, hi, size=(30, 4)):
            spec = KernelSpec(family="matern_tensor", nu=p[0], lengthscales=tuple(p[1:3]),
                              variance=p[3])
            C = gram_matrix(spec, design.points) + self.NOISE * np.eye(len(z))
            c, low = cho_factor(C, lower=True)
            alpha = cho_solve((c, low), r)
            logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
            want = float(-0.5 * np.dot(r, alpha) - 0.5 * logdet)
            assert concentrated_log_likelihood(p, design, z, self.MEAN, self.NOISE) == want


class TestFitHyperparameters:
    def _data(self, n=15, seed=4):
        design = _line_design(n)
        spec = KernelSpec(family="matern1d", nu=1.5, lengthscales=(0.2,), variance=0.5)
        K = gram_matrix(spec, design.points)
        L = np.linalg.cholesky(K + 0.02 * np.eye(n))
        z = 0.3 + L @ np.random.default_rng(seed).standard_normal(n)
        return design, z

    def test_same_seed_same_fit(self):
        design, z = self._data()
        kw = dict(noise=0.02, seed=123, n_random=25, n_polish=3)
        fit1 = fit_hyperparameters(design, z, **kw)
        fit2 = fit_hyperparameters(design, z, **kw)
        assert fit1 == fit2

    def test_flat_data_drives_variance_to_lower_bound(self):
        design = _line_design(10)
        z = np.full(10, 0.7)
        fit = fit_hyperparameters(design, z, noise=0.1, seed=5, n_random=1, n_polish=1)
        assert fit.sigma2 == pytest.approx(0.01, abs=1e-6)
        assert fit.mean == pytest.approx(0.7)

    def test_result_respects_bounds(self):
        design, z = self._data()
        bounds = [(0.7, 1.1), (0.05, 0.3), (0.1, 0.6)]
        fit = fit_hyperparameters(
            design, z, noise=0.02, seed=9, bounds=bounds, n_random=20, n_polish=2
        )
        for val, (lo, hi) in zip((fit.nu, *fit.theta, fit.sigma2), bounds):
            assert lo <= val <= hi

    def test_default_bounds_shape(self):
        assert default_bounds(2) == [(0.5, 3.0), (0.01, 2.0), (0.01, 2.0), (0.01, 1.0)]

    def test_bad_bounds_rejected(self):
        design, z = self._data(n=8)
        with pytest.raises(ValueError, match="bounds"):
            fit_hyperparameters(design, z, noise=0.02, seed=1, bounds=[(0.5, 3.0)])

    @pytest.mark.parametrize("nu_bounds", [(0.05, 3.0), (0.5, 16.5)], ids=["below", "above"])
    def test_nu_bounds_outside_the_tables_rejected(self, nu_bounds):
        design, z = self._data(n=8)
        bounds = [nu_bounds, (0.05, 0.3), (0.1, 0.6)]
        with pytest.raises(ValueError, match=r"nu bounds .* must lie within \[0.0625, 16"):
            fit_hyperparameters(design, z, noise=0.02, seed=1, bounds=bounds,
                                n_random=5, n_polish=1)

    def test_counts_validated(self):
        design, z = self._data(n=8)
        with pytest.raises(ValueError, match="n_random"):
            fit_hyperparameters(design, z, noise=0.02, seed=1, n_random=0, n_polish=1)

    def test_counters_report_the_search(self):
        design, z = self._data()
        fit = fit_hyperparameters(design, z, noise=0.02, seed=123, n_random=25, n_polish=3)
        assert fit.n_evals > 25 and fit.n_failed_evals == 0
        assert fit.n_polish_iters >= 1

    def test_one_factorization_per_evaluation(self, monkeypatch):
        # the polish gradient, nu entry included, reuses the value's factorization
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(planner, "cho_factor", counting)
        design, z = self._data()
        fit = fit_hyperparameters(design, z, noise=0.02, seed=123, n_random=25, n_polish=3)
        assert fit.n_polish_iters >= 1
        assert len(calls) == fit.n_evals

    def test_no_finite_start_raises(self):
        # three copies of one point with no noise: sigma2 * ones(3, 3) is singular
        design = Design(np.full((3, 1), 0.5), UniformBox(((0.0, 1.0),)))
        with pytest.raises(LikelihoodFitError, match="any of the 5 starts"):
            fit_hyperparameters(design, [1.0, 1.2, 0.9], noise=0.0, seed=1,
                                n_random=5, n_polish=2)

    def test_invalid_bounds_raise_instead_of_scoring_inf(self):
        design, z = self._data(n=8)
        bounds = [(0.5, 3.0), (0.05, 0.3), (-0.1, 0.6)]
        with pytest.raises(ValueError, match="variances"):
            fit_hyperparameters(design, z, noise=0.02, seed=1, bounds=bounds,
                                n_random=5, n_polish=1)

    def test_at_bound_names_a_nu_on_the_box_edge(self):
        # the data favour a smoother field than the box allows
        design, z = self._data()
        bounds = [(0.5, 0.6), (0.05, 0.3), (0.1, 0.6)]
        fit = fit_hyperparameters(
            design, z, noise=0.02, seed=9, bounds=bounds, n_random=20, n_polish=2
        )
        assert fit.nu == 0.6
        assert fit.at_bound == ("nu",)

    def test_explicit_mean_is_kept(self):
        design, z = self._data(n=10)
        fit = fit_hyperparameters(
            design, z, noise=0.02, seed=2, n_random=5, n_polish=1, mean=0.65
        )
        assert fit.mean == 0.65
        assert isinstance(fit, HyperparameterFit)


class TestImseDecay:
    def test_identity_at_t0(self):
        assert imse_decay(1e-3, 100, 3.3e-3, BENCH_RATE, 100) == 1e-3

    def test_pure_monte_carlo_ratio(self):
        mc = rate_law("degenerate")
        assert imse_decay(2e-3, 50, 0.1, mc, 200) == pytest.approx(5e-4, rel=1e-12)

    def test_frozen_formula_value_at_3600(self):
        val = imse_decay(1e-3, 100, 3.3e-3, BENCH_RATE, 3600)
        assert val == pytest.approx(DECAY_AT_3600, rel=1e-12)

    def test_t_below_t0_rejected(self):
        with pytest.raises(ValueError, match="T0"):
            imse_decay(1e-3, 100, 3.3e-3, BENCH_RATE, 99)

    def test_nonmonotone_region_advises_larger_t0(self):
        # T0 / sigma_eps2_bar = 2 sits below e^(q/a) where the law still rises
        with pytest.raises(ValueError, match="T0"):
            imse_decay(1e-3, 2, 1.0, BENCH_RATE, 10)


class TestRequiredBudget:
    def test_boundary_target(self):
        f = required_budget(1e-3, 100, 3.3e-3, BENCH_RATE, 1e-3 * (1 - 1e-9))
        assert f.solved_T in (100, 101)

    def test_monte_carlo_quadruples(self):
        mc = rate_law("degenerate")
        f = required_budget(1e-3, 100, 0.1, mc, 2.5e-4)
        assert f.solved_T == 400

    def test_benchmark_inputs_frozen_solution(self):
        f = required_budget(1e-3, 100, 3.3e-3, BENCH_RATE, 2e-4, n=100)
        assert f.solved_T == SOLVED_T_FOR_2E4
        assert f.s_per_point == 21
        # minimality of the integer solution
        assert imse_decay(1e-3, 100, 3.3e-3, BENCH_RATE, f.solved_T) <= 2e-4
        assert imse_decay(1e-3, 100, 3.3e-3, BENCH_RATE, f.solved_T - 1) > 2e-4

    def test_curve_spans_t0_to_solution_and_decreases(self):
        f = required_budget(1e-3, 100, 3.3e-3, BENCH_RATE, 2e-4)
        ts = [t for t, _ in f.curve]
        vals = [v for _, v in f.curve]
        assert ts[0] == 100 and ts[-1] == f.solved_T
        assert vals[0] == pytest.approx(1e-3)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert isinstance(f, BudgetForecast)

    def test_unreachable_target_named_in_error(self):
        with pytest.raises(ValueError, match="target_imse"):
            required_budget(1e-3, 100, 3.3e-3, BENCH_RATE, 2e-3)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            required_budget(1e-3, 100, 3.3e-3, BENCH_RATE, 0.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_design_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            required_budget(1e-3, 100, 3.3e-3, BENCH_RATE, 2e-4, n=n)


class TestRecoveryFromSimulatedData:
    @pytest.mark.slow
    def test_recovers_known_parameters_across_seeds(self):
        true = (1.31, 0.67, 0.45, 0.24)
        noise, m, n = 3.3e-3, 0.65, 200
        box = UniformBox(((0.0, 3.0), (0.0, 3.0)))
        spec = KernelSpec(
            family="matern_tensor", nu=true[0], lengthscales=true[1:3], variance=true[3]
        )
        hits = 0
        for seed in range(10):
            ss = np.random.SeedSequence([99, seed]).spawn(3)
            design = latin_hypercube_design(n, 2, ss[0], box)
            C = gram_matrix(spec, design.points) + noise * np.eye(n)
            L = np.linalg.cholesky(C)
            z = m + L @ np.random.default_rng(ss[1]).standard_normal(n)
            fit = fit_hyperparameters(
                design,
                z,
                noise=noise,
                seed=int(ss[2].generate_state(1)[0]),
                n_random=400,
                n_polish=8,
            )
            ll_true = concentrated_log_likelihood(
                np.array(true), design, z, fit.mean, noise
            )
            assert fit.loglik >= ll_true - 1e-6
            hits += abs(fit.nu - true[0]) <= 0.3
        assert hits >= 8
