"""BLUP fitting, prediction, integrated and empirical errors."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpbudget
from gpbudget.gp_core import (
    Design,
    ImseOperator,
    ObservationSet,
    Predictor,
    Quadrature,
    SingularCovarianceError,
    UniformBox,
    fit_blup,
    integrated_mse,
    load_observations_csv,
    predict_mean,
    predict_mse,
    save_observations_csv,
)
from gpbudget.kernels import KernelSpec, cross_matrix, gram_matrix

# two-point instance solved by hand: Matern-3/2, l=1, x=(0,1), z=(1,2),
# noise diagonal 0.1, prior mean 0; the 2x2 system gives these values at 0.5
ORACLE_2PT_MEAN = 1.4871326455759695
ORACLE_2PT_MSE = 0.22184529779356033

M32 = KernelSpec(family="matern1d", nu=1.5, lengthscales=(1.0,))


def _two_point_predictor():
    design = Design(np.array([[0.0], [1.0]]))
    obs = ObservationSet([1.0, 2.0], [0.1, 0.1], [1, 1])
    return fit_blup(M32, design, obs)


class TestQuadrature:
    def test_trapezoid_weights(self):
        q = Quadrature.trapezoid(5, 0.0, 1.0)
        assert q.weights.sum() == pytest.approx(1.0)
        assert q.weights[0] == pytest.approx(q.weights[2] / 2)
        assert q.dim == 1 and len(q) == 5

    def test_trapezoid_integrates_linear_exactly(self):
        q = Quadrature.trapezoid(100, 0.0, 2.0)
        assert q.weights @ q.nodes.ravel() == pytest.approx(1.0, rel=1e-12)

    def test_tensor_grid(self):
        q = Quadrature.tensor_trapezoid([3, 4], ((0.0, 1.0), (0.0, 2.0)))
        assert q.nodes.shape == (12, 2)
        assert q.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [[10.5, 3], 10.5, [3, math.nan], [3, math.inf]],
                             ids=["fraction", "scalar-fraction", "nan", "inf"])
    def test_tensor_grid_refuses_fractional_counts(self, m):
        # a fractional count is refused, not truncated to fewer nodes
        with pytest.raises(ValueError, match="whole numbers"):
            Quadrature.tensor_trapezoid(m, ((0.0, 1.0), (0.0, 1.0)))
        assert len(Quadrature.tensor_trapezoid([4.0, 3], ((0.0, 1.0), (0.0, 1.0)))) == 12

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.2, 0.7)])
    @pytest.mark.parametrize("m", [2, 1001, 2001, 4000])
    def test_one_axis_tensor_grid_is_the_trapezoid_rule(self, m, bounds):
        # bit for bit: the one-axis grid is not normalized a second time
        tensor, trap = Quadrature.tensor_trapezoid(m, (bounds,)), Quadrature.trapezoid(m, *bounds)
        assert np.array_equal(tensor.nodes, trap.nodes)
        assert np.array_equal(tensor.weights, trap.weights)

    @pytest.mark.parametrize("m", [[3, 4, 5], []], ids=["three-counts", "no-count"])
    def test_tensor_grid_refuses_a_count_list_of_the_wrong_length(self, m):
        with pytest.raises(ValueError, match="one node count or one per axis"):
            Quadrature.tensor_trapezoid(m, ((0.0, 1.0), (0.0, 1.0)))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Quadrature(np.array([[0.0], [1.0]]), np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            Quadrature(np.array([[0.0], [1.0]]), np.array([0.5, 0.2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Quadrature(np.empty((0, 1)), np.empty(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_nodes(self, bad):
        with pytest.raises(ValueError, match="quadrature nodes must be finite"):
            Quadrature(np.array([[0.1], [bad]]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("nodes", [np.array([[0.0], [1.0]]), np.array([0.0, 1.0])],
                             ids=["2-d", "flat"])
    def test_callers_arrays_stay_writeable_and_unshared(self, nodes):
        w = np.array([0.5, 0.5])
        q = Quadrature(nodes, w)
        for arr in (nodes, w):
            assert arr.flags.writeable
            arr[0] = 0.25
        assert q.nodes.ravel().tolist() == [0.0, 1.0]
        assert q.weights.tolist() == [0.5, 0.5]


class TestDesignAndObservations:
    def test_points_must_lie_in_box(self):
        with pytest.raises(ValueError):
            Design(np.array([[1.5]]), UniformBox(((0.0, 1.0),)))

    def test_obs_validation(self):
        with pytest.raises(ValueError):
            ObservationSet([1.0], [0.1], [0])
        with pytest.raises(ValueError):
            ObservationSet([1.0], [-0.1], [1])
        with pytest.raises(ValueError):
            ObservationSet([1.0, 2.0], [0.1], [1])

    @pytest.mark.parametrize("nv", [math.nan, math.inf, -0.1])
    def test_non_finite_noise_rejected(self, nv):
        with pytest.raises(ValueError, match="noise variances must be finite"):
            ObservationSet([1.0, 2.0], [0.1, nv], [1, 1])

    @pytest.mark.parametrize("s", [2.5, 1.000001, math.nan, math.inf])
    def test_non_integer_replicate_count_rejected(self, s):
        with pytest.raises(ValueError, match="whole numbers"):
            ObservationSet([1.0, 2.0], [0.1, 0.1], [2, s])
        assert ObservationSet([1.0, 2.0], [0.1, 0.1], [2, 3.0]).s.tolist() == [2, 3]

    def test_from_replicates(self):
        obs = ObservationSet.from_replicates([[1.0, 3.0], [2.0, 2.0, 2.0]])
        assert obs.means == pytest.approx([2.0, 2.0])
        assert obs.s.tolist() == [2, 3]
        # sample variance 2 over two replicates, variance of the mean 1
        assert obs.noise_var[0] == pytest.approx(1.0)
        assert obs.noise_var[1] == pytest.approx(0.0)

    def test_from_replicates_single_needs_noise(self):
        with pytest.raises(ValueError):
            ObservationSet.from_replicates([[1.0]])
        obs = ObservationSet.from_replicates([[1.0]], sigma_eps2=[0.2])
        assert obs.sigma_eps2[0] == obs.noise_var[0] == 0.2


class TestFitBlup:
    def test_noiseless_interpolation(self):
        # The stabilizing jitter (1e-10 of the mean diagonal) is the exact
        # floor of the interpolation error at a datum, so allow a whisker
        # above it for float rounding.
        design = Design(np.array([[0.3]]))
        obs = ObservationSet([1.7], [0.0], [1])
        pred = fit_blup(M32, design, obs)
        assert predict_mean(pred, 0.3) == pytest.approx(1.7, rel=1.1e-10)

    def test_noiseless_interpolation_many_points(self):
        # Data consistent with the prior (z = K @ 1) keeps the interpolation
        # weights O(1), so the jitter-induced error stays below 1e-10 relative.
        x = np.linspace(0.0, 1.0, 6)[:, None]
        design = Design(x)
        gram = gram_matrix(M32, x)
        z = gram @ np.ones(len(x))
        obs = ObservationSet(z, np.zeros(len(x)), np.ones(len(x), dtype=int))
        pred = fit_blup(M32, design, obs)
        fitted = predict_mean(pred, x)
        assert np.max(np.abs(fitted - z)) <= 1e-10 * np.max(np.abs(z))

    def test_huge_noise_recovers_prior(self):
        design = Design(np.array([[0.2], [0.8]]))
        obs = ObservationSet([5.0, -3.0], [1e12, 1e12], [1, 1])
        pred = fit_blup(M32, design, obs, mean=0.5)
        assert predict_mean(pred, 0.4) == pytest.approx(0.5, abs=1e-6)
        assert predict_mse(pred, 0.4) == pytest.approx(cross_matrix(M32, 0.4, 0.4)[0, 0], rel=1e-6)

    def test_two_point_oracle(self):
        pred = _two_point_predictor()
        assert predict_mean(pred, 0.5) == pytest.approx(ORACLE_2PT_MEAN, rel=1e-12)
        assert predict_mse(pred, 0.5) == pytest.approx(ORACLE_2PT_MSE, rel=1e-12)

    def test_factor_matches_covariance(self):
        pred = _two_point_predictor()
        K = gram_matrix(M32, pred.design.points) + np.diag(pred.noise)
        recon = pred.chol @ pred.chol.T
        assert np.linalg.norm(recon - K) <= 1e-8 * np.linalg.norm(K)

    def test_homoscedastic_equivalence(self):
        design = Design(np.array([[0.1], [0.5], [0.9]]))
        tau, n = 0.02, 3
        a = fit_blup(M32, design, ObservationSet([1.0, 2.0, 0.5], np.full(3, n * tau), [1, 1, 1]))
        b = fit_blup(M32, design, ObservationSet([1.0, 2.0, 0.5], [n * tau] * 3, [1, 1, 1]))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.chol, b.chol)

    def test_indefinite_matrix_fails_with_named_minor(self):
        from gpbudget.gp_core import _factor_with_jitter

        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(SingularCovarianceError) as err:
            _factor_with_jitter(bad, np.zeros(2))
        assert err.value.minor == 2
        assert "minor of order 2" in str(err.value)

    @pytest.mark.parametrize("bad, minor", [
        (np.ones((4, 4)) - 0.5 * np.eye(4), 2),
        (np.diag([1.0, 2.0, -1.0, 3.0]), 3),
    ])
    def test_named_minor_is_the_lapack_info_code(self, bad, minor):
        from scipy.linalg.lapack import dpotrf

        from gpbudget.gp_core import _factor_with_jitter

        noise = np.full(4, 0.1)
        with pytest.raises(SingularCovarianceError) as err:
            _factor_with_jitter(bad, noise)
        assert err.value.minor == dpotrf(bad + np.diag(noise))[1] == minor

    def test_non_finite_matrix_rejected(self):
        from gpbudget.gp_core import _factor_with_jitter

        with pytest.raises(ValueError, match="infs or NaNs"):
            _factor_with_jitter(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.full(2, 0.1))

    def test_jitter_applied_only_when_noise_floor_is_zero(self):
        design = Design(np.array([[0.2], [0.8]]))
        noisy = fit_blup(M32, design, ObservationSet([1.0, 2.0], [0.1, 0.1], [1, 1]))
        clean = fit_blup(M32, design, ObservationSet([1.0, 2.0], [0.0, 0.0], [1, 1]))
        assert noisy.jitter == 0.0
        assert clean.jitter > 0.0

    def test_mismatched_lengths(self):
        design = Design(np.array([[0.1], [0.2]]))
        with pytest.raises(ValueError):
            fit_blup(M32, design, ObservationSet([1.0], [0.1], [1]))


class TestPredict:
    def test_batch_and_scalar_agree(self):
        pred = _two_point_predictor()
        xs = np.array([0.1, 0.5, 0.9])
        batch_mean = predict_mean(pred, xs)
        batch_mse = predict_mse(pred, xs)
        for i, x in enumerate(xs):
            assert batch_mean[i] == pytest.approx(predict_mean(pred, float(x)))
            assert batch_mse[i] == pytest.approx(predict_mse(pred, float(x)))

    def test_mse_zero_at_noiseless_point(self):
        # The posterior variance at a noiseless datum bottoms out at the
        # stabilizing jitter, 1e-10 of the mean diagonal; 1% slack covers
        # the cancellation round-off in k(x,x) - quadratic form.
        design = Design(np.array([[0.25], [0.75]]))
        obs = ObservationSet([1.0, -1.0], [0.0, 0.0], [1, 1])
        pred = fit_blup(M32, design, obs)
        assert predict_mse(pred, 0.25) <= 1.01e-10 * cross_matrix(M32, 0.25, 0.25)[0, 0]

    def test_dimension_mismatch(self):
        spec2 = KernelSpec(family="gaussian", lengthscales=(1.0, 1.0))
        design2 = Design(np.array([[0.1, 0.2]]), UniformBox(((0, 1), (0, 1))))
        pred2 = fit_blup(spec2, design2, ObservationSet([1.0], [0.1], [1]))
        with pytest.raises(ValueError):
            predict_mean(pred2, [0.1, 0.2, 0.3])

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_mse_between_zero_and_prior(self, seed, x):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 8)
        design = Design(rng.uniform(size=(n, 1)))
        obs = ObservationSet(rng.normal(size=n), rng.uniform(0.001, 0.5, n), np.ones(n, int))
        pred = fit_blup(M32, design, obs)
        v = predict_mse(pred, x)
        assert 0.0 <= v <= cross_matrix(M32, x, x)[0, 0] * (1 + 1e-9)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_mse_decreases_with_more_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        pts = rng.uniform(size=(n, 1))
        noise = rng.uniform(0.001, 0.5, n)
        z = rng.normal(size=n)
        small = fit_blup(M32, Design(pts[:-1]), ObservationSet(z[:-1], noise[:-1], np.ones(n - 1, int)))
        full = fit_blup(M32, Design(pts), ObservationSet(z, noise, np.ones(n, int)))
        xs = rng.uniform(size=12)
        assert np.all(predict_mse(full, xs) <= predict_mse(small, xs) + 1e-9)


class TestIntegratedMse:
    def test_prior_state_gives_trace(self):
        design = Design(np.array([[0.5]]))
        obs = ObservationSet([0.0], [1e12], [1])
        pred = fit_blup(M32, design, obs)
        q = Quadrature.trapezoid(200, 0.0, 1.0)
        assert integrated_mse(pred, q) == pytest.approx(1.0, rel=1e-6)

    def test_constant_mse_integrates_to_itself(self):
        spec = KernelSpec(family="finite_rank", rank_terms=((1.0, "cos:0"),))
        design = Design(np.array([[0.5]]))
        obs = ObservationSet([1.0], [0.25], [1])
        pred = fit_blup(spec, design, obs)
        q = Quadrature.trapezoid(50, 0.0, 1.0)
        # sigma^2(x) = 1 - 1/(1 + 0.25) = 0.2 everywhere
        assert integrated_mse(pred, q) == pytest.approx(0.2, rel=1e-9)

    def test_dimension_check(self):
        pred = _two_point_predictor()
        q = Quadrature.tensor_trapezoid([5, 5], ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            integrated_mse(pred, q)

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_operator_rejects_bad_noise(self, bad):
        op = ImseOperator(M32, [[0.1], [0.5], [0.9]], Quadrature.trapezoid(50))
        with pytest.raises(ValueError, match="noise variances must be finite"):
            op.imse([bad, 0.1, 0.1])


class TestCsvRoundTrip:
    def test_averaged_layout(self, tmp_path):
        pts = np.array([[0.1, 0.2], [0.6, 0.9]])
        obs = ObservationSet([1.5, -0.5], [0.01, 0.02], [4, 8])
        path = tmp_path / "obs.csv"
        save_observations_csv(path, pts, obs)
        pts2, obs2 = load_observations_csv(path)
        assert np.allclose(pts2, pts)
        assert np.allclose(obs2.means, obs.means)
        assert np.allclose(obs2.noise_var, obs.noise_var)
        assert obs2.s.tolist() == [4, 8]

    def test_averaged_layout_is_exact(self, tmp_path):
        # 17 significant digits read back to the same doubles, s as ints, so
        # the variance of each mean is the same double too, for every s
        n = 999
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, (n, 3))
        means = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        sigma_eps2 = rng.uniform(0.0, 1.0, n) / 3.0
        obs = ObservationSet(means, sigma_eps2, np.arange(1, n + 1))
        path = tmp_path / "obs.csv"
        save_observations_csv(path, pts, obs)
        pts2, obs2 = load_observations_csv(path)
        assert np.array_equal(pts2, pts)
        assert np.array_equal(obs2.means, obs.means)
        assert obs2.s.dtype.kind == "i" and np.array_equal(obs2.s, obs.s)
        with open(path, newline="") as fh:
            column = [row["sigma_eps2"] for row in csv.DictReader(fh)]
        assert np.array(column, dtype=float).tobytes() == sigma_eps2.tobytes()
        assert obs2.sigma_eps2.tobytes() == sigma_eps2.tobytes()
        assert obs2.noise_var.tobytes() == obs.noise_var.tobytes()

    def test_replicate_layout(self, tmp_path):
        path = tmp_path / "reps.csv"
        path.write_text("x_1,z_1,z_2\n0.25,1.0,3.0\n0.75,2.0,2.0\n")
        pts, obs = load_observations_csv(path)
        assert pts.ravel().tolist() == [0.25, 0.75]
        assert obs.means.tolist() == [2.0, 2.0]
        assert obs.noise_var[0] == pytest.approx(1.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_observations_csv(path)

    @pytest.mark.parametrize("se2", ["nan", "inf", "-0.01"])
    def test_bad_sigma_eps2_rejected(self, tmp_path, se2):
        path = tmp_path / "obs.csv"
        path.write_text(f"x_1,z,s,sigma_eps2\n0.2,1.0,2,0.01\n0.5,1.5,2,{se2}\n")
        with pytest.raises(ValueError, match="sigma_eps2 must be finite"):
            load_observations_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_observations_csv(path)


def test_file_formats_live_only_in_gp_core():
    # every CSV and JSON file is written by gp_core._write_csv/_write_json
    owners = {}
    for path in sorted(Path(gpbudget.__file__).parent.glob("*.py")):
        text = path.read_text()
        for token in ("csv.writer", "json.dump(", "_FLOAT_FMT"):
            if token in text:
                owners.setdefault(token, []).append(path.name)
    assert owners == {t: ["gp_core.py"] for t in ("csv.writer", "json.dump(", "_FLOAT_FMT")}
