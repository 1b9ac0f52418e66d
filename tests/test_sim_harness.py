"""Synthetic simulator, replicate sampling and the experiment drivers.

The variance-concentration tolerance used below comes from the
chi-square law: the sample variance of s i.i.d. Gaussian draws with
variance v has standard deviation v * sqrt(2 / (s - 1)), so at
s = 1000 a single point's estimate misses v by more than
3 * sqrt(2/999) * v only with probability about 0.003, and an average
over several points is tighter still.

Driver tests run shrunk configurations (small n, few designs, coarse
grids) so this module stays quick; the full-size defaults are covered
by the acceptance suite.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc, spearmanr

from gpbudget.gp_core import (
    Design,
    ObservationSet,
    Quadrature,
    UniformBox,
    fit_blup,
    predict_mean,
)
from gpbudget.kernels import KernelSpec
from gpbudget.planner import estimate_noise
from gpbudget import sim_harness
from gpbudget.sim_harness import (
    CASE_STUDY_DEFAULTS,
    FIGURE1_DEFAULTS,
    SyntheticSimulator,
    _merge_config,
    latin_hypercube_design,
    run_case_study,
    run_figure1,
    run_figure2,
    sample_observations,
)


def _line_design(x):
    x = np.asarray(x, dtype=float)
    return Design(x.reshape(-1, 1), UniformBox(((0.0, 1.0),)))


def _square_design(pts):
    return Design(np.asarray(pts, dtype=float), UniformBox(((0.0, 1.0), (0.0, 1.0))))


class TestSimulatorValidation:
    def test_unknown_truth_rejected(self):
        with pytest.raises(ValueError, match="truth"):
            SyntheticSimulator(truth="quartic")

    def test_unknown_noise_field_rejected(self):
        with pytest.raises(ValueError, match="noise field"):
            SyntheticSimulator(noise_field="spiky")

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ValueError, match="noise_level"):
            SyntheticSimulator(noise_level=-1e-3)

    def test_contrast_below_one_rejected(self):
        with pytest.raises(ValueError, match="noise_contrast"):
            SyntheticSimulator(noise_contrast=0.5)

    def test_dimension_follows_truth_id(self):
        assert SyntheticSimulator(truth="sine1d").dim == 1
        assert SyntheticSimulator(truth="smooth2d").dim == 2
        assert SyntheticSimulator(truth="smooth2d_kl").dim == 2


class TestTruthSurfaces:
    def test_sine1d_closed_form(self):
        sim = SyntheticSimulator(truth="sine1d")
        t = np.linspace(0.0, 1.0, 17)
        expected = 0.65 + 0.4 * np.sin(2 * math.pi * t)
        assert np.allclose(sim.truth_values(t), expected, atol=1e-14)

    def test_smooth2d_closed_form(self):
        sim = SyntheticSimulator(truth="smooth2d")
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(20, 2))
        expected = (
            0.65
            + 0.3 * np.sin(2 * math.pi * X[:, 0]) * np.cos(math.pi * X[:, 1])
            + 0.2 * (X[:, 1] - 0.5)
        )
        assert np.allclose(sim.truth_values(X), expected, atol=1e-14)

    def test_smooth2d_ignores_seed(self):
        X = np.random.default_rng(0).uniform(size=(10, 2))
        a = SyntheticSimulator(truth="smooth2d", seed=1).truth_values(X)
        b = SyntheticSimulator(truth="smooth2d", seed=2).truth_values(X)
        assert np.array_equal(a, b)

    def test_kl_surface_deterministic_per_seed(self):
        # fresh instances so no per-object cache can be shared
        X = np.random.default_rng(1).uniform(size=(15, 2))
        a = SyntheticSimulator(truth="smooth2d_kl", seed=42).truth_values(X)
        b = SyntheticSimulator(truth="smooth2d_kl", seed=42).truth_values(X)
        assert np.array_equal(a, b)

    def test_kl_surface_varies_with_seed(self):
        X = np.random.default_rng(2).uniform(size=(15, 2))
        a = SyntheticSimulator(truth="smooth2d_kl", seed=0).truth_values(X)
        b = SyntheticSimulator(truth="smooth2d_kl", seed=1).truth_values(X)
        assert np.max(np.abs(a - b)) > 1e-4

    def test_kl_roughening_is_nonzero(self):
        X = np.random.default_rng(3).uniform(size=(25, 2))
        smooth = SyntheticSimulator(truth="smooth2d", seed=7).truth_values(X)
        rough = SyntheticSimulator(truth="smooth2d_kl", seed=7).truth_values(X)
        assert np.max(np.abs(rough - smooth)) > 1e-4


class TestKLSpectrumCache:
    """The seed-independent KL spectrum is built once and shared by every simulator."""

    def test_shared_across_seeds(self):
        assert SyntheticSimulator(seed=0)._kl[0] is SyntheticSimulator(seed=5)._kl[0]

    def test_cached_truth_matches_a_fresh_spectrum(self, monkeypatch):
        X = np.random.default_rng(4).uniform(size=(30, 2))
        sim_harness._kl_spectrum()
        cached = SyntheticSimulator(seed=3).truth_values(X)
        monkeypatch.setattr(sim_harness, "_kl_spectrum", sim_harness._kl_spectrum.__wrapped__)
        fresh = SyntheticSimulator(seed=3).truth_values(X)
        assert np.array_equal(cached, fresh)

    def test_cached_arrays_are_read_only(self):
        spec = sim_harness._kl_spectrum()
        assert not spec.eigvec_table.flags.writeable
        assert not spec.eigenvalues.flags.writeable


class TestNoiseField:
    def test_constant_field_is_exactly_the_level(self):
        sim = SyntheticSimulator(truth="sine1d", noise_field="constant", noise_level=0.02)
        v = sim.noise_variance(np.linspace(0, 1, 50))
        assert np.array_equal(v, np.full(50, 0.02))

    def test_zero_level_floors_at_tiny_positive(self):
        sim = SyntheticSimulator(truth="sine1d", noise_field="constant", noise_level=0.0)
        v = sim.noise_variance(np.linspace(0, 1, 9))
        assert np.all(v == 1e-30)

    def test_smooth_field_positive(self):
        sim = SyntheticSimulator(truth="smooth2d", noise_field="smooth", noise_level=1e-3)
        X = np.random.default_rng(4).uniform(size=(200, 2))
        assert np.all(sim.noise_variance(X) > 0)

    def test_smooth_field_mean_matches_level_1d(self):
        # trapezoid average over the same grid the normalisation uses
        sim = SyntheticSimulator(
            truth="sine1d", noise_field="smooth", noise_level=2.5e-3, noise_contrast=6.0
        )
        g = np.linspace(0, 1, 2001)
        w = np.full(g.size, 1.0 / (g.size - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        assert w @ sim.noise_variance(g) == pytest.approx(2.5e-3, rel=1e-12)

    def test_smooth_field_mean_matches_level_2d(self):
        sim = SyntheticSimulator(
            truth="smooth2d", noise_field="smooth", noise_level=3.3e-3, noise_contrast=4.0
        )
        quad = Quadrature.tensor_trapezoid([81], ((0.0, 1.0), (0.0, 1.0)))
        mean = quad.weights @ sim.noise_variance(quad.nodes)
        assert mean == pytest.approx(3.3e-3, rel=1e-12)

    def test_contrast_is_max_over_min_ratio(self):
        # the 1-d modulation hits both extremes at x = 1/4 and 3/4
        sim = SyntheticSimulator(
            truth="sine1d", noise_field="smooth", noise_level=1e-3, noise_contrast=9.0
        )
        v = sim.noise_variance(np.linspace(0, 1, 2001))
        assert np.max(v) / np.min(v) == pytest.approx(9.0, rel=1e-12)


class TestSampleObservations:
    def test_zero_noise_means_equal_truth(self):
        sim = SyntheticSimulator(truth="sine1d", noise_field="constant", noise_level=0.0)
        design = _line_design(np.linspace(0.05, 0.95, 8))
        obs = sample_observations(sim, design, 3, seed=10)
        assert np.max(np.abs(obs.means - sim.truth_values(design.points))) < 1e-14

    def test_same_seed_identical_draws(self):
        sim = SyntheticSimulator(truth="smooth2d", noise_level=1e-2)
        design = _square_design(np.random.default_rng(6).uniform(size=(5, 2)))
        a = sample_observations(sim, design, 4, seed=123)
        b = sample_observations(sim, design, 4, seed=123)
        for name in ("means", "sigma_eps2", "noise_var"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_different_seed_different_draws(self):
        sim = SyntheticSimulator(truth="sine1d", noise_level=1e-2)
        design = _line_design([0.2, 0.5, 0.8])
        a = sample_observations(sim, design, 4, seed=1)
        b = sample_observations(sim, design, 4, seed=2)
        assert np.max(np.abs(a.means - b.means)) > 0

    def test_pooled_sample_variance_concentrates(self):
        sim = SyntheticSimulator(
            truth="sine1d", noise_field="constant", noise_level=0.01, noise_contrast=1.0
        )
        design = _line_design([0.1, 0.35, 0.6, 0.85])
        obs = sample_observations(sim, design, 1000, seed=77)
        pooled = float(np.mean(obs.sigma_eps2))
        assert abs(pooled - 0.01) <= 3.0 * math.sqrt(2.0 / 999.0) * 0.01

    def test_scalar_count_broadcasts(self):
        sim = SyntheticSimulator(truth="sine1d", noise_level=1e-3)
        design = _line_design([0.25, 0.75])
        a = sample_observations(sim, design, 6, seed=3)
        b = sample_observations(sim, design, [6, 6], seed=3)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.s, b.s)

    @pytest.mark.parametrize("s", [2.5, 1.9, [2, 1.9]])
    def test_fractional_count_rejected(self, s):
        sim = SyntheticSimulator(truth="sine1d", noise_level=1e-3)
        with pytest.raises(ValueError, match="whole numbers"):
            sample_observations(sim, _line_design([0.25, 0.75]), s, seed=3)

    def test_per_point_streams_are_independent(self):
        # raising one point's count must not disturb the others' draws
        sim = SyntheticSimulator(truth="sine1d", noise_level=1e-2)
        design = _line_design([0.1, 0.5, 0.9])
        a = sample_observations(sim, design, [4, 4, 4], seed=11)
        b = sample_observations(sim, design, [4, 9, 4], seed=11)
        for name in ("means", "sigma_eps2"):
            assert getattr(a, name)[[0, 2]].tobytes() == getattr(b, name)[[0, 2]].tobytes()
        assert b.s.tolist() == [4, 9, 4]

    def test_single_replicate_uses_known_variance(self):
        sim = SyntheticSimulator(truth="sine1d", noise_field="constant", noise_level=0.04)
        design = _line_design([0.3, 0.7])
        obs = sample_observations(sim, design, 1, seed=8)
        assert np.array_equal(obs.noise_var, np.full(2, 0.04))
        assert np.array_equal(obs.s, np.ones(2, dtype=int))

    def test_replicate_summaries_consistent(self):
        sim = SyntheticSimulator(truth="sine1d", noise_level=5e-3)
        design = _line_design([0.2, 0.6])
        obs = sample_observations(sim, design, 7, seed=21)
        truth, var = sim.truth_values(design.points), sim.noise_variance(design.points)
        # the same draws again, one spawned stream per point
        for i, ss in enumerate(np.random.SeedSequence(21).spawn(2)):
            r = truth[i] + math.sqrt(var[i]) * np.random.default_rng(ss).standard_normal(7)
            assert obs.means[i] == pytest.approx(r.mean(), rel=1e-14)
            assert obs.sigma_eps2[i] == pytest.approx(r.var(ddof=1), rel=1e-12)
            assert obs.noise_var[i] == pytest.approx(r.var(ddof=1) / 7, rel=1e-12)

    def test_count_validation(self):
        sim = SyntheticSimulator(truth="sine1d")
        design = _line_design([0.2, 0.8])
        with pytest.raises(ValueError, match="replicate"):
            sample_observations(sim, design, [3, 3, 3], seed=0)
        with pytest.raises(ValueError, match="replicate"):
            sample_observations(sim, design, [3, 0], seed=0)

    def test_seed_sequence_equivalent_to_int(self):
        sim = SyntheticSimulator(truth="sine1d", noise_level=1e-3)
        design = _line_design([0.4, 0.6])
        a = sample_observations(sim, design, 5, seed=99)
        b = sample_observations(sim, design, 5, seed=np.random.SeedSequence(99))
        assert np.array_equal(a.means, b.means)


class TestLatinHypercube:
    def test_shape_and_containment(self):
        d = latin_hypercube_design(30, 2, seed=0)
        assert d.points.shape == (30, 2)
        assert np.all(d.points >= 0.0) and np.all(d.points <= 1.0)

    def test_one_point_per_stratum(self):
        n = 25
        d = latin_hypercube_design(n, 2, seed=1)
        for j in range(2):
            cells = np.floor(d.points[:, j] * n).astype(int).clip(0, n - 1)
            assert np.array_equal(np.sort(cells), np.arange(n))

    def test_deterministic_per_seed(self):
        a = latin_hypercube_design(12, 3, seed=4)
        b = latin_hypercube_design(12, 3, seed=4)
        c = latin_hypercube_design(12, 3, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.max(np.abs(a.points - c.points)) > 0

    def test_custom_box_scaling(self):
        box = UniformBox(((2.0, 3.0), (-1.0, 4.0)))
        n = 20
        d = latin_hypercube_design(n, 2, seed=9, box=box)
        assert d.measure.bounds == box.bounds
        for j, (lo, hi) in enumerate(box.bounds):
            x = d.points[:, j]
            assert np.all(x >= lo) and np.all(x <= hi)
            cells = np.floor((x - lo) / (hi - lo) * n).astype(int).clip(0, n - 1)
            assert np.array_equal(np.sort(cells), np.arange(n))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_equals_scipy_latin_hypercube(self, n, dim):
        # the draw of scipy's scrambled strength-1 LatinHypercube, bit for bit,
        # for int seeds, SeedSequence seeds and a spawned child, on a non-unit box
        box = UniformBox(tuple((-1.5 + k, 2.25 + 3 * k) for k in range(dim)))
        lo, hi = [b[0] for b in box.bounds], [b[1] for b in box.bounds]
        for seed in range(30):
            for make in (lambda: seed, lambda: np.random.SeedSequence(seed),
                         lambda: np.random.SeedSequence(seed).spawn(3)[1]):
                sampler = qmc.LatinHypercube(d=dim, seed=np.random.default_rng(make()))
                expected = qmc.scale(sampler.random(n), lo, hi)
                assert np.array_equal(latin_hypercube_design(n, dim, make(), box).points, expected)

    def test_frozen_points(self):
        # frozen from scipy 1.17.1's LatinHypercube, so a later scipy cannot move them
        box = UniformBox(((-1.0, 3.0), (0.5, 0.75)))
        assert latin_hypercube_design(4, 2, 2024, box).points.tolist() == [
            [2.3494304267974786, 0.5294018675317299],
            [0.8329089150853304, 0.7083749356772581],
            [1.7185902922988676, 0.681405732857153],
            [-0.3632157828228719, 0.5874121102660315],
        ]

    def test_a_seed_sequence_gives_the_same_design_twice(self):
        ss = np.random.SeedSequence(5)
        first = latin_hypercube_design(5, 2, ss)
        assert np.array_equal(latin_hypercube_design(5, 2, ss).points, first.points)
        assert ss.n_children_spawned == 0


class TestSpearman:
    def test_equals_scipy_on_tied_integers(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 120))
            s = rng.integers(1, 6, n)
            noise = rng.integers(0, 9, n) * 0.25 if rng.random() < 0.5 else rng.standard_normal(n)
            rho = sim_harness._spearman(s, noise)
            expected = spearmanr(s, noise)[0]
            assert rho == expected or (math.isnan(rho) and math.isnan(expected))

    @pytest.mark.parametrize("a, b", [([3, 3, 3], [0.1, 0.5, 0.2]), ([1, 2, 3], [0.4, 0.4, 0.4]),
                                      ([1], [2.0])])
    def test_nan_on_a_constant_sample(self, a, b):
        assert math.isnan(sim_harness._spearman(a, b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy's ConstantInputWarning
            assert math.isnan(spearmanr(a, b)[0])


class TestConfigMerge:
    def test_none_returns_copy_of_defaults(self):
        out = _merge_config(FIGURE1_DEFAULTS, None, "figure1")
        assert out == FIGURE1_DEFAULTS
        out["n"] = 1
        assert FIGURE1_DEFAULTS["n"] == 200

    def test_unknown_key_rejected_with_context(self):
        with pytest.raises(ValueError, match=r"figure1.*n_design"):
            _merge_config(FIGURE1_DEFAULTS, {"n_design": 3}, "figure1")

    def test_nested_override_keeps_siblings(self):
        defaults = {"a": 1, "sub": {"x": 2, "y": 3}}
        out = _merge_config(defaults, {"sub": {"y": 9}}, "ctx")
        assert out == {"a": 1, "sub": {"x": 2, "y": 9}}
        assert defaults["sub"]["y"] == 3

    def test_nested_unknown_key_names_the_path(self):
        defaults = {"sub": {"x": 2}}
        with pytest.raises(ValueError, match=r"ctx\.sub"):
            _merge_config(defaults, {"sub": {"z": 1}}, "ctx")

    def test_override_takes_the_type_of_its_default(self):
        defaults = {"i": 1, "f": 0.5, "b": True, "l": [1], "sub": {"x": 2}}
        out = _merge_config(defaults, {"i": 40.0, "f": 2, "b": False, "l": [], "sub": {}}, "ctx")
        assert out == {"i": 40, "f": 2.0, "b": False, "l": [], "sub": {"x": 2}}
        assert type(out["i"]) is int and type(out["f"]) is float

    @pytest.mark.parametrize("key,val", [
        ("i", "40"), ("i", 40.5), ("i", True), ("i", None), ("i", math.inf),
        ("f", "0.5"), ("f", False), ("f", math.nan), ("f", 10**400),
        ("b", 1), ("l", 0.5), ("l", (1,)), ("sub", 5), ("sub", None), ("sub.x", {"x": 2.5}),
    ])
    def test_misfit_override_names_its_dotted_key(self, key, val):
        defaults = {"i": 1, "f": 0.5, "b": True, "l": [1], "sub": {"x": 2}}
        with pytest.raises(ValueError, match=rf"ctx\.{key}: expected"):
            _merge_config(defaults, {key.split(".")[0]: val}, "ctx")

    def test_drivers_reject_unknown_keys(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            run_figure1(tmp_path, seed=0, config={"bogus": 1})
        with pytest.raises(ValueError, match=r"figure2\.matern"):
            run_figure2(tmp_path, seed=0, config={"matern": {"len": 0.1}})
        with pytest.raises(ValueError, match="casestudy"):
            run_case_study(tmp_path, seed=0, config={"points": 10})


FIG1_SMOKE = {
    "n": 50,
    "n_designs": 2,
    "inv_tau_count": 5,
    "hurst": [0.5],
    "quad_m": 300,
    "spectrum_m": 400,
    "spectrum_p": 40,
}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    report = run_figure1(out, seed=314, config=FIG1_SMOKE)
    return out, report


class TestFigure1Driver:
    def test_csv_well_formed(self, fig1_run):
        out, report = fig1_run
        assert report["files"] == ["figure1_h0.5.csv", "figure1_report.json"]
        # the written report lists the curve files
        written = json.loads((out / "figure1_report.json").read_text())
        assert written == dict(report, files=["figure1_h0.5.csv"])
        header, data = _read_csv(out / "figure1_h0.5.csv")
        assert header == ["inv_tau", "imse_mean", "imse_stderr", "theory_value"]
        assert data.shape == (5, 4)
        assert np.all(np.isfinite(data))
        assert np.all(data[:, 1] > 0)

    def test_curves_decay_with_inverse_tau(self, fig1_run):
        # the same designs are reused across the tau grid, so the mean
        # curve inherits the per-design monotonicity exactly
        _, data = _read_csv(fig1_run[0] / "figure1_h0.5.csv")
        assert np.all(np.diff(data[:, 1]) < 0)
        assert np.all(np.diff(data[:, 3]) < 0)

    def test_report_slopes(self, fig1_run):
        _, report = fig1_run
        curve = report["curves"]["0.5"]
        assert set(curve) == {"empirical_slope", "theory_slope", "ideal_slope", "r2"}
        assert curve["ideal_slope"] == pytest.approx(-0.5)
        assert curve["empirical_slope"] < 0
        assert 0 < curve["r2"] <= 1

    def test_bit_reproducible(self, fig1_run, tmp_path):
        out, report = fig1_run
        report2 = run_figure1(tmp_path, seed=314, config=FIG1_SMOKE)
        assert report2 == report
        a = (out / "figure1_h0.5.csv").read_bytes()
        b = (tmp_path / "figure1_h0.5.csv").read_bytes()
        assert a == b


FIG2_SMOKE = {
    "n": 40,
    "n_designs": 2,
    "matern": {"inv_tau_count": 4, "quad_m": 15},
    "gaussian": {"inv_tau_count": 4, "quad_m": 300},
}


@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    report = run_figure2(out, seed=59, config=FIG2_SMOKE)
    return out, report


class TestFigure2Driver:
    def test_files_and_headers(self, fig2_run):
        out, report = fig2_run
        curves = ["figure2_matern2d.csv", "figure2_gaussian1d.csv"]
        assert report["files"] == [*curves, "figure2_report.json"]
        # the written report lists the curve files
        written = json.loads((out / "figure2_report.json").read_text())
        assert written == dict(report, files=curves)
        for name in curves:
            header, data = _read_csv(out / name)
            assert header == ["inv_tau", "imse_mean", "imse_stderr", "theory_value"]
            assert data.shape == (4, 4)
            assert np.all(data[:, 1] > 0)

    def test_matern_report(self, fig2_run):
        _, report = fig2_run
        m = report["matern2d"]
        assert m["slope_gap"] == pytest.approx(
            abs(m["empirical_slope"] - m["theory_slope_same_grid"])
        )
        assert m["empirical_slope"] < 0

    def test_gaussian_envelope_bounds_the_curve(self, fig2_run):
        out, report = fig2_run
        g = report["gaussian1d"]
        assert g["envelope_constant"] > 0
        assert 0.0 < g["envelope_tightness"] <= 1.0
        _, data = _read_csv(out / "figure2_gaussian1d.csv")
        emp, env = data[:, 1], data[:, 3]
        # envelope sits on top of the curve and touches it at one grid point
        assert np.all(emp <= env * (1.0 + 1e-12))
        assert np.max(emp / env) == pytest.approx(1.0, rel=1e-12)
        assert np.min(emp / env) == pytest.approx(g["envelope_tightness"], rel=1e-12)


CASE_SMOKE = {
    "n": 25,
    "s0": 4,
    "test_grid": 8,
    "test_s": 20,
    "target_ratio": 0.5,
    "n_random": 40,
    "n_polish": 2,
    "eta_m": 11,
    "s_scan_max": 40,
}

REPORT_KEYS = {
    "n", "s0", "sigma_eps2_bar", "fit", "nu_floored_for_rate", "imse_T0",
    "emse_T0", "emse_over_imse", "target_imse", "predicted_budget",
    "predicted_s", "measured_s", "measured_budget", "budget_ratio",
    "allocation", "table", "test_noise_floor", "files",
}


@pytest.fixture(scope="module")
def case_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("case")
    report = run_case_study(out, seed=2026, config=CASE_SMOKE)
    return out, report


class TestCaseStudyDriver:
    def test_report_keys(self, case_run):
        _, report = case_run
        assert set(report) == REPORT_KEYS
        assert report["n"] == 25 and report["s0"] == 4
        assert report["sigma_eps2_bar"] > 0
        assert set(report["fit"]) == {
            "nu", "theta", "sigma2", "mean", "loglik", "n_local_maxima",
            "polish_improved", "n_evals", "n_failed_evals", "n_polish_iters", "at_bound",
        }
        assert report["imse_T0"] > 0
        assert report["target_imse"] == pytest.approx(0.5 * report["imse_T0"])
        assert report["emse_over_imse"] == pytest.approx(
            report["emse_T0"] / report["imse_T0"]
        )
        assert report["test_noise_floor"] == pytest.approx(
            report["sigma_eps2_bar"] / 20
        )

    def test_forecast_entries(self, case_run):
        _, report = case_run
        assert report["predicted_budget"] >= 25
        assert report["predicted_s"] >= 1
        if report["measured_s"] is None:
            assert report["measured_budget"] is None
            assert report["budget_ratio"] is None
        else:
            assert report["measured_budget"] == 25 * report["measured_s"]
            assert report["budget_ratio"] == pytest.approx(
                report["predicted_budget"] / report["measured_budget"]
            )

    def test_allocation_entries(self, case_run):
        _, report = case_run
        alloc = report["allocation"]
        assert 0 <= alloc["i_star"] <= 25
        assert isinstance(alloc["quasi_optimal"], bool)
        assert -1.0 <= alloc["spearman_s_vs_noise"] <= 1.0

    def test_comparison_table(self, case_run):
        _, report = case_run
        table = report["table"]
        assert set(table) == {"uniform", "optimal"}
        for row in table.values():
            assert set(row) == {"mse", "maxse", "imse_model"}
            assert row["mse"] > 0
            assert row["maxse"] >= row["mse"]
        # under the fitted model the optimised split can only beat the
        # even one, up to integer rounding of both
        assert (
            table["optimal"]["imse_model"]
            <= table["uniform"]["imse_model"] * 1.02
        )

    def test_output_files(self, case_run):
        out, report = case_run
        assert report["files"] == [
            "pilot_observations.csv", "allocation.csv", "budget_curve.csv",
            "budget_scan.csv", "case_study.json",
        ]
        for name in report["files"]:
            assert (out / name).exists()
        header, _ = _read_csv(out / "pilot_observations.csv")
        assert header == ["x_1", "x_2", "z", "s", "sigma_eps2"]
        header, curve = _read_csv(out / "budget_curve.csv")
        assert header == ["T", "imse_predicted"]
        assert np.all(curve[:, 1] > 0)
        header, scan = _read_csv(out / "budget_scan.csv")
        assert header == ["s", "emse"]
        assert scan.shape[0] >= 1 and scan[0, 0] == 1

    def test_json_round_trip(self, case_run):
        out, report = case_run
        with open(out / "case_study.json") as fh:
            loaded = json.load(fh)
        expected = {k: v for k, v in report.items() if k != "files"}
        assert loaded == expected

    def test_bit_reproducible(self, case_run, tmp_path):
        out, report = case_run
        report2 = run_case_study(tmp_path, seed=2026, config=CASE_SMOKE)
        assert report2 == report
        a = (out / "allocation.csv").read_bytes()
        assert a == (tmp_path / "allocation.csv").read_bytes()

    def test_errors_match_the_public_predictor(self, case_run):
        # the pilot EMSE and the first scan step, redrawn and refitted
        # through sample_observations, fit_blup and predict_mean
        out, report = case_run
        cfg = dict(CASE_STUDY_DEFAULTS, **CASE_SMOKE)
        ss_design, ss_obs0, _, ss_scan, _, ss_test = np.random.SeedSequence(2026).spawn(6)
        sim = SyntheticSimulator(
            noise_level=cfg["noise_level"], noise_contrast=cfg["noise_contrast"], seed=2026
        )
        design = latin_hypercube_design(cfg["n"], 2, ss_design)
        fit = report["fit"]
        kernel = KernelSpec(family="matern_tensor", nu=fit["nu"],
                            lengthscales=tuple(fit["theta"]), variance=fit["sigma2"])
        g = np.linspace(0.0, 1.0, cfg["test_grid"])
        gx, gy = np.meshgrid(g, g, indexing="ij")
        test_points = np.column_stack([gx.ravel(), gy.ravel()])
        test_design = Design(test_points, design.measure)
        test_values = sample_observations(sim, test_design, cfg["test_s"], ss_test).means

        def emse(obs):
            pred = fit_blup(kernel, design, obs, mean=fit["mean"])
            return float(np.mean((predict_mean(pred, test_points) - test_values) ** 2))

        obs0 = sample_observations(sim, design, cfg["s0"], ss_obs0)
        assert emse(obs0) == report["emse_T0"]
        noise_pp, _ = estimate_noise(obs0)
        obs1 = sample_observations(sim, design, 1, ss_scan.spawn(cfg["s_scan_max"])[0])
        e1 = emse(ObservationSet(obs1.means, noise_pp, np.ones(cfg["n"])))
        _, scan = _read_csv(out / "budget_scan.csv")
        assert scan[0, 0] == 1 and scan[0, 1] == e1


def test_case_study_defaults_are_full_size():
    assert CASE_STUDY_DEFAULTS["n"] == 100
    assert CASE_STUDY_DEFAULTS["s0"] == 10
    assert CASE_STUDY_DEFAULTS["noise_level"] == pytest.approx(3.3e-3)
