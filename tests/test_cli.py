"""Command-line interface: subcommand round trips, exit codes, manifests.

Runs go through ``main(argv)`` in process so failures give real
tracebacks. Two tests make sure the entry point itself is wired up:
``test_console_script_installed`` reads the ``gpbudget`` target from
``[project.scripts]`` in ``pyproject.toml`` and runs it in a fresh
interpreter the way pip's console-script wrapper does, so it needs no
install; ``test_console_script_on_path`` runs the installed ``gpbudget``
executable and is skipped when none is on ``PATH``.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpbudget
from gpbudget import __version__, cli, sim_harness
from gpbudget.cli import ConfigError, _HANDLERS, main


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(command, tmp_path, config=None, seed=0, name="out"):
    out = tmp_path / name
    argv = [command, "--seed", str(seed), "--out", str(out)]
    if config is not None:
        argv += ["--config", write_config(tmp_path, config, f"{name}.json")]
    return main(argv), out


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestArgumentParsing:
    def test_missing_seed_exits_2(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["integrate", "--seed", "0", "--out", "x"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "spectrum" in capsys.readouterr().out


class TestExitCodeClassification:
    """The documented mapping from failure type to exit code.

    Linear-algebra breakdowns subclass ValueError in numpy, so the
    order of the except clauses matters; these tests pin it.
    """

    def _patched(self, monkeypatch, exc):
        def boom(cfg, seed, out):
            raise exc
        monkeypatch.setitem(_HANDLERS, "spectrum", boom)

    @pytest.mark.parametrize("exc", [
        np.linalg.LinAlgError("singular"),
        RuntimeError("diverged"),
        FloatingPointError("overflow"),
    ])
    def test_numerical_failures_exit_1(self, monkeypatch, tmp_path, capsys, exc):
        self._patched(monkeypatch, exc)
        rc, _ = run_cli("spectrum", tmp_path)
        assert rc == 1
        assert "gpbudget spectrum" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [
        ConfigError("bad key"),
        ValueError("lengthscales must be positive"),
    ])
    def test_configuration_failures_exit_2(self, monkeypatch, tmp_path, capsys, exc):
        self._patched(monkeypatch, exc)
        rc, _ = run_cli("spectrum", tmp_path)
        assert rc == 2
        capsys.readouterr()

    def test_no_manifest_on_failure(self, tmp_path, capsys):
        cfg = {"kernel": {"family": "brownian"}, "measure": {"type": "trapezoid", "m": 100},
               "p": 5, "extra": 1}
        rc, out = run_cli("spectrum", tmp_path, cfg)
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()


SPECTRUM_CFG = {
    "kernel": {"family": "brownian"},
    "measure": {"type": "trapezoid", "m": 200},
    "p": 10,
    "nodes_table": True,
}


class TestSpectrumCommand:
    def test_round_trip(self, tmp_path):
        rc, out = run_cli("spectrum", tmp_path, SPECTRUM_CFG)
        assert rc == 0
        header, rows = read_rows(out / "spectrum.csv")
        assert header == ["p", "lambda"]
        lam = np.array([float(r[1]) for r in rows])
        assert len(lam) == 10
        assert np.all(np.diff(lam) <= 0) and lam[-1] >= 0
        # Brownian leading eigenvalue 4/pi^2, coarse-grid accuracy
        assert lam[0] == pytest.approx(4 / np.pi**2, rel=1e-3)
        header, rows = read_rows(out / "spectrum_nodes.csv")
        assert header[:2] == ["x_1", "weight"]
        assert len(header) == 2 + 10
        assert len(rows) == 200

    def test_requires_config(self, tmp_path, capsys):
        rc, _ = run_cli("spectrum", tmp_path)
        assert rc == 2
        assert "config is required" in capsys.readouterr().err

    def test_too_many_terms_rejected(self, tmp_path, capsys):
        cfg = dict(SPECTRUM_CFG, p=50)
        rc, _ = run_cli("spectrum", tmp_path, cfg)
        assert rc == 2
        capsys.readouterr()

    def test_bad_kernel_family(self, tmp_path, capsys):
        cfg = dict(SPECTRUM_CFG, kernel={"family": "cubic"})
        rc, _ = run_cli("spectrum", tmp_path, cfg)
        assert rc == 2
        assert "spectrum.kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["no", "false", 1, 0, None])
    def test_nodes_table_must_be_a_bool(self, flag, tmp_path, capsys):
        rc, out = run_cli("spectrum", tmp_path, dict(SPECTRUM_CFG, nodes_table=flag))
        assert rc == 2
        assert "spectrum.nodes_table" in capsys.readouterr().err
        assert not (out / "spectrum.csv").exists()
        assert not (out / "spectrum_nodes.csv").exists()


class TestCurveCommand:
    def test_too_many_theory_terms_rejected(self, tmp_path, capsys):
        cfg = dict(CURVE_CFG, theory={"spectrum_m": 200, "p": 21})
        rc, out = run_cli("curve", tmp_path, cfg)
        assert rc == 2
        assert "curve.theory.p: need 1 <= p <= 20" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_explicit_tau_values(self, tmp_path):
        cfg = {
            "kernel": {"family": "brownian"},
            "n": 30,
            "n_designs": 2,
            "tau_values": [0.1, 0.05],
            "quadrature": {"type": "trapezoid", "m": 200},
            "theory": {"spectrum_m": 300, "p": 20},
        }
        rc, out = run_cli("curve", tmp_path, cfg)
        assert rc == 0
        header, rows = read_rows(out / "curve.csv")
        assert header == ["inv_tau", "imse_mean", "imse_stderr", "theory_value"]
        data = np.array(rows, dtype=float)
        assert data.shape == (2, 4)
        assert np.all(data[:, 1] > 0) and np.all(np.isfinite(data[:, 3]))

    def test_theory_can_be_disabled(self, tmp_path):
        cfg = {
            "kernel": {"family": "brownian"},
            "n": 20,
            "n_designs": 2,
            "tau_values": [0.1],
            "quadrature": {"type": "trapezoid", "m": 100},
            "theory": False,
        }
        rc, out = run_cli("curve", tmp_path, cfg)
        assert rc == 0
        _, rows = read_rows(out / "curve.csv")
        assert math_isnan(rows[0][3])

    def test_inv_tau_grid(self, tmp_path):
        cfg = {
            "kernel": {"family": "brownian"},
            "n": 20,
            "n_designs": 2,
            "inv_tau": {"min": 5.0, "max": 20.0, "count": 3},
            "quadrature": {"type": "trapezoid", "m": 100},
            "theory": False,
        }
        rc, out = run_cli("curve", tmp_path, cfg)
        assert rc == 0
        _, rows = read_rows(out / "curve.csv")
        got = [float(r[0]) for r in rows]
        assert got == pytest.approx(list(np.geomspace(5.0, 20.0, 3)))

    def test_nonpositive_tau_rejected(self, tmp_path, capsys):
        cfg = {"kernel": {"family": "brownian"}, "n": 20, "tau_values": [0.1, -0.2]}
        rc, _ = run_cli("curve", tmp_path, cfg)
        assert rc == 2
        assert "positive" in capsys.readouterr().err


def math_isnan(text):
    return text.lower() == "nan" or np.isnan(float(text))


SIM_CFG = {
    "design": {"type": "lhs", "n": 12},
    "s": 4,
    "truth": "sine1d",
    "noise_level": 1e-3,
    "sim_seed": 5,
}


class TestSimulateCommand:
    def test_writes_observations(self, tmp_path):
        rc, out = run_cli("simulate", tmp_path, SIM_CFG, seed=3)
        assert rc == 0
        header, rows = read_rows(out / "observations.csv")
        assert header == ["x_1", "z", "s", "sigma_eps2"]
        assert len(rows) == 12
        assert all(int(r[2]) == 4 for r in rows)

    def test_explicit_points_design(self, tmp_path):
        cfg = {
            "design": {"type": "points", "points": [[0.2, 0.3], [0.7, 0.6]]},
            "s": [2, 5],
            "truth": "smooth2d",
        }
        rc, out = run_cli("simulate", tmp_path, cfg, seed=1)
        assert rc == 0
        header, rows = read_rows(out / "observations.csv")
        assert header[:2] == ["x_1", "x_2"]
        assert [int(r[3]) for r in rows] == [2, 5]

    def test_count_mismatch_exits_2(self, tmp_path, capsys):
        cfg = dict(SIM_CFG, s=[4, 4])
        rc, _ = run_cli("simulate", tmp_path, cfg)
        assert rc == 2
        assert "replicate" in capsys.readouterr().err

    @pytest.mark.parametrize("s", [2.5, 1.9, [2, 1.9]])
    def test_fractional_count_exits_2(self, s, tmp_path, capsys):
        design = {"type": "points", "points": [[0.2], [0.7]]}
        rc, out = run_cli("simulate", tmp_path, dict(SIM_CFG, design=design, s=s))
        assert rc == 2
        assert "whole numbers" in capsys.readouterr().err
        assert not (out / "observations.csv").exists()

    def test_unknown_design_type(self, tmp_path, capsys):
        cfg = dict(SIM_CFG, design={"type": "sobol", "n": 8})
        rc, _ = run_cli("simulate", tmp_path, cfg)
        assert rc == 2
        capsys.readouterr()

    def test_bad_noise_level(self, tmp_path, capsys):
        cfg = dict(SIM_CFG, noise_level=-0.5)
        rc, _ = run_cli("simulate", tmp_path, cfg)
        assert rc == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def observations_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs")
    rc, out = run_cli("simulate", tmp, SIM_CFG, seed=3)
    assert rc == 0
    return out / "observations.csv"


class TestFitCommand:
    def _cfg(self, data_csv):
        return {
            "data_csv": str(data_csv),
            "n_random": 30,
            "n_polish": 2,
        }

    def test_fit_round_trip(self, tmp_path, observations_csv):
        rc, out = run_cli("fit", tmp_path, self._cfg(observations_csv), seed=11)
        assert rc == 0
        with open(out / "fit.json") as fh:
            fit = json.load(fh)
        assert set(fit) == {
            "nu", "theta", "sigma2", "mean", "loglik",
            "n_local_maxima", "polish_improved", "noise",
            "n_evals", "n_failed_evals", "n_polish_iters", "at_bound",
        }
        assert 0.5 <= fit["nu"] <= 3.0
        assert len(fit["theta"]) == 1
        assert fit["sigma2"] > 0 and fit["noise"] > 0

    def test_no_finite_start_exits_1_without_output(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("x_1,z,s,sigma_eps2\n0.5,1.0,1,0\n0.5,1.2,1,0\n0.5,0.9,1,0\n")
        cfg = {"data_csv": str(data), "noise": 0.0, "n_random": 10, "n_polish": 2}
        rc, out = run_cli("fit", tmp_path, cfg, seed=4)
        assert rc == 1
        assert "could not be factorized" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_deterministic_given_seed(self, tmp_path, observations_csv):
        rc1, out1 = run_cli("fit", tmp_path, self._cfg(observations_csv), seed=11, name="a")
        rc2, out2 = run_cli("fit", tmp_path, self._cfg(observations_csv), seed=11, name="b")
        assert rc1 == rc2 == 0
        assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()

    @pytest.mark.parametrize("nu_bounds", [[0.01, 3.0], [0.5, 40.0]], ids=["below", "above"])
    def test_nu_bounds_outside_the_tables_exit_2(self, nu_bounds, tmp_path, capsys,
                                                 observations_csv):
        cfg = dict(self._cfg(observations_csv), bounds=[nu_bounds, [0.01, 2.0], [0.01, 1.0]])
        rc, out = run_cli("fit", tmp_path, cfg, seed=11)
        assert rc == 2
        err = capsys.readouterr().err
        assert "fit.bounds: the nu bounds" in err
        assert not (out / "fit.json").exists() and not (out / "run_manifest.json").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        rc, _ = run_cli("fit", tmp_path, {"data_csv": str(tmp_path / "nope.csv")})
        assert rc == 2
        assert "fit.data_csv" in capsys.readouterr().err


PLAN_CFG = {
    "imse_T0": 1.0e-3,
    "T0": 100,
    "sigma_eps2_bar": 3.3e-3,
    "rate": {"family": "matern_tensor", "nu": 1.31, "d": 2},
    "target_imse": 2.0e-4,
    "n": 100,
}


class TestPlanCommand:
    def test_forecast_round_trip(self, tmp_path):
        rc, out = run_cli("plan", tmp_path, PLAN_CFG)
        assert rc == 0
        with open(out / "forecast.json") as fh:
            forecast = json.load(fh)
        assert forecast["solved_T"] == 2045
        assert forecast["s_per_point"] == 21
        assert forecast["rate"]["exponent"] == pytest.approx(1 - 1 / 2.62)
        curve = np.array(forecast["curve"], dtype=float)
        assert curve[0, 0] == 100 and curve[-1, 0] >= 2045
        assert np.all(np.diff(curve[:, 1]) < 0)

    def test_target_above_current_rejected(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, target_imse=5e-3)
        rc, _ = run_cli("plan", tmp_path, cfg)
        assert rc == 2
        assert "below the current" in capsys.readouterr().err

    def test_rate_requires_family(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, rate={"nu": 1.0})
        rc, _ = run_cli("plan", tmp_path, cfg)
        assert rc == 2
        assert "plan.rate" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -5])
    def test_design_size_below_one_exits_2(self, n, tmp_path, capsys):
        rc, out = run_cli("plan", tmp_path, dict(PLAN_CFG, n=n))
        assert rc == 2
        assert "plan.n" in capsys.readouterr().err
        assert not (out / "forecast.json").exists()
        assert not (out / "run_manifest.json").exists()

    def test_rate_dimension_below_one_exits_2(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, rate={"family": "gaussian", "d": 0})
        rc, out = run_cli("plan", tmp_path, cfg)
        assert rc == 2
        assert "plan.rate" in capsys.readouterr().err
        assert not (out / "forecast.json").exists()


ALLOCATE_CFG = {
    "kernel": {"family": "triangular", "lengthscales": [0.04]},
    "points": [[0.1], [0.5], [0.9]],
    "sigma_eps2": [0.01, 0.04, 0.02],
    "T": 12,
    "eta": {"type": "trapezoid", "m": 201},
}


class TestAllocateCommand:
    def test_plan_round_trip(self, tmp_path):
        rc, out = run_cli("allocate", tmp_path, ALLOCATE_CFG)
        assert rc == 0
        header, rows = read_rows(out / "plan.csv")
        assert header == ["point_index", "x_1", "sigma_eps2", "s_real", "s_int"]
        s_int = [int(r[4]) for r in rows]
        assert sum(s_int) == 12 and min(s_int) >= 1
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["T"] == 12
        assert summary["quasi_optimal"] is False
        assert summary["imse_optimal"] <= summary["imse_uniform"] * (1 + 1e-12)

    def test_scalar_noise_broadcasts(self, tmp_path):
        cfg = dict(ALLOCATE_CFG, sigma_eps2=0.02)
        rc, out = run_cli("allocate", tmp_path, cfg)
        assert rc == 0
        _, rows = read_rows(out / "plan.csv")
        assert [float(r[2]) for r in rows] == [0.02] * 3

    def test_from_observations_csv(self, tmp_path, observations_csv):
        cfg = {
            "kernel": {"family": "matern1d", "nu": 1.5, "lengthscales": [0.3]},
            "data_csv": str(observations_csv),
            "T": 50,
        }
        rc, out = run_cli("allocate", tmp_path, cfg)
        assert rc == 0
        _, rows = read_rows(out / "plan.csv")
        assert sum(int(r[4]) for r in rows) == 50

    def test_default_eta_spans_the_design_box(self, tmp_path):
        cfg = {
            "kernel": {"family": "matern1d", "nu": 1.5, "lengthscales": [0.1]},
            "points": [[2.1], [2.5], [2.9]],
            "sigma_eps2": [0.01, 0.04, 0.02],
            "T": 30,
        }
        rc, out = run_cli("allocate", tmp_path, cfg, name="default")
        assert rc == 0
        explicit = dict(cfg, eta={"type": "trapezoid", "m": 2001, "lo": 2.1, "hi": 2.9})
        rc, out_box = run_cli("allocate", tmp_path, explicit, name="box")
        assert rc == 0
        summary, want = (json.loads((o / "summary.json").read_text()) for o in (out, out_box))
        assert summary == want
        # the prior variance 1.0 would mean a quadrature that sees no design point
        assert summary["imse_optimal"] < summary["imse_uniform"] < 1.0

    def test_budget_below_points_rejected(self, tmp_path, capsys):
        cfg = dict(ALLOCATE_CFG, T=2)
        rc, _ = run_cli("allocate", tmp_path, cfg)
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_at_float64_integer_limit_plans(self, tmp_path):
        # the split is rounded in float64, whose whole numbers are exact to 2**53
        rc, out = run_cli("allocate", tmp_path, dict(ALLOCATE_CFG, T=2**53))
        assert rc == 0
        _, rows = read_rows(out / "plan.csv")
        assert sum(int(r[4]) for r in rows) == 2**53

    def test_nonpositive_noise_rejected(self, tmp_path, capsys):
        cfg = dict(ALLOCATE_CFG, sigma_eps2=[0.01, 0.0, 0.02])
        rc, _ = run_cli("allocate", tmp_path, cfg)
        assert rc == 2
        capsys.readouterr()

    def test_needs_points_or_csv(self, tmp_path, capsys):
        cfg = {"kernel": {"family": "brownian"}, "T": 10}
        rc, _ = run_cli("allocate", tmp_path, cfg)
        assert rc == 2
        assert "points or data_csv" in capsys.readouterr().err

    def test_flat_points_match_column(self, tmp_path):
        cfg = dict(ALLOCATE_CFG, kernel={"family": "matern1d", "nu": 1.5, "lengthscales": [0.3]})
        rc, flat = run_cli("allocate", tmp_path, dict(cfg, points=[0.1, 0.5, 0.9]), name="flat")
        assert rc == 0
        rc, column = run_cli("allocate", tmp_path, cfg, name="column")
        assert rc == 0
        assert (flat / "plan.csv").read_bytes() == (column / "plan.csv").read_bytes()

    def test_flat_points_for_2d_kernel_exit_2(self, tmp_path, capsys):
        cfg = dict(ALLOCATE_CFG, points=[0.1, 0.5, 0.9],
                   kernel={"family": "gaussian", "lengthscales": [0.3, 0.3]})
        rc, _ = run_cli("allocate", tmp_path, cfg)
        assert rc == 2
        assert "allocate.points" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "allocate"])
def test_fractional_replicate_count_exits_2(command, tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("x_1,z,s,sigma_eps2\n0.2,1.0,2,0.01\n0.5,1.5,2.5,0.01\n0.8,0.7,3,0.01\n")
    cfg = {"data_csv": str(data)}
    if command == "allocate":
        cfg.update(kernel={"family": "brownian"}, T=10)
    rc, _ = run_cli(command, tmp_path, cfg)
    assert rc == 2
    assert "whole numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "allocate"])
def test_non_finite_sigma_eps2_csv_exits_2(command, tmp_path, capsys):
    data = tmp_path / "obs.csv"
    data.write_text("x_1,z,s,sigma_eps2\n0.2,1.0,2,0.01\n0.5,1.5,2,nan\n0.8,0.7,3,0.01\n")
    cfg = {"data_csv": str(data)}
    if command == "allocate":
        cfg.update(kernel={"family": "brownian"}, T=10)
    rc, out = run_cli(command, tmp_path, cfg)
    assert rc == 2
    assert "sigma_eps2 must be finite" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inline_sigma_eps2_exits_2(bad, tmp_path, capsys):
    cfg = dict(ALLOCATE_CFG, sigma_eps2=[0.01, bad, 0.02])
    rc, out = run_cli("allocate", tmp_path, cfg)
    assert rc == 2
    assert "allocate.sigma_eps2" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


CURVE_CFG = {
    "kernel": {"family": "brownian"},
    "n": 20,
    "n_designs": 2,
    "inv_tau": {"min": 5.0, "max": 20.0, "count": 3},
    "quadrature": {"type": "trapezoid", "m": 100},
}
BIG = 10**12
CURVE_TAU_CFG = {k: v for k, v in CURVE_CFG.items() if k != "inv_tau"}
OBSERVATIONS_CSV = str(Path(__file__).with_name("data") / "observations_1d.csv")
FIT_CSV_CFG = {"data_csv": OBSERVATIONS_CSV}
ALLOCATE_CSV_CFG = {"kernel": {"family": "brownian"}, "T": 10, "data_csv": OBSERVATIONS_CSV}
# one node above MAX_NODES, with weights summing to one
EXPLICIT_OVERSIZED = {"type": "explicit", "nodes": np.linspace(0.0, 1.0, 20_001).tolist(),
                      "weights": [1 / 20_001] * 20_001}
FIGURE1_SMALL = {"n": 20, "n_designs": 1, "quad_m": 100, "spectrum_m": 100, "spectrum_p": 10}


@pytest.mark.parametrize("command,cfg,name", [
    pytest.param("spectrum", dict(SPECTRUM_CFG, measure={"type": "trapezoid", "m": BIG}),
                 "spectrum.measure: m", id="spectrum-m"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "trapezoid", "m": BIG}),
                 "allocate.eta: m", id="allocate-eta-m"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": [10**6, 10**6]}),
                 "allocate.eta: the node count", id="allocate-eta-tensor"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta=EXPLICIT_OVERSIZED), "allocate.eta: the node count",
                 id="allocate-eta-explicit"),
    pytest.param("curve", dict(CURVE_CFG, quadrature=EXPLICIT_OVERSIZED, theory=False),
                 "curve.quadrature: the node count", id="curve-quadrature-explicit"),
    pytest.param("allocate", dict(ALLOCATE_CFG, T=2**62), "allocate.T", id="allocate-T-2^62"),
    pytest.param("allocate", dict(ALLOCATE_CFG, T=2**63 - 1), "allocate.T", id="allocate-T-2^63-1"),
    pytest.param("curve", dict(CURVE_CFG, n=BIG), "curve.n", id="curve-n"),
    pytest.param("curve", dict(CURVE_CFG, n_designs=BIG), "curve.n_designs", id="curve-n_designs"),
    pytest.param("curve", dict(CURVE_CFG, inv_tau={"min": 5.0, "max": 20.0, "count": BIG}),
                 "curve.inv_tau.count", id="curve-inv_tau-count"),
    pytest.param("curve", dict(CURVE_CFG, quadrature={"type": "trapezoid", "m": BIG}),
                 "curve.quadrature: m", id="curve-quadrature-m"),
    pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": BIG}),
                 "curve.theory.spectrum_m", id="curve-spectrum_m"),
    pytest.param("curve", dict(CURVE_CFG, kernel={"family": "gaussian", "lengthscales": [0.3, 0.3]},
                               quadrature={"type": "tensor_trapezoid", "m": 21},
                               theory={"spectrum_m": 200}),
                 "curve.theory.spectrum_m", id="curve-spectrum_m-2d"),
    pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": 200, "p": BIG}),
                 "curve.theory.p", id="curve-theory-p"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, p=BIG), "spectrum.p", id="spectrum-p"),
    pytest.param("fit", {"n_random": BIG}, "fit.n_random", id="fit-n_random"),
    pytest.param("fit", {"n_polish": BIG}, "fit.n_polish", id="fit-n_polish"),
    pytest.param("fit", {"rows": 10_001}, "fit.data_csv point count", id="fit-data_csv"),
    pytest.param("allocate", dict(ALLOCATE_CSV_CFG, rows=10_001, T=20_000),
                 "allocate.data_csv point count", id="allocate-data_csv"),
    pytest.param("allocate", dict(ALLOCATE_CFG, points=[[0.5]] * 10_001, sigma_eps2=0.01, T=20_000),
                 "allocate.points count", id="allocate-points"),
    pytest.param("plan", dict(PLAN_CFG, curve_points=BIG), "plan.curve_points", id="plan-curve_points"),
    pytest.param("simulate", dict(SIM_CFG, design={"type": "lhs", "n": BIG}),
                 "simulate.design.n", id="simulate-n"),
    pytest.param("simulate", dict(SIM_CFG, design={"type": "points", "points": [[0.5]] * 10_001}),
                 "simulate.design.points count", id="simulate-points"),
    pytest.param("simulate", dict(SIM_CFG, s=BIG), "simulate.s", id="simulate-s"),
    pytest.param("simulate", dict(SIM_CFG, design={"type": "points", "points": [[0.2], [0.7]]},
                                  s=[2, BIG]),
                 "simulate.s", id="simulate-s-list"),
    pytest.param("simulate", dict(SIM_CFG, design={"type": "lhs", "n": 10_000}, s=1000),
                 "simulate.s summed over the points", id="simulate-s-total"),
    pytest.param("figure1", {"n": BIG}, "figure1.n", id="figure1-n"),
    pytest.param("figure1", {"n_designs": BIG}, "figure1.n_designs", id="figure1-n_designs"),
    pytest.param("figure1", {"inv_tau_count": BIG}, "figure1.inv_tau_count",
                 id="figure1-inv_tau_count"),
    pytest.param("figure1", {"quad_m": BIG}, "figure1.quad_m", id="figure1-quad_m"),
    pytest.param("figure1", {"spectrum_m": BIG}, "figure1.spectrum_m", id="figure1-spectrum_m"),
    pytest.param("figure2", {"n": BIG}, "figure2.n", id="figure2-n"),
    pytest.param("figure2", {"n_designs": BIG}, "figure2.n_designs", id="figure2-n_designs"),
    pytest.param("figure2", {"matern": {"quad_m": 200}}, "figure2.matern.quad_m node count",
                 id="figure2-matern-quad_m"),
    pytest.param("figure2", {"gaussian": {"quad_m": BIG}}, "figure2.gaussian.quad_m",
                 id="figure2-gaussian-quad_m"),
    pytest.param("figure2", {"gaussian": {"inv_tau_count": BIG}},
                 "figure2.gaussian.inv_tau_count", id="figure2-inv_tau_count"),
    pytest.param("casestudy", {"n": BIG}, "casestudy.n", id="casestudy-n"),
    pytest.param("casestudy", {"test_grid": 200}, "casestudy.test_grid point count",
                 id="casestudy-test_grid"),
    pytest.param("casestudy", {"eta_m": 200}, "casestudy.eta_m node count", id="casestudy-eta_m"),
    pytest.param("casestudy", {"n_random": BIG}, "casestudy.n_random", id="casestudy-n_random"),
    pytest.param("casestudy", {"n_polish": BIG}, "casestudy.n_polish", id="casestudy-n_polish"),
    pytest.param("casestudy", {"s0": BIG}, "casestudy.s0", id="casestudy-s0"),
    pytest.param("casestudy", {"s_scan_max": BIG}, "casestudy.s_scan_max",
                 id="casestudy-s_scan_max"),
    pytest.param("casestudy", {"test_s": 2000}, "casestudy.test_s summed over the points",
                 id="casestudy-test_s"),
])
def test_oversized_config_exits_2(command, cfg, name, tmp_path, capsys):
    # every size is refused before anything of that size is allocated
    if command == "fit" or "rows" in cfg:
        # a data file: a fit's three points, or ``rows`` copies of one point
        cfg = dict(cfg)
        rows = (["0.5,1.0,2,0.01"] * cfg.pop("rows") if "rows" in cfg
                else ["0.2,1.0,2,0.01", "0.5,1.5,2,0.01", "0.8,0.7,3,0.01"])
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(["x_1,z,s,sigma_eps2", *rows]) + "\n")
        cfg["data_csv"] = str(data)
    rc, out = run_cli(command, tmp_path, cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "above the limit" in err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("command,cfg,name", [
    pytest.param("figure1", {"n": None}, "figure1.n", id="figure1-n"),
    pytest.param("simulate", dict(SIM_CFG, s={"a": 1}), "simulate.s", id="simulate-s"),
    # figure and case-study configs are checked in the form they are run
    pytest.param("figure1", {"n": "40"}, "figure1.n", id="figure1-n-string"),
    pytest.param("figure1", {"n": 40.5}, "figure1.n", id="figure1-n-fraction"),
    pytest.param("figure1", {"hurst": 0.5}, "figure1.hurst", id="figure1-hurst-scalar"),
    pytest.param("figure2", {"matern": 5}, "figure2.matern", id="figure2-matern-scalar"),
    pytest.param("casestudy", {"s0": 2.5}, "casestudy.s0", id="casestudy-s0-fraction"),
    # a size is whole and finite: never truncated, and a bool is not a count
    pytest.param("curve", dict(CURVE_CFG, n=20.7), "curve.n", id="curve-n-fraction"),
    pytest.param("curve", dict(CURVE_CFG, n=True), "curve.n", id="curve-n-bool"),
    pytest.param("curve", dict(CURVE_CFG, n_designs=False), "curve.n_designs",
                 id="curve-n_designs-bool"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, p=None), "spectrum.p", id="spectrum-p-null"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, p=2.7), "spectrum.p", id="spectrum-p-fraction"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, p=math.inf), "spectrum.p", id="spectrum-p-inf"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, p="10"), "spectrum.p", id="spectrum-p-string"),
    pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": 200, "p": None}),
                 "curve.theory.p", id="curve-theory-p-null"),
    pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": 200, "p": 2.7}),
                 "curve.theory.p", id="curve-theory-p-fraction"),
    pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": None}),
                 "curve.theory.spectrum_m", id="curve-spectrum_m-null"),
    pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": 300.5}),
                 "curve.theory.spectrum_m", id="curve-spectrum_m-fraction"),
    # budgets, design sizes and dimensions: whole numbers, never truncated
    pytest.param("allocate", dict(ALLOCATE_CFG, T=12.9), "allocate.T", id="allocate-T-fraction"),
    pytest.param("allocate", dict(ALLOCATE_CFG, T=None), "allocate.T", id="allocate-T-null"),
    pytest.param("plan", dict(PLAN_CFG, T0=100.5), "plan.T0", id="plan-T0-fraction"),
    pytest.param("plan", dict(PLAN_CFG, n=True), "plan.n", id="plan-n-bool"),
    pytest.param("plan", dict(PLAN_CFG, rate=dict(PLAN_CFG["rate"], d=2.5)), "plan.rate.d",
                 id="plan-rate-d-fraction"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": [10.5]}),
                 "allocate.eta: m", id="allocate-eta-tensor-fraction"),
    # every config number, not only sizes: a bool, a string or null is refused
    pytest.param("simulate", dict(SIM_CFG, s=True), "simulate.s", id="simulate-s-bool"),
    pytest.param("simulate", dict(SIM_CFG, s="4"), "simulate.s", id="simulate-s-string"),
    pytest.param("simulate", dict(SIM_CFG, sim_seed=2.7), "simulate.sim_seed",
                 id="simulate-sim_seed-fraction"),
    pytest.param("simulate", dict(SIM_CFG, noise_level="0.01"), "simulate.noise_level",
                 id="simulate-noise_level-string"),
    pytest.param("simulate", dict(SIM_CFG, noise_level=None), "simulate.noise_level",
                 id="simulate-noise_level-null"),
    pytest.param("plan", dict(PLAN_CFG, imse_T0=True), "plan.imse_T0", id="plan-imse_T0-bool"),
    pytest.param("plan", dict(PLAN_CFG, imse_T0=None), "plan.imse_T0", id="plan-imse_T0-null"),
    pytest.param("plan", dict(PLAN_CFG, sigma_eps2_bar="0.003"), "plan.sigma_eps2_bar",
                 id="plan-sigma_eps2_bar-string"),
    pytest.param("plan", dict(PLAN_CFG, rate=dict(PLAN_CFG["rate"], nu=True)), "plan.rate.nu",
                 id="plan-rate-nu-bool"),
    pytest.param("plan", dict(PLAN_CFG, rate=dict(PLAN_CFG["rate"], nu="2.5")), "plan.rate.nu",
                 id="plan-rate-nu-string"),
    pytest.param("curve", dict(CURVE_TAU_CFG, tau_values=["0.2", "0.1"]), "curve.tau_values",
                 id="curve-tau_values-strings"),
    pytest.param("curve", dict(CURVE_TAU_CFG, tau_values=0.1), "curve.tau_values",
                 id="curve-tau_values-scalar"),
    pytest.param("curve", dict(CURVE_CFG, inv_tau={"min": None, "max": 20.0, "count": 3}),
                 "curve.inv_tau.min", id="curve-inv_tau-min-null"),
    pytest.param("fit", dict(FIT_CSV_CFG, noise=None), "fit.noise", id="fit-noise-null"),
    pytest.param("fit", dict(FIT_CSV_CFG, mean=[1]), "fit.mean", id="fit-mean-list"),
    pytest.param("fit", dict(FIT_CSV_CFG, bounds=5), "fit.bounds", id="fit-bounds-scalar"),
    # a bound is a pair [lo, hi]: three numbers or one are refused, naming the key
    pytest.param("fit", dict(FIT_CSV_CFG, bounds=[[1, 2, 3]] * 3), "fit.bounds",
                 id="fit-bounds-triples"),
    pytest.param("fit", dict(FIT_CSV_CFG, bounds=[[1]] * 3), "fit.bounds", id="fit-bounds-singles"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": [50],
                                                     "bounds": [[0.0, 0.5, 1.0]]}),
                 "allocate.eta: bounds", id="allocate-eta-bounds-triple"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": []}),
                 "allocate.eta: need one node count", id="allocate-eta-no-count"),
    # a count list of another length than the kernel's dimension, without bounds
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": [21, 21]}),
                 "allocate.eta: need one node count or one per axis of a 1-axis box",
                 id="allocate-eta-counts-per-other-dim"),
    pytest.param("allocate", dict(ALLOCATE_CFG, sigma_eps2=True), "allocate.sigma_eps2",
                 id="allocate-sigma_eps2-bool"),
    pytest.param("allocate", dict(ALLOCATE_CFG, kernel={"family": "matern1d", "nu": True}),
                 "allocate.kernel: nu", id="allocate-kernel-nu-bool"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": [50],
                                                     "bounds": [[0.0, True]]}),
                 "allocate.eta: bounds", id="allocate-eta-bounds-bool"),
    pytest.param("figure1", dict(FIGURE1_SMALL, hurst=["0.9"]), "figure1.hurst",
                 id="figure1-hurst-string"),
    # a key that another key would override unread is refused, naming both
    pytest.param("curve", dict(CURVE_CFG, tau_values=[0.2, 0.1]),
                 "curve.tau_values and curve.inv_tau", id="curve-tau_values-and-inv_tau"),
    pytest.param("allocate", dict(ALLOCATE_CSV_CFG, sigma_eps2=0.5),
                 "allocate.data_csv and allocate.sigma_eps2", id="allocate-data_csv-and-sigma_eps2"),
    pytest.param("allocate", dict(ALLOCATE_CSV_CFG, points=[[0.1], [0.5], [0.9]]),
                 "allocate.data_csv and allocate.points", id="allocate-data_csv-and-points"),
    # points and explicit nodes are lists: anything else is refused, naming the key
    pytest.param("simulate", dict(SIM_CFG, design={"type": "points", "points": None}),
                 "simulate.design.points", id="simulate-points-null"),
    pytest.param("simulate", dict(SIM_CFG, design={"type": "points", "points": 0.5}),
                 "simulate.design.points", id="simulate-points-scalar"),
    pytest.param("simulate", dict(SIM_CFG, design={"type": "points", "points": {"a": 1}}),
                 "simulate.design.points", id="simulate-points-dict"),
    pytest.param("allocate", dict(ALLOCATE_CFG, points={"a": 1}), "allocate.points",
                 id="allocate-points-dict"),
    pytest.param("allocate", dict(ALLOCATE_CFG, points=[{"a": 1}] * 3), "allocate.points",
                 id="allocate-points-dicts"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "explicit", "nodes": {"a": 1},
                                                     "weights": [1.0]}),
                 "allocate.eta: nodes", id="allocate-eta-explicit-nodes-dict"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "explicit", "nodes": [0.5],
                                                     "weights": 1.0}),
                 "allocate.eta: weights", id="allocate-eta-explicit-weights-scalar"),
])
def test_non_numeric_size_exits_2(command, cfg, name, tmp_path, capsys):
    rc, out = run_cli(command, tmp_path, cfg)
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_oversized_explicit_spectrum_measure_exits_2_before_any_work(monkeypatch, tmp_path, capsys):
    # a spectrum's m x m Gram is 3.2 GB at 20 000 nodes: the cap comes before it
    def refuse(*args, **kwargs):
        raise AssertionError("the config should have been refused before this")

    monkeypatch.setattr(cli, "nystrom_spectrum", refuse)
    rc, out = run_cli("spectrum", tmp_path, dict(SPECTRUM_CFG, measure=EXPLICIT_OVERSIZED))
    assert rc == 2
    err = capsys.readouterr().err
    assert "spectrum.measure: the node count" in err and "above the limit" in err
    assert not (out / "run_manifest.json").exists()


GAUSSIAN_2D = {"family": "gaussian", "lengthscales": [0.3, 0.3]}


@pytest.mark.parametrize("command,cfg,key", [
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "tensor_trapezoid", "m": 21,
                                                     "bounds": [[0, 1], [0, 1]]}),
                 "allocate.eta", id="allocate-eta-2d-bounds"),
    pytest.param("allocate", dict(ALLOCATE_CFG, eta={"type": "explicit", "nodes": [[0.2, 0.2], [0.8, 0.8]],
                                                     "weights": [0.5, 0.5]}),
                 "allocate.eta", id="allocate-eta-explicit-2d"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, measure={"type": "tensor_trapezoid", "m": 21,
                                                         "bounds": [[0, 1], [0, 1]]}),
                 "spectrum.measure", id="spectrum-measure-2d-bounds"),
    pytest.param("curve", dict(CURVE_CFG, kernel=GAUSSIAN_2D, theory=False), "curve.quadrature",
                 id="curve-quadrature-1d"),
])
def test_measure_of_another_dimension_exits_2(command, cfg, key, tmp_path, capsys):
    # a measure must have the kernel's dimension; the error names the key
    rc, out = run_cli(command, tmp_path, cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key}: the measure has dimension" in err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("command,cfg,key", [
    pytest.param("casestudy", {"eta_m": 1}, "casestudy.eta_m", id="casestudy-eta_m"),
    pytest.param("casestudy", {"test_grid": 1}, "casestudy.test_grid", id="casestudy-test_grid"),
    pytest.param("figure1", {"quad_m": 1}, "figure1.quad_m", id="figure1-quad_m"),
    pytest.param("figure1", {"spectrum_m": 1}, "figure1.spectrum_m", id="figure1-spectrum_m"),
    pytest.param("figure2", {"matern": {"quad_m": 1}}, "figure2.matern.quad_m",
                 id="figure2-matern-quad_m"),
    pytest.param("figure2", {"gaussian": {"quad_m": 0}}, "figure2.gaussian.quad_m",
                 id="figure2-gaussian-quad_m"),
])
def test_grid_count_below_two_exits_2_before_any_work(command, cfg, key, monkeypatch, tmp_path,
                                                      capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the config should have been refused before this")

    monkeypatch.setattr(sim_harness, "fit_hyperparameters", refuse)
    for name in ("run_figure1", "run_figure2", "run_case_study"):
        monkeypatch.setattr(cli, name, refuse)
    rc, out = run_cli(command, tmp_path, cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key}: a trapezoid grid needs at least 2 nodes" in err
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("command,cfg,key", [
    pytest.param("allocate", dict(ALLOCATE_CFG, kernel=GAUSSIAN_2D,
                                  points=[[0.1, 0.2], [0.5, 0.6], [0.9, 0.3]]),
                 "eta", id="allocate-eta"),
    pytest.param("spectrum", dict(SPECTRUM_CFG, kernel=GAUSSIAN_2D), "measure", id="spectrum-measure"),
    pytest.param("curve", dict(CURVE_CFG, kernel=GAUSSIAN_2D, theory=False), "quadrature",
                 id="curve-quadrature"),
])
def test_one_tensor_count_covers_the_kernel_dimension(command, cfg, key, tmp_path):
    # one count without bounds is the unit-box grid of the kernel's dimension,
    # the same bytes as one count per axis
    outs = []
    for name, m in (("scalar", 21), ("per_axis", [21, 21])):
        rc, out = run_cli(command, tmp_path, dict(cfg, **{key: {"type": "tensor_trapezoid", "m": m}}),
                          name=name)
        assert rc == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"})
    assert outs[0] and outs[0] == outs[1]


class TestManifest:
    def test_contents(self, tmp_path):
        rc, out = run_cli("plan", tmp_path, PLAN_CFG, seed=17)
        assert rc == 0
        with open(out / "run_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["subcommand"] == "plan"
        assert manifest["seed"] == 17
        assert manifest["version"] == __version__
        assert manifest["wall_clock_s"] > 0
        assert manifest["outputs"] == ["forecast.json"]
        for name in manifest["outputs"]:
            assert (out / name).exists()
        canon = json.dumps(PLAN_CFG, sort_keys=True, separators=(",", ":"))
        assert manifest["config_hash"] == hashlib.sha256(canon.encode()).hexdigest()

    def test_hash_tracks_config(self, tmp_path):
        _, out_a = run_cli("plan", tmp_path, PLAN_CFG, name="a")
        _, out_b = run_cli("plan", tmp_path, PLAN_CFG, name="b")
        _, out_c = run_cli("plan", tmp_path, dict(PLAN_CFG, n=50), name="c")
        h = lambda o: json.load(open(o / "run_manifest.json"))["config_hash"]
        assert h(out_a) == h(out_b)
        assert h(out_a) != h(out_c)


class TestFigureSubcommand:
    def test_figure1_smoke(self, tmp_path):
        cfg = {
            "n": 40,
            "n_designs": 2,
            "inv_tau_count": 3,
            "hurst": [0.5],
            "quad_m": 200,
            "spectrum_m": 300,
            "spectrum_p": 30,
        }
        rc, out = run_cli("figure1", tmp_path, cfg, seed=4)
        assert rc == 0
        assert (out / "figure1_h0.5.csv").exists()
        with open(out / "figure1_report.json") as fh:
            report = json.load(fh)
        assert "0.5" in report["curves"]
        with open(out / "run_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["outputs"] == ["figure1_h0.5.csv", "figure1_report.json"]


class TestEigenvectorsOnlyWhereRead:
    """The IMSE-limit spectra ask LAPACK for eigenvalues alone; spectra
    whose eigenfunctions are evaluated or written keep the full ``eigh``."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        import gpbudget.spectrum as spectrum

        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs.get("eigvals_only", False))
            return real(*args, **kwargs)

        real = spectrum.eigh
        monkeypatch.setattr(spectrum, "eigh", spy)
        return calls

    FIGURE1_SMOKE = {
        "n": 40, "n_designs": 2, "inv_tau_count": 3, "hurst": [0.5],
        "quad_m": 200, "spectrum_m": 300, "spectrum_p": 30,
    }

    @pytest.mark.parametrize("command,cfg,eigvals_only", [
        pytest.param("figure1", FIGURE1_SMOKE, True, id="figure1"),
        pytest.param("curve", dict(CURVE_CFG, theory={"spectrum_m": 200}), True, id="curve"),
        pytest.param("spectrum", dict(SPECTRUM_CFG, nodes_table=False), True, id="spectrum"),
        pytest.param("spectrum", SPECTRUM_CFG, False, id="spectrum-nodes_table"),
    ])
    def test_cli_spectra(self, command, cfg, eigvals_only, eigh_calls, tmp_path):
        rc, _ = run_cli(command, tmp_path, cfg)
        assert rc == 0
        assert eigh_calls == [eigvals_only]

    def test_case_study_truth_keeps_the_eigenvectors(self, eigh_calls):
        from gpbudget.sim_harness import SyntheticSimulator

        SyntheticSimulator()._kl
        assert eigh_calls == [False]


REPO_ROOT = Path(__file__).resolve().parents[1]
SUBPROCESS_TIMEOUT_S = 120


def plan_argv(tmp_path):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(PLAN_CFG))
    return ["plan", "--config", str(cfg), "--seed", "0",
            "--out", str(tmp_path / "out")]


def run_entry_point(target, argv):
    """Run ``module:attr`` in a fresh interpreter as pip's wrapper does.

    The wrapper's body is ``sys.exit(attr())`` with the arguments in
    ``sys.argv``, so the process exit status is whatever ``attr`` returns.
    """
    module, _, attr = target.partition(":")
    body = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    # the directory holding the imported package: src/ or site-packages
    pkg_parent = str(Path(gpbudget.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", body, *argv],
        capture_output=True, text=True, env=env, timeout=SUBPROCESS_TIMEOUT_S,
    )


def test_console_script_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gpbudget"]

    proc = run_entry_point(target, plan_argv(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "forecast.json").exists()

    # a missing --seed must reach the process exit status as 2
    bad = run_entry_point(target, ["plan", "--out", str(tmp_path / "bad")])
    assert bad.returncode == 2, bad.stderr


@pytest.mark.skipif(shutil.which("gpbudget") is None,
                    reason="gpbudget console script not installed")
def test_console_script_on_path(tmp_path):
    proc = subprocess.run(
        ["gpbudget", *plan_argv(tmp_path)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "forecast.json").exists()
