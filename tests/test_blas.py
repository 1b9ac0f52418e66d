"""numpy's bundled OpenBLAS held at one thread (``gpbudget._blas``).

The pin's logic is checked on fake libraries, so it runs whatever BLAS
this machine loads; the tests on the real libraries skip when only one
OpenBLAS is loaded, where the pin does nothing by design.
"""

import contextlib
import json

import numpy as np
import pytest

from gpbudget import _blas, allocation, cli, learning_curve
from gpbudget.gp_core import Design, Quadrature
from gpbudget.kernels import KernelSpec
from gpbudget.cli import ConfigError, main


class FakeOpenblas:
    """A library's thread count, with every count it was set to."""

    def __init__(self, threads):
        self.threads, self.set_to = threads, []

    def get(self):
        return self.threads

    def set(self, n):
        self.set_to.append(n)
        self.threads = n

    def library(self, name, numpy):
        return _blas._Openblas(name, self.get, self.set, numpy)


@pytest.fixture
def fake_pair(monkeypatch):
    """numpy's bundled build at 4 threads and a second OpenBLAS at 3."""
    own, other = FakeOpenblas(4), FakeOpenblas(3)
    libs = (own.library("libscipy_openblas64_.so", True), other.library("libscipy_openblas.so", False))
    monkeypatch.setattr(_blas, "_loaded", lambda: libs)
    return own, other


def _real_numpy_pool():
    lib = _blas._numpy_pool()
    if lib is None:
        pytest.skip("numpy's OpenBLAS is not loaded beside a second one, so nothing is pinned")
    return lib


class TestOneNumpyThread:
    def test_restored_after_a_normal_exit(self, fake_pair):
        own, other = fake_pair
        with _blas.one_numpy_thread():
            assert (own.threads, other.threads) == (1, 3)
        assert (own.threads, other.threads) == (4, 3)
        assert other.set_to == []

    def test_restored_after_an_exception(self, fake_pair):
        own, _ = fake_pair
        with pytest.raises(ZeroDivisionError):
            with _blas.one_numpy_thread():
                1 / 0
        assert own.threads == 4

    def test_nested_use_restores_each_level(self, fake_pair):
        own, _ = fake_pair
        with _blas.one_numpy_thread():
            with _blas.one_numpy_thread():
                assert own.threads == 1
            assert own.threads == 1
        assert own.threads == 4

    def test_no_second_openblas_is_a_no_op(self, monkeypatch):
        own = FakeOpenblas(4)
        monkeypatch.setattr(_blas, "_loaded", lambda: (own.library("libscipy_openblas64_.so", True),))
        with _blas.one_numpy_thread():
            assert own.threads == 4
        assert own.set_to == []
        assert _blas.openblas_report() == [
            {"library": "libscipy_openblas64_.so", "threads": 4, "held_at_one_thread": False}]

    def test_no_numpy_symbols_is_a_no_op(self, monkeypatch):
        a, b = FakeOpenblas(2), FakeOpenblas(2)
        monkeypatch.setattr(_blas, "_loaded", lambda: (
            a.library("libopenblas.so", False), b.library("libscipy_openblas.so", False)))
        with _blas.one_numpy_thread():
            pass
        assert a.set_to == b.set_to == []

    def test_learning_curve_designs_run_pinned(self, fake_pair, monkeypatch):
        own, other = fake_pair
        seen = []
        operator = learning_curve.ImseOperator

        def recording(*args):
            seen.append((own.threads, other.threads))
            return operator(*args)

        monkeypatch.setattr(learning_curve, "ImseOperator", recording)
        learning_curve.empirical_learning_curve(
            KernelSpec(family="brownian"), 8, [0.1, 0.01], 3, seed=2,
            quadrature=Quadrature.tensor_trapezoid(21, [(0.0, 1.0)]))
        assert seen == [(1, 3)] * 3
        assert (own.threads, other.threads) == (4, 3)
        assert own.set_to == [1, 4]

    def test_allocation_plan_runs_pinned(self, fake_pair, monkeypatch):
        own, other = fake_pair
        seen = []
        operator = allocation.ImseOperator

        def recording(*args):
            seen.append((own.threads, other.threads))
            return operator(*args)

        monkeypatch.setattr(allocation, "ImseOperator", recording)
        design = Design(np.linspace(0.1, 0.9, 5)[:, None])
        allocation.plan_allocation(KernelSpec(family="brownian"), design, np.full(5, 0.01), 20,
                                   Quadrature.tensor_trapezoid(21, [(0.0, 1.0)]))
        assert seen == [(1, 3)]
        assert (own.threads, other.threads) == (4, 3)
        assert own.set_to == [1, 4]

    def test_real_numpy_pool_restored(self):
        lib = _real_numpy_pool()
        before = lib.get_threads()
        with _blas.one_numpy_thread():
            assert lib.get_threads() == 1
        assert lib.get_threads() == before


class TestCliPin:
    @pytest.mark.parametrize("error,code", [(RuntimeError, 1), (ConfigError, 2)])
    def test_main_restores_the_count_after_a_failed_run(self, error, code, tmp_path,
                                                        monkeypatch, capsys):
        lib = _real_numpy_pool()
        before = lib.get_threads()
        seen = []

        def handler(cfg, seed, out):
            seen.append(lib.get_threads())
            raise error("refused")

        monkeypatch.setitem(cli._HANDLERS, "plan", handler)
        assert main(["plan", "--seed", "0", "--out", str(tmp_path / "out")]) == code
        assert "refused" in capsys.readouterr().err
        assert seen == [1]
        assert lib.get_threads() == before

    def test_manifest_environment(self, tmp_path, fake_pair):
        out = tmp_path / "out"
        assert main(["plan", "--seed", "0", "--out", str(out),
                     "--config", str(_write(tmp_path, PLAN_CFG))]) == 0
        env = json.loads((out / "run_manifest.json").read_text())["environment"]
        assert list(env) == ["numpy", "scipy", "openblas"]
        assert env["openblas"] == [
            {"library": "libscipy_openblas64_.so", "threads": 4, "held_at_one_thread": True},
            {"library": "libscipy_openblas.so", "threads": 3, "held_at_one_thread": False},
        ]
        assert fake_pair[0].set_to == [1, 4]


PLAN_CFG = {
    "imse_T0": 1.0e-3, "T0": 100, "sigma_eps2_bar": 3.3e-3,
    "rate": {"family": "matern_tensor", "nu": 1.31, "d": 2}, "target_imse": 2.0e-4,
}
FIGURE2_SMALL = {"n": 60, "n_designs": 2,
                 "matern": {"quad_m": 30, "inv_tau_count": 4},
                 "gaussian": {"quad_m": 600, "inv_tau_count": 4}}
SIM_CFG = {"design": {"type": "lhs", "n": 40}, "s": 3, "truth": "sine1d",
           "noise_level": 1e-3, "sim_seed": 5}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _outputs(command, cfg, tmp_path, name):
    out = tmp_path / name
    assert main([command, "--seed", "7", "--out", str(out),
                 "--config", str(_write(tmp_path, cfg, f"{name}.json"))]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_manifest.json"}


@pytest.mark.parametrize("command", ["figure2", "fit"])
def test_the_pin_leaves_the_bytes_unchanged(command, tmp_path, monkeypatch):
    if command == "fit":
        sim = tmp_path / "sim"
        assert main(["simulate", "--seed", "3", "--out", str(sim),
                     "--config", str(_write(tmp_path, SIM_CFG, "sim.json"))]) == 0
        cfg = {"data_csv": str(sim / "observations.csv"), "n_random": 30, "n_polish": 2}
    else:
        cfg = FIGURE2_SMALL
    pinned = _outputs(command, cfg, tmp_path, "pinned")
    monkeypatch.setattr(_blas, "one_numpy_thread", contextlib.nullcontext)
    unpinned = _outputs(command, cfg, tmp_path, "unpinned")
    assert pinned and pinned == unpinned
