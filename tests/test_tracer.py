"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps gpbudget's functions by name in every module
that binds them, and reports a name that no module binds as missing.  A
rename in ``src/`` that drops one of those names would show up only in a
traced benchmark run; this test catches it with the unit tests.
"""

import importlib.util
from pathlib import Path

import scipy.linalg

import gpbudget.cli  # noqa: F401  (imports every module the tracer wraps)
from gpbudget import gp_core

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_target_and_uninstall_restores():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing() == []
        assert gp_core.solve_triangular is not scipy.linalg.solve_triangular
    finally:
        tracer.uninstall()
    assert gp_core.solve_triangular is scipy.linalg.solve_triangular
