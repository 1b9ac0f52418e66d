"""Frozen records keep only arrays they own: every field is stored through
``kernels._keep`` (checked on the syntax tree), and a record built from a
caller's arrays leaves them writeable and keeps none of them."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gpbudget.allocation import AllocationPlan
from gpbudget.gp_core import Design, ObservationSet, Predictor
from gpbudget.kernels import KernelSpec

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gpbudget"


def freezing_calls(source: str) -> list[str]:
    """The enclosing function's name (``<module>`` outside one) of each call
    to ``object.__setattr__`` or ``.setflags(``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                func.attr == "setflags"
                or func.attr == "__setattr__" and getattr(func.value, "id", None) == "object"
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_finds_every_freezing_call():
    source = ("a.setflags(write=False)\n"
              "def f(a):\n    a.setflags(write=False)\n"
              "class C:\n    def g(self):\n        object.__setattr__(self, 'x', 1)\n"
              "        self.__setattr__('y', 2)\n")
    assert freezing_calls(source) == ["<module>", "f", "g"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_helper_stores_record_fields(path):
    expected = {"_keep"} if path.name == "kernels.py" else set()
    assert set(freezing_calls(path.read_text())) == expected


def _observation_set():
    means, se2, s = np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.2, 0.6]), np.array([1, 2, 3])
    return ObservationSet(means, se2, s), {"means": means, "sigma_eps2": se2, "s": s}


def _allocation_plan():
    s_real, s_int = np.array([1.5, 2.5, 6.0]), np.array([2, 2, 6])
    plan = AllocationPlan(s_real=s_real, budget=10, i_star=0, s_int=s_int)
    return plan, {"s_real": s_real, "s_int": s_int}


def _predictor():
    noise, chol, weights = np.full(2, 0.1), np.eye(2), np.array([0.5, -0.5])
    design = Design(np.array([[0.2], [0.7]]))
    pred = Predictor(KernelSpec(family="brownian"), design, 0.0, noise, chol, weights)
    return pred, {"noise": noise, "chol": chol, "weights": weights}


def _design():
    points = np.array([[0.2], [0.7]])
    return Design(points), {"points": points}


@pytest.mark.parametrize("build", [_observation_set, _allocation_plan, _predictor, _design],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_callers_arrays_stay_writeable_and_unshared(build):
    record, given = build()
    kept = {name: getattr(record, name).copy() for name in given}
    for name, arr in given.items():
        assert arr.flags.writeable, name
        arr[0] = 7
    for name, before in kept.items():
        after = getattr(record, name)
        assert not after.flags.writeable, name
        assert after.tobytes() == before.tobytes(), name
    if isinstance(record, ObservationSet):
        assert record.noise_var.tobytes() == (record.sigma_eps2 / record.s).tobytes()
