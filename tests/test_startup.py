"""What ``import gpbudget`` loads, checked in a fresh interpreter.

The package imports numpy, ``scipy.linalg`` and ``scipy.special`` only;
``scipy.optimize`` is imported by ``planner.fit_hyperparameters`` at a
process's first fit.  ``scipy.stats``, ``scipy.spatial`` and the
``scipy.sparse`` they pull in are never imported.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.spatial", "scipy.optimize", "scipy.sparse")


def _loaded_after(body: str) -> list[list[str]]:
    """For each ``report()`` in ``body``, the ``HEAVY`` modules loaded at that point."""
    code = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
        f"HEAVY = {HEAVY!r}\n"
        "reports = []\n"
        "def report():\n"
        "    reports.append([m for m in HEAVY if m in sys.modules])\n"
        f"{body}\n"
        "print(json.dumps(reports))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_heavy_scipy_module():
    body = "import gpbudget, gpbudget.cli\nassert gpbudget.__file__.startswith(sys.path[0])\nreport()"
    assert _loaded_after(body) == [[]]


def test_first_fit_imports_scipy_optimize():
    body = (
        "import numpy as np\n"
        "from gpbudget.planner import fit_hyperparameters\n"
        "from gpbudget.sim_harness import latin_hypercube_design\n"
        "report()\n"
        "design = latin_hypercube_design(12, 2, 3)\n"
        "values = np.sin(design.points.sum(axis=1))\n"
        "fit_hyperparameters(design, values, noise=1e-3, seed=0, n_random=5, n_polish=1)\n"
        "report()\n"
    )
    before, after = _loaded_after(body)
    assert before == []
    assert "scipy.optimize" in after
