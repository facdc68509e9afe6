"""Start-up guard: which vve entry points load scipy.

``import vve`` and the commands that need no scipy (hv, simulate,
convergence, and a formula and Black-Scholes price at c1 = 0, where the
formula is the closed form) load none of it; calibrate and regress load
scipy.special for their p-values, never scipy.stats; a formula price at
c1 > 0, and the Greeks of one, load scipy's tridiagonal solver and none of
its quadrature, interpolation, root finding or special functions.  ``import vve`` also starts no thread and
does not load ``concurrent.futures``: the block engine's thread pool is made
per call.  Each check runs in a fresh interpreter, since this test process
has imported scipy long before.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
CSV = str(Path(__file__).parent / "data" / "vve_synthetic.csv")

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
argv = json.loads(sys.argv[2])
if argv:
    import vve.cli
    code = vve.cli.main(argv)
else:
    import vve
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules_after(argv, tmp_path):
    """Exit code and scipy modules loaded by a fresh interpreter running ``vve argv``."""
    if argv:
        argv = [*argv, "--out-dir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), json.dumps(argv)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0, proc.stderr
    return modules


@pytest.mark.parametrize("argv", [
    [],
    ["hv", "--csv", CSV],
    ["simulate", "--c1", "5e-4", "--paths", "20", "--steps", "16"],
    ["convergence", "--c1", "5e-4", "--paths", "16", "--levels", "4,8"],
    ["price", "--method", "formula,bs", "--c1", "0"],
], ids=["import", "hv", "simulate", "convergence", "price_c1_zero"])
def test_no_scipy(argv, tmp_path):
    assert scipy_modules_after(argv, tmp_path) == []


@pytest.mark.parametrize("command", ["calibrate", "regress"])
def test_no_scipy_stats(command, tmp_path):
    modules = scipy_modules_after([command, "--csv", CSV], tmp_path)
    assert "scipy.special" in modules
    assert not [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]


GREEKS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from vve.pricing import OptionSpec, RiskNeutralParams, greeks_bump, price_formula
greeks_bump(price_formula, RiskNeutralParams(0.2, 1e-4, 100.0, 0.05), OptionSpec(100.0, 1.0, 0.05))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def assert_only_the_tridiagonal_solver(modules):
    assert "scipy.linalg.lapack" in modules
    for name in ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special"):
        assert name not in modules


def test_law_price_loads_only_the_tridiagonal_solver(tmp_path):
    assert_only_the_tridiagonal_solver(
        scipy_modules_after(["price", "--c1", "1e-4", "--method", "formula"], tmp_path))


def test_law_greeks_load_only_the_tridiagonal_solver(tmp_path):
    proc = subprocess.run([sys.executable, "-c", GREEKS, str(SRC)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert_only_the_tridiagonal_solver(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_import_starts_no_thread(tmp_path):
    code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); import vve; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
