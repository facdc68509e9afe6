"""Start-up guard: which vve entry points load scipy.

``import vve`` and the commands that need no scipy (hv, simulate,
convergence, and a formula and Black-Scholes price at c1 = 0, where the
formula is the closed form) load none of it; calibrate and regress load
scipy.special for their p-values, never scipy.stats; a formula price at
c1 > 0, and the Greeks of one, load scipy's f2py LAPACK module
``scipy.linalg._flapack`` and no other module of the ``scipy.linalg``
package, nor scipy's quadrature, interpolation, root finding or special
functions.  ``import vve`` also starts no thread and does not load
``concurrent.futures``: the block engine's thread pool is made per call.
Each check runs in a fresh interpreter, since this test process has imported
scipy long before.  The LAPACK loader (``vve.law._lapack``) is checked to
give scipy's own functions, in this process, in a fresh one, under threads
and on its fallback import.
"""

import importlib.machinery
import json
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg.lapack

from vve import law

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
    assert "scipy.linalg._flapack" in modules
    assert "scipy.linalg" not in modules and "scipy.linalg.lapack" not in modules
    assert [m for m in modules if m.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]
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


def run_child(code, tmp_path):
    """The last stdout line of a fresh interpreter running ``code``, as JSON."""
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_lapack_is_scipys():
    assert law._lapack() is sys.modules["scipy.linalg._flapack"]
    assert law._lapack().dgttrf is scipy.linalg.lapack.dgttrf
    assert law._lapack().dgttrs is scipy.linalg.lapack.dgttrs


IDENTITY = """
import gc, json, sys, types
sys.path.insert(0, sys.argv[1])
from vve import law
from vve.pricing import OptionSpec, RiskNeutralParams, price_formula
price_formula(RiskNeutralParams(0.2, 1e-4, 100.0, 0.05), OptionSpec(100.0, 1.0, 0.05))
before = "scipy.linalg" in sys.modules
import scipy.linalg.lapack
lapack = law._lapack()
print(json.dumps([before, lapack is sys.modules["scipy.linalg._flapack"],
                  scipy.linalg.lapack._flapack is lapack,
                  scipy.linalg.lapack.dgttrf is lapack.dgttrf,
                  scipy.linalg.lapack.dgttrs is lapack.dgttrs,
                  sum(isinstance(o, types.ModuleType) and o.__name__ == "scipy.linalg._flapack"
                      for o in gc.get_objects())]))
"""


def test_lapack_then_scipy_linalg_share_one_module(tmp_path):
    # a later import of scipy.linalg reuses the module the quote loaded
    assert run_child(IDENTITY, tmp_path) == [False, True, True, True, True, 1]


STRESS = """
import gc, json, sys, threading, types
sys.path.insert(0, sys.argv[1])
from vve import law
from vve.pricing import RiskNeutralParams

KEYS = [(RiskNeutralParams(0.2, c1, 100.0, 0.05), 0.5) for c1 in (1e-4, 5e-4, 1e-4, 1e-3)]
STRIKES = (80.0, 100.0, 120.0)
barrier, prices = threading.Barrier(len(KEYS)), {}


def first_quotes(i):
    barrier.wait()
    prices[i] = [law.law_map(*KEYS[i]).price(k) for k in STRIKES]


interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_quotes, args=(i,)) for i in range(len(KEYS))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
alive = sum(t.is_alive() for t in threads)
law.law_map.cache_clear()
law._law_solves.cache_clear()
serial = [[law.law_map(*key).price(k) for k in STRIKES] for key in KEYS]
print(json.dumps([alive, [prices.get(i) == serial[i] for i in range(len(KEYS))],
                  sorted(m for m in sys.modules if m.startswith("scipy.linalg")),
                  sum(isinstance(o, types.ModuleType) and o.__name__ == "scipy.linalg._flapack"
                      for o in gc.get_objects())]))
"""


def test_threads_first_load_lapack_once(tmp_path):
    # 4 threads, more than a 2-core host's cores, make the process's first c1 > 0 law
    # solves together, switching often: every price is the serial one, bit for bit
    assert run_child(STRESS, tmp_path) == [0, [True] * 4, ["scipy.linalg._flapack"], 1]


def test_lapack_fallback_without_a_spec(monkeypatch):
    # scipy not installed as plain files: the module comes from the package import
    find_spec, asked = importlib.machinery.PathFinder.find_spec, []

    def no_flapack_spec(name, path=None, target=None):
        if name == "scipy.linalg._flapack":
            asked.append(path)
            return None
        return find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_flapack_spec)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    law._lapack.cache_clear()
    try:
        lapack = law._lapack()
    finally:
        law._lapack.cache_clear()
    assert len(asked) == 1
    assert lapack is scipy.linalg.lapack._flapack
    assert lapack.dgttrf is scipy.linalg.lapack.dgttrf
