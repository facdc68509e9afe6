"""Start-up guard: which vve entry points load scipy.

``import vve`` and the commands that need no scipy (hv, simulate,
convergence) load none of it; calibrate and regress load scipy.special for
their p-values, never scipy.stats.  ``import vve`` also starts no thread and
does not load ``concurrent.futures``: the Monte Carlo thread pool is made at
first use.  Each check runs in a fresh interpreter, since this test process
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
], ids=["import", "hv", "simulate", "convergence"])
def test_no_scipy(argv, tmp_path):
    assert scipy_modules_after(argv, tmp_path) == []


@pytest.mark.parametrize("command", ["calibrate", "regress"])
def test_no_scipy_stats(command, tmp_path):
    modules = scipy_modules_after([command, "--csv", CSV], tmp_path)
    assert "scipy.special" in modules
    assert not [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]


def test_import_starts_no_thread(tmp_path):
    code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); import vve; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
