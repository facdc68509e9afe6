"""Golden check of the ``vve`` CLI against an earlier commit.

    python3 tools/golden_cli.py --base HEAD~1

Extracts ``src/`` and ``tests/data/`` of ``--base`` with ``git archive`` into
a temporary directory (no worktree, no checkout change), runs a fixed list of
``vve`` commands from that tree and from this working tree, and compares every
output file, stdout, stderr and exit code.  The config files that some
commands read are written to the same temporary directory, which ``{tmp}`` in
a command names.  Output directories are written as
``<out>`` in stdout and stderr before the comparison.  Prints one line per
command and each difference; exits 1 if any command differs.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CSV = "tests/data/vve_synthetic.csv"

#: config files written under the temporary directory; ``{tmp}`` in an argv names it
CONFIGS = {
    # float values, flat and per command; the price section beats the flat keys
    "cfg.json": '{"sigma": 0.3, "strike": 95.0, "window": 40,'
                ' "price": {"c1": 0.0002, "maturity": 0.5, "strike": 105.0},'
                ' "simulate": {"sigma": 0.9}}',
    "bad.json": '{"sigma": 0.3,',
}

#: (name, argv) run from each tree's root; the CSV path is relative to it
COMMANDS = [
    ("calibrate", ["calibrate", "--csv", CSV]),
    ("hv", ["hv", "--csv", CSV]),
    ("regress", ["regress", "--csv", CSV]),
    ("simulate", ["simulate", "--c1", "5e-4", "--seed", "1"]),
    ("convergence", ["convergence", "--c1", "5e-4"]),
    ("price", ["price", "--method", "formula,bs", "--c1", "5e-4"]),
    ("price_default", ["price"]),
    ("price_mc_bs", ["price", "--method", "mc,bs"]),
    ("price_c1_zero", ["price", "--c1", "0", "--method", "formula,bs,mc"]),
    ("convergence_c1_zero", ["convergence", "--c1", "0"]),
    ("simulate_milstein", ["simulate", "--scheme", "milstein", "--c1", "5e-4"]),
    ("simulate_exact", ["simulate", "--scheme", "exact", "--c1", "5e-4"]),
    ("simulate_exact_c1_zero", ["simulate", "--scheme", "exact", "--c1", "0"]),
    # 4099 paths cross a 4096-path block seam; c1 = 0.05 explodes closed-form paths
    ("simulate_block_seam", ["simulate", "--paths", "4099", "--steps", "64", "--c1", "5e-4"]),
    ("simulate_exact_exploding", ["simulate", "--scheme", "exact", "--sigma", "0.3",
                                  "--c1", "0.05", "--steps", "64"]),
    # 8195 paths are three blocks, the last partial: block-order error sums and exact rows
    ("convergence_multi_block", ["convergence", "--c1", "5e-4", "--paths", "8195",
                                 "--levels", "8,16,32"]),
    ("simulate_exact_multi_block", ["simulate", "--scheme", "exact", "--c1", "5e-4",
                                    "--paths", "8195", "--steps", "16"]),
    # the step kernel's scheme stacks: either order, one scheme, and Euler rows that
    # overflow and are guarded (c1 = 0.2 at 16 and 32 steps); 33 steps cross a panel seam
    ("convergence_milstein_euler", ["convergence", "--c1", "5e-4", "--scheme", "milstein,euler"]),
    ("convergence_milstein", ["convergence", "--c1", "5e-4", "--scheme", "milstein"]),
    ("convergence_euler_exploding", ["convergence", "--c1", "0.2", "--levels", "8,16,32"]),
    ("simulate_milstein_panel_seam", ["simulate", "--scheme", "milstein", "--c1", "5e-4",
                                      "--steps", "33"]),
    # the one closed-form path explodes at once: every later column has no mean
    ("simulate_exact_all_exploded", ["simulate", "--scheme", "exact", "--sigma", "0.5",
                                     "--c1", "0.2", "--paths", "1", "--steps", "50",
                                     "--seed", "1"]),
    # every path is absorbed at 0 on the finer levels: a zero error, no fitted slope
    ("convergence_zero_error", ["convergence", "--c1", "5", "--levels", "8,16,32"]),
    # law-map formula quotes: a short and a long maturity, a grid top capped near
    # 1e30 x s0 (c1 s0 = 10), a grid depth beyond the float range (c1 s0 = 100),
    # exp(r t) beyond it (r = 800), and a law-map value beyond it (K = 1e308)
    ("price_formula_short", ["price", "--method", "formula", "--c1", "1e-3",
                             "--maturity", "0.25", "--strike", "90"]),
    ("price_formula_long", ["price", "--method", "formula", "--c1", "2e-3",
                            "--maturity", "2"]),
    ("price_formula_top_capped", ["price", "--method", "formula", "--c1", "0.01",
                                  "--s0", "1000", "--strike", "1000"]),
    ("error_formula_out_of_range", ["price", "--method", "formula", "--c1", "0.1",
                                    "--s0", "1000", "--strike", "1000"]),
    ("error_formula_rate_overflow", ["price", "--method", "formula", "--c1", "1e-3",
                                     "--r", "800"]),
    ("error_formula_strike_overflow", ["price", "--method", "formula", "--strike", "1e308"]),
    # guard errors: the closed form divides by sigma and by drift - sigma^2/2
    ("error_exact_mu_half_sigma_sq", ["simulate", "--scheme", "exact", "--mu", "0.02"]),
    ("error_formula_r_half_sigma_sq", ["price", "--method", "formula", "--c1", "0",
                                       "--r", "0.02"]),
    ("error_formula_sigma_zero", ["price", "--method", "formula", "--c1", "0",
                                  "--sigma", "0"]),
    # the merged configuration: option defaults, config files and their precedence
    *((f"show_config_{cmd}", [cmd, "--show-config"])
      for cmd in ("simulate", "calibrate", "price", "convergence", "hv", "regress")),
    ("show_config_price_file", ["price", "--config", "{tmp}/cfg.json", "--show-config"]),
    ("error_config_malformed", ["price", "--method", "bs", "--config", "{tmp}/bad.json"]),
]


def extract(rev: str, dest: Path) -> None:
    """Write ``src/`` and ``tests/data/`` of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "tests/data"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, argv: list[str], out: Path, tmp: str) -> dict[str, bytes]:
    """Run one command from ``tree``; return its outputs keyed by name."""
    argv = [arg.format(tmp=tmp) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "vve.cli", *argv, "--out-dir", str(out)],
                          cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True)
    mark = str(out).encode()
    result = {"exit code": str(proc.returncode).encode(),
              "stdout": proc.stdout.replace(mark, b"<out>"),
              "stderr": proc.stderr.replace(mark, b"<out>")}
    if out.is_dir():
        result.update({f"file {p.name}": p.read_bytes() for p in sorted(out.iterdir())})
    return result


def first_diff(a: bytes, b: bytes) -> str:
    """Where two byte strings first differ, with the lines there."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(a_lines, b_lines)):
        if x != y:
            return f"line {i + 1}: {x[:160]!r} -> {y[:160]!r}"
    return f"{len(a_lines)} -> {len(b_lines)} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    n_differ = 0
    with tempfile.TemporaryDirectory(prefix="vve_golden_") as tmp:
        base = Path(tmp) / "base"
        extract(args.base, base)
        for file_name, text in CONFIGS.items():
            (Path(tmp) / file_name).write_text(text)
        for name, cmd in COMMANDS:
            before = run(base, cmd, Path(tmp) / "out_base" / name, tmp)
            after = run(ROOT, cmd, Path(tmp) / "out_head" / name, tmp)
            diffs = []
            for key in sorted(before.keys() | after.keys()):
                if key not in before or key not in after:
                    diffs.append(f"{key}: only in {'base' if key in before else 'working tree'}")
                elif before[key] != after[key]:
                    diffs.append(f"{key}: {first_diff(before[key], after[key])}")
            print(f"{'DIFFERS' if diffs else 'same   '} {name}: vve {' '.join(cmd)} "
                  f"(exit {after['exit code'].decode()}, {len(after)} outputs)")
            for line in diffs:
                print(f"    {line}")
            n_differ += bool(diffs)
    print(f"{len(COMMANDS) - n_differ} of {len(COMMANDS)} commands identical to {args.base}")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main())
