"""Golden check of the ``vve`` CLI against an earlier commit.

    python3 tools/golden_cli.py --base HEAD~1

Extracts ``src/`` and ``tests/data/`` of ``--base`` with ``git archive`` into
a temporary directory (no worktree, no checkout change), runs a fixed list of
``vve`` commands from that tree and from this working tree, and compares every
output file, stdout, stderr and exit code.  The config files that some
commands read are written to the same temporary directory, which ``{tmp}`` in
a command names.  Before the comparison, stdout and stderr name the output
directory ``<out>`` and the tree the command ran from ``<tree>``, and a line
number in a ``vve`` source file (``<tree>/src/vve/sde.py:403`` in a numpy
warning, ``line 403`` in a traceback) reads ``<line>``, so that a warning
raised by the same code, moved within its file, compares equal.  Prints one
line per command and each difference; exits 1 if any command differs.  Uses
the standard library only.
"""

from __future__ import annotations

import argparse
import io
import os
import re
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
    # a block is drawn and stepped in two row halves: 501 and 500 rows, and a full
    # block's two halves followed by a 1-row block
    ("simulate_odd_halves", ["simulate", "--c1", "5e-4", "--paths", "1001", "--steps", "33"]),
    ("convergence_block_plus_one", ["convergence", "--c1", "5e-4", "--paths", "4097",
                                    "--levels", "8,16,32"]),
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
    # levels step grouped sums of the block's increments: groups 6, 2 and 1 against
    # the exact reference, 72, 24 and 8 against the refined one, whose 45-step level
    # crosses a panel seam
    ("convergence_exact_groups", ["convergence", "--c1", "0", "--levels", "2,6,12"]),
    ("convergence_refined_groups", ["convergence", "--c1", "5e-4", "--levels", "5,15,45"]),
    # a study too long for one column window: 1000 paths x 4800 refined steps in
    # windows of 1008 (a whole step of groups 24, 16 and 8 is 48 columns) and a last
    # one of 768; 1200 exact steps in windows of 1044 (groups 6, 4 and 1) and 156
    ("convergence_window_seams", ["convergence", "--c1", "5e-4", "--levels", "200,300,600"]),
    ("convergence_exact_window_seams", ["convergence", "--c1", "0",
                                        "--levels", "200,300,1200"]),
    # law formula quotes: a short and a long maturity, a grid top capped near
    # 1e30 x s0 (c1 s0 = 10), a grid depth beyond the float range (c1 s0 = 100),
    # a drift the grid cannot follow (r = 800), and a strike above the grid top
    # (K = 1e308)
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
    # drifts r tau of 600, 600 and 336 that carry the law past the grid (its reach is its
    # depth below the spot, 3.65, 3.65 and 7.38): refused before the first step
    ("error_formula_drift_past_grid", ["price", "--method", "formula", "--c1", "1e-3",
                                       "--r", "600"]),
    ("error_formula_drift_past_grid_long", ["price", "--method", "formula", "--c1", "1e-3",
                                            "--r", "300", "--maturity", "2"]),
    ("error_formula_drift_past_grid_short", ["price", "--method", "formula", "--c1", "0.01",
                                             "--r", "1345", "--maturity", "0.25"]),
    ("price_formula_strike_above_grid", ["price", "--method", "formula", "--strike", "1e308"]),
    # so short a maturity that the law grid's nodes collide in floating point
    ("error_formula_tiny_maturity", ["price", "--method", "formula", "--maturity", "1e-100"]),
    # a zero strike: d, d1 and d2 are infinite, written as null
    ("price_zero_strike", ["price", "--method", "formula,bs", "--strike", "0"]),
    # sigma^2 beyond the float range, and an exact reference that leaves it
    ("error_bs_sigma_overflow", ["price", "--method", "bs", "--sigma", "1e300"]),
    ("error_convergence_overflow", ["convergence", "--mu", "1e300", "--levels", "8,16",
                                    "--paths", "64"]),
    # closed-form paths whose exponential overflows (a NaN denominator), and Monte
    # Carlo payoffs whose spread overflows
    ("simulate_exact_overflow", ["simulate", "--scheme", "exact", "--mu", "1e300",
                                 "--paths", "8", "--steps", "8"]),
    # closed-form values beyond the float range over a finite denominator: flagged, null
    ("simulate_exact_value_overflow", ["simulate", "--scheme", "exact", "--paths", "8",
                                       "--steps", "8", "--mu=1e3", "--s0=1e300"]),
    ("simulate_exact_value_overflow_long", ["simulate", "--scheme", "exact", "--paths", "8",
                                            "--steps", "8", "--s0=1e300", "--horizon=1e3"]),
    ("error_mc_overflow", ["price", "--method", "mc", "--paths", "64", "--steps", "8",
                           "--r", "1e300"]),
    # exponentials beyond the float range: each method's discount at a large negative
    # rate (the law route's drift, 1000, is past its grid first).  sigma = c1 = 0, whose
    # deterministic growth once overflowed here, is refused as a riskless asset.  The
    # c1 = 0 formula is Black-Scholes, so the "error_" commands at c1 = 0 below keep the
    # names of the candidate map's refusals (here exp(gamma T) underflowing to 0) and now
    # price where Black-Scholes prices
    ("error_formula_discount_overflow", ["price", "--method", "formula", "--r=-1e3"]),
    ("error_mc_discount_overflow", ["price", "--method", "mc", "--paths", "64",
                                    "--steps", "8", "--r=-1e3"]),
    ("error_bs_discount_overflow", ["price", "--method", "bs", "--r=-1e3"]),
    ("error_mc_deterministic_overflow", ["price", "--method", "mc", "--sigma", "0",
                                         "--c1", "0", "--r", "1e3"]),
    ("error_formula_closed_form_underflow", ["price", "--method", "formula", "--c1", "0",
                                             "--sigma", "1e3"]),
    # the closed form divides by sigma; its division by drift - sigma^2/2 is removable
    ("simulate_exact_mu_half_sigma_sq", ["simulate", "--scheme", "exact", "--mu", "0.02"]),
    # mu - sigma^2/2 is exactly 0 here (0.02 above leaves -3.5e-18): the integral is t
    ("simulate_exact_gamma_zero", ["simulate", "--scheme", "exact", "--mu", "0.5", "--sigma", "1",
                                   "--c1", "5e-4", "--paths", "8", "--steps", "16"]),
    ("convergence_exact_gamma_zero", ["convergence", "--c1", "0", "--mu", "0.5", "--sigma", "1",
                                      "--levels", "8,16", "--paths", "64"]),
    # the closed form's own refusals: sigma = 0, and sigma^2 beyond the float range
    ("error_exact_sigma_zero", ["simulate", "--scheme", "exact", "--sigma", "0", "--c1", "5e-4"]),
    ("error_exact_sigma_overflow", ["simulate", "--scheme", "exact", "--sigma", "1e200",
                                    "--paths", "8", "--steps", "8"]),
    ("price_formula_r_half_sigma_sq", ["price", "--method", "formula", "--c1", "0",
                                       "--r", "0.02"]),
    # the c1 = 0 formula is Black-Scholes, which prices at a volatility and a rate whose
    # candidate map leaves the float range
    ("price_formula_c1_zero_high_vol", ["price", "--method", "formula,bs", "--c1", "0",
                                        "--sigma", "30"]),
    ("price_formula_c1_zero_high_rate", ["price", "--method", "formula,bs", "--c1", "0",
                                         "--r", "800"]),
    # sigma = c1 = 0 is a riskless asset, which every method refuses
    ("error_formula_sigma_zero", ["price", "--method", "formula", "--c1", "0",
                                  "--sigma", "0"]),
    # sigma = 0 with c1 > 0 is the constant-elasticity model, which the law route prices
    ("price_formula_sigma_zero", ["price", "--method", "formula", "--sigma", "0",
                                  "--c1", "5e-3"]),
    # the CVE model at a negative rate (one-sided drift rates in the lower tail), and
    # with a drift of 5.7 deviations at the spot, which the grid follows with a segment
    ("price_formula_cve_negative_rate", ["price", "--method", "formula", "--sigma", "0",
                                         "--c1", "5e-3", "--r=-0.3"]),
    ("price_formula_drift_dominated", ["price", "--method", "formula", "--sigma", "0",
                                       "--c1", "5e-4", "--r", "0.2", "--maturity", "2",
                                       "--strike", "150"]),
    # every method at expiry (t = maturity) quotes the intrinsic value
    ("price_at_expiry", ["price", "--method", "formula,mc,bs", "--t", "1"]),
    # a tiny spot, where the candidate map's denominator underflowed to 0
    ("error_formula_den_underflow", ["price", "--method", "formula", "--c1", "0",
                                     "--s0", "1e-300", "--sigma", "10", "--r", "40"]),
    # two flags at float-range edges: the candidate map's inverse with c - a x = 0 (sigma
    # s0 underflows) and with b x = 0 (sigma K underflows), Black-Scholes with sigma sqrt(tau)
    # = 0 and with s0 / K = 0, the law grid's top capped below the float max (s0 1e300),
    # and a law grid so narrow (alpha = 1e-298) that its nodes beside the spot collide in
    # floating point (at r = 0: the default drift, r tau = 0.05, is past it first)
    ("error_formula_inverse_zero_den", ["price", "--method", "formula", "--c1", "0",
                                        "--sigma", "1e-300", "--s0", "1e-300"]),
    ("error_formula_inverse_zero_num", ["price", "--method", "formula", "--c1", "0",
                                        "--sigma", "1e-300", "--strike", "1e-300"]),
    ("error_bs_zero_vol", ["price", "--method", "bs", "--sigma", "1e-300",
                           "--maturity", "1e-300"]),
    ("error_bs_zero_moneyness", ["price", "--method", "bs", "--s0", "1e-300",
                                 "--strike", "1e300"]),
    ("price_formula_grid_top_s0_1e300", ["price", "--method", "formula", "--c1", "1e-300",
                                         "--s0", "1e300"]),
    ("error_formula_grid_step_underflow", ["price", "--method", "formula", "--sigma", "1e-300",
                                           "--c1", "1e-300", "--r", "0"]),
    # a spot whose e^69 multiple overflows: the capped top prices Black-Scholes at c1 s0 =
    # 1e-10; and a spot so near the float max that no top 12 deviations above it is a float
    ("price_formula_grid_top_s0_1e290", ["price", "--method", "formula,bs", "--c1", "1e-300",
                                         "--s0", "1e290", "--strike", "1e290"]),
    ("error_formula_grid_top_no_room", ["price", "--method", "formula", "--c1", "1e-320",
                                        "--s0", "5e307", "--strike", "5e307"]),
    # the merged configuration: option defaults, config files and their precedence
    *((f"show_config_{cmd}", [cmd, "--show-config"])
      for cmd in ("simulate", "calibrate", "price", "convergence", "hv", "regress")),
    ("show_config_price_file", ["price", "--config", "{tmp}/cfg.json", "--show-config"]),
    ("error_config_malformed", ["price", "--method", "bs", "--config", "{tmp}/bad.json"]),
    # a CSV path that is a directory: a JSON error line, not a traceback
    ("error_hv_csv_directory", ["hv", "--csv", "src"]),
    # usage errors: a flag that price no longer has, and a flag's unreadable value
    ("error_flag_tol_removed", ["price", "--method", "formula", "--tol", "1e-10"]),
    ("error_flag_bad_value", ["price", "--method", "bs", "--paths", "abc"]),
]


def extract(rev: str, dest: Path) -> None:
    """Write ``src/`` and ``tests/data/`` of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "tests/data"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


#: a line number in a vve source file, as a warning (``:403:``) or a traceback
#: (``", line 403``) gives it
VVE_LINE = re.compile(rb'(<tree>/src/vve/[^\s:"]+\.py)(:|", line )\d+')


def neutral(text: bytes, tree: Path, out: Path) -> bytes:
    """``text`` with the output directory, the tree and vve line numbers as markers."""
    text = text.replace(str(out).encode(), b"<out>").replace(str(tree).encode(), b"<tree>")
    return VVE_LINE.sub(rb"\1\2<line>", text)


def run(tree: Path, argv: list[str], out: Path, tmp: str) -> dict[str, bytes]:
    """Run one command from ``tree``; return its outputs keyed by name."""
    argv = [arg.format(tmp=tmp) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "vve.cli", *argv, "--out-dir", str(out)],
                          cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True)
    result = {"exit code": str(proc.returncode).encode(),
              "stdout": neutral(proc.stdout, tree, out),
              "stderr": neutral(proc.stderr, tree, out)}
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
