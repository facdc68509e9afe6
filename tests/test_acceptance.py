"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 4 compares price_formula with an independent Monte Carlo price of
the SDE at 3 standard errors.  At c1 > 0 price_formula evaluates its formula
on the model's law map F^{-1}(Phi(z)) as E[(X - K')^+] on the law solve's
node sums (vve.law.law_map), with no quadrature; its one discretisation
is the law grid, which criterion 9 halves.  The paper's closed-form
solution map, which does not satisfy the SDE for c1 > 0 (see the vve.sde
module docstring and README), stays reachable through the formula's
quadrature in the test oracles (candidate_quote below); its companion test
pins that the candidate sits systematically above Monte Carlo by far more
than 3 standard errors.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from oracles import _CandidateMap, _formula_quote, brute_force_ols
from vve import io
from vve.calibration import calibrate_vve, ols_fit
from vve.cli import main
from vve.model import ModelParams, elasticity, elasticity_derivative, volatility
from vve.pricing import (
    LAW_NODES_BELOW,
    LAW_STEPS,
    OptionSpec,
    RiskNeutralParams,
    _richardson,
    law_map,
    price_bs,
    price_formula,
    price_mc,
)
from vve.sde import forward_map, inverse_map, strong_convergence

DATA = Path(__file__).parent / "data"

VVE_PARAMS = ModelParams(mu=0.05, sigma=0.2, c1=5e-4, s0=100.0)
GBM_PARAMS = ModelParams(mu=0.05, sigma=0.2, c1=0.0, s0=100.0)
DT_LEVELS = [2.0 ** -k for k in range(6, 12)]

# criterion 4 grid: (sigma, c1, s0, r, K, T) with 1e6 paths, 500 steps
C4_GRID = [(c1, k) for c1 in (1e-4, 5e-4) for k in (90.0, 100.0, 110.0)]
C4_PATHS = 1_000_000
C4_STEPS = 500
C4_SEED = 2024


def emit(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def candidate_quote(rn, opt):
    """The formula's quadrature on the paper's closed-form candidate map."""
    return _formula_quote(rn, opt, 1e-10, _CandidateMap(rn, opt))


@functools.lru_cache(maxsize=1)
def criterion4_quotes():
    """Formula, candidate-map and MC quotes on the criterion-4 grid (cached: ~2 min of MC)."""
    rows = []
    for c1, strike in C4_GRID:
        rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.05)
        opt = OptionSpec(strike=strike, maturity=1.0, rate=0.05)
        rows.append({
            "c1": c1, "strike": strike,
            "formula": price_formula(rn, opt),
            "candidate": candidate_quote(rn, opt),
            "mc": price_mc(rn, opt, C4_PATHS, C4_STEPS, C4_SEED),
        })
    return tuple(rows)


def test_criterion_01_closed_form_verification(capsys):
    """Mean terminal |closed form - Euler| on shared paths, slope in [0.35, 0.65].

    The criterion's own failure protocol: if the closed form does not verify,
    document the discrepancy and switch the convergence reference to a
    refined-Euler path (never silently pass, never patch the formula).
    """
    start = time.perf_counter()
    exact_ref = strong_convergence(VVE_PARAMS, 1.0, DT_LEVELS, 1000, seed=0,
                                   scheme="euler", reference="exact")
    decreasing = bool(np.all(np.diff(exact_ref.strong_errors) < 0))
    verified = decreasing and 0.35 <= exact_ref.fitted_slope <= 0.65

    if verified:
        elapsed = time.perf_counter() - start
        emit(capsys, f"ACCEPTANCE  1: PASS — closed form verified, "
                     f"slope={exact_ref.fitted_slope:.3f}, {elapsed:.1f}s")
        assert elapsed < 60.0
        return

    # Protocol path: the closed form failed verification (errors plateau at
    # O(1) instead of shrinking ~ sqrt(dt)); reference switches to refined
    # Euler, under which the scheme exhibits its proper strong order.
    refined = strong_convergence(VVE_PARAMS, 1.0, DT_LEVELS, 1000, seed=0,
                                 scheme="euler", reference="refined")
    elapsed = time.perf_counter() - start
    protocol_ok = (bool(np.all(np.diff(refined.strong_errors) < 0))
                   and 0.35 <= refined.fitted_slope <= 0.65
                   and elapsed < 60.0)
    detail = (f"closed-form candidate FAILED direct verification "
              f"(errors plateau at ~{exact_ref.strong_errors[-1]:.3f}, "
              f"slope={exact_ref.fitted_slope:.3f} outside [0.35, 0.65]); "
              f"documented protocol applied: refined-Euler reference gives "
              f"slope={refined.fitted_slope:.3f} in [0.35, 0.65]; {elapsed:.1f}s. "
              f"Analysis: no function of (t, B_t) solves the SDE for c1 > 0 — "
              f"see vve.sde docstring and README 'Known discrepancies'.")
    emit(capsys, f"ACCEPTANCE  1: {'PASS' if protocol_ok else 'FAIL'} — {detail}")
    assert protocol_ok, detail


def test_criterion_02_scheme_orders_on_gbm(capsys):
    """Euler strong order ~0.5 and Milstein ~1.0 against the exact GBM solution."""
    start = time.perf_counter()
    euler = strong_convergence(GBM_PARAMS, 1.0, DT_LEVELS, 1000, seed=0,
                               scheme="euler", reference="exact")
    milstein = strong_convergence(GBM_PARAMS, 1.0, DT_LEVELS, 1000, seed=0,
                                  scheme="milstein", reference="exact")
    elapsed = time.perf_counter() - start
    ok = (0.35 <= euler.fitted_slope <= 0.65
          and 0.8 <= milstein.fitted_slope <= 1.2
          and elapsed < 60.0)
    detail = (f"euler slope={euler.fitted_slope:.3f} (target [0.35, 0.65]), "
              f"milstein slope={milstein.fitted_slope:.3f} (target [0.8, 1.2]), "
              f"{elapsed:.1f}s")
    emit(capsys, f"ACCEPTANCE  2: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_03_black_scholes_degeneracy(capsys):
    """price_mc with c1=0 matches price_bs within 3 SE on a 3x3 (K, T) grid."""
    start = time.perf_counter()
    rn = RiskNeutralParams(sigma=0.2, c1=0.0, s0=100.0, r=0.05)
    worst = 0.0
    rows = []
    for strike in (80.0, 100.0, 120.0):
        for maturity in (0.25, 1.0, 2.0):
            steps = int(round(500 * maturity))
            opt = OptionSpec(strike=strike, maturity=maturity, rate=0.05)
            mc = price_mc(rn, opt, 1_000_000, steps, seed=31)
            bs = price_bs(rn, opt)
            se_units = abs(mc.price - bs.price) / mc.error_estimate
            worst = max(worst, se_units)
            rows.append(f"K={strike:g} T={maturity:g}: {se_units:.2f} SE")
    elapsed = time.perf_counter() - start
    ok = worst < 3.0 and elapsed < 300.0
    detail = f"worst |mc-bs| = {worst:.2f} SE over 9 cells, {elapsed:.0f}s ({'; '.join(rows)})"
    emit(capsys, f"ACCEPTANCE  3: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_04_formula_vs_mc_oracle_triangle(capsys):
    """price_formula vs price_mc within 3 SE on the (c1, K) grid.

    The formula is built on the model's law map, so it prices the SDE that
    Monte Carlo simulates.  The paper's closed-form candidate map does not:
    it prices the process f_t(B_t) and lies 8-48 SE above Monte Carlo (pinned
    by the companion test).  The note records why the candidate is not the
    model's law: its zero-strike call is worth more than the spot, so its
    discounted value is not a martingale.  The 3-SE bound is not weakened.
    """
    rows = []
    gaps = []
    for row in criterion4_quotes():
        gap = row["formula"].price - row["mc"].price
        se_units = gap / row["mc"].error_estimate
        gaps.append((row["c1"], se_units))
        rows.append(f"c1={row['c1']:g} K={row['strike']:g}: "
                    f"formula={row['formula'].price:.4f} mc={row['mc'].price:.4f} "
                    f"gap={gap:+.4f} ({se_units:+.1f} SE)")
    zero_strike = OptionSpec(strike=0.0, maturity=1.0, rate=0.05)
    candidate_k0 = {c1: candidate_quote(RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.05),
                                        zero_strike).price
                    for c1 in (1e-4, 5e-4)}
    emit(capsys, "ACCEPTANCE  4 NOTE: the paper's candidate map prices the K=0 call at "
                 + ", ".join(f"{p:.3f} (c1={c1:g})" for c1, p in candidate_k0.items())
                 + " > S0=100, so its discounted value is not a martingale and it is "
                   "not the model's law; price_formula uses the law map (see README "
                   "'Known discrepancies').")
    worst = max(abs(u) for _, u in gaps)
    ok = worst < 3.0
    detail = (f"worst |formula-mc| = {worst:.1f} SE (limit 3); "
              + "; ".join(rows))
    emit(capsys, f"ACCEPTANCE  4: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, ("price_formula does not match price_mc within 3 SE: " + detail
                + " — check the law solve's grid (law_error_estimate) and the"
                  " Monte Carlo discretisation bias before the bound.")


def test_criterion_04_companion_gap_is_systematic(capsys):
    """Companion (passing): pins the direction and scale of the candidate map's gap.

    The paper's closed-form candidate map (candidate_quote) sits far
    above Monte Carlo, by an amount growing with c1*s0.
    """
    gaps = [(row["c1"],
             (row["candidate"].price - row["mc"].price) / row["mc"].error_estimate)
            for row in criterion4_quotes()]
    small = [u for c1, u in gaps if c1 == 1e-4]
    large = [u for c1, u in gaps if c1 == 5e-4]
    ok = (all(u > 3.0 for u in small + large)
          and min(large) > max(small))
    detail = (f"candidate > mc everywhere; gap grows with c1: "
              f"c1=1e-4 -> {min(small):.1f}-{max(small):.1f} SE, "
              f"c1=5e-4 -> {min(large):.1f}-{max(large):.1f} SE")
    emit(capsys, f"ACCEPTANCE  4 (companion): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_05_calibration_round_trip(capsys):
    """Committed synthetic series (sigma=0.1, c1=0.001) calibrates back within 20%."""
    start = time.perf_counter()
    series = io.ingest_csv(DATA / "vve_synthetic.csv")
    result = calibrate_vve(series, 30)
    sigma_err = abs(result.params.sigma - 0.1) / 0.1
    c1_err = abs(result.params.c1 - 0.001) / 0.001
    elapsed = time.perf_counter() - start
    ok = sigma_err < 0.20 and c1_err < 0.20 and result.report.p_slope < 0.01 \
        and elapsed < 10.0
    detail = (f"sigma={result.params.sigma:.4f} ({sigma_err:.1%} off), "
              f"c1={result.params.c1:.6f} ({c1_err:.1%} off), "
              f"p_slope={result.report.p_slope:.2e}, {elapsed:.2f}s")
    emit(capsys, f"ACCEPTANCE  5: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_06_ols_oracle_equivalence(capsys):
    """All seven regression statistics match a brute-force OLS oracle to 1e-10."""
    data = np.loadtxt(DATA / "ols_ten_point.csv", delimiter=",", skiprows=1)
    x, y = data[:, 0], data[:, 1]
    report = ols_fit(x, y).to_dict()
    oracle = brute_force_ols(x.tolist(), y.tolist())
    diffs = {k: abs(report[k] - oracle[k]) for k in oracle}
    worst_key = max(diffs, key=diffs.get)
    ok = diffs[worst_key] < 1e-10
    detail = f"worst statistic {worst_key}: |diff| = {diffs[worst_key]:.2e} (limit 1e-10)"
    emit(capsys, f"ACCEPTANCE  6: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, (detail, report, oracle)


def test_criterion_07_elasticity_identities(capsys):
    """Both elasticity identities hold to 1e-12 on 1000 log-spaced prices."""
    rng = np.random.Generator(np.random.Philox(key=[2025, 0]))
    s = np.logspace(-3, 6, 1000)
    worst = 0.0
    for _ in range(20):
        params = ModelParams(
            mu=float(rng.uniform(-0.1, 0.2)),
            sigma=float(np.exp(rng.uniform(math.log(0.01), math.log(1.0)))),
            c1=float(np.exp(rng.uniform(math.log(1e-8), math.log(1e-3)))),
            s0=float(np.exp(rng.uniform(math.log(0.1), math.log(1000.0)))))
        alpha = elasticity(params, s)
        resid_ode = params.c1 * s - alpha * volatility(params, s)
        resid_riccati = alpha ** 2 + elasticity_derivative(params, s) * s - alpha
        worst = max(worst, float(np.max(np.abs(resid_ode))),
                    float(np.max(np.abs(resid_riccati))))
    ok = worst < 1e-12
    detail = f"worst residual {worst:.2e} over 20 parameter sets x 1000 prices (limit 1e-12)"
    emit(capsys, f"ACCEPTANCE  7: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_08_inverse_map_round_trip(capsys):
    """|f(f^-1(x)) - x| / x < 1e-9 for 100 prices spanning [0.2*s0, 5*s0]."""
    rn = RiskNeutralParams(sigma=0.2, c1=5e-4, s0=100.0, r=0.05)
    worst = 0.0
    for t in (0.0, 0.5):
        for x in np.geomspace(20.0, 500.0, 100):
            w = inverse_map(rn, t, float(x))
            worst = max(worst, abs(forward_map(rn, t, w) - x) / x)
    ok = worst < 1e-9
    detail = f"worst relative round-trip error {worst:.2e} (limit 1e-9)"
    emit(capsys, f"ACCEPTANCE  8: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_09_law_grid_self_consistency(capsys):
    """Halving the law grid's step moves every criterion-4 formula quote by < 1e-8.

    The quote extrapolates the default grid and the one 2x coarser; the
    check extrapolates the grid 2x finer (in price and in time) and the
    default one.
    """
    worst = 0.0
    for c1, strike in C4_GRID:
        rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.05)
        opt = OptionSpec(strike=strike, maturity=1.0, rate=0.05)
        fine = law_map(rn, 1.0, nodes_below=2 * LAW_NODES_BELOW, steps=2 * LAW_STEPS)
        finer = _richardson(fine.price(strike)[0], law_map(rn, 1.0).price(strike)[0])
        worst = max(worst, abs(price_formula(rn, opt).price - finer))
    ok = worst < 1e-8
    detail = f"worst law-grid-halving shift {worst:.2e} (limit 1e-8)"
    emit(capsys, f"ACCEPTANCE  9: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_10_cli_determinism(capsys, tmp_path):
    """Every CLI command re-run with identical config yields byte-identical files."""
    fixture = str(DATA / "vve_synthetic.csv")
    commands = {
        "simulate": ["simulate", "--paths", "200", "--steps", "100", "--seed", "5",
                     "--c1", "0.0005"],
        "calibrate": ["calibrate", "--csv", fixture],
        "price": ["price", "--method", "formula,mc,bs", "--paths", "20000",
                  "--steps", "100", "--seed", "5", "--c1", "0"],
        "convergence": ["convergence", "--levels", "16,32,64", "--paths", "128"],
        "hv": ["hv", "--csv", fixture],
        "regress": ["regress", "--csv", fixture],
    }
    mismatches = []
    for name, argv in commands.items():
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out-dir", str(dir_a)]) == 0, name
        assert main(argv + ["--out-dir", str(dir_b)]) == 0, name
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a, name
        for fname in files_a:
            if (dir_a / fname).read_bytes() != (dir_b / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    detail = ("all 6 commands byte-identical on re-run" if ok
              else f"non-deterministic outputs: {mismatches}")
    emit(capsys, f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail
