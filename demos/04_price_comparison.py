"""European call pricing: explicit formula vs Monte Carlo vs Black-Scholes.

The formula is built on the model's law map F^{-1}(Phi(z)), with F the
risk-neutral distribution of S_T from a solve of the model's forward
equation; for c1 > 0 it is read off the solve's node sums as E[(X - K')^+].
Three checks:

1. c1 = 0: formula, Monte Carlo, and Black-Scholes must all agree (and do).
2. c1 > 0: the formula agrees with the Monte Carlo price of the SDE within
   its standard error.
3. The paper's closed-form candidate map, priced through the formula's
   adaptive quadrature (``tests/oracles.py``, which this demo imports by
   path), sits far above both for c1 > 0, by a gap that grows with c1.  It
   is not the model's law: its zero-strike call is worth more than the
   spot, so its discounted value is not a martingale (see the vve.sde
   docstring and README).

At c1 = 0 the formula is the Black-Scholes closed form, so its quote loads
no scipy; the law route (c1 > 0) loads scipy's tridiagonal solver, and the
candidate's quadrature loads ``scipy.integrate``.
"""

import sys
from pathlib import Path

from vve.pricing import (
    OptionSpec,
    RiskNeutralParams,
    price_bs,
    price_formula,
    price_mc,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import _CandidateMap, _formula_quote  # noqa: E402

N_PATHS, STEPS, SEED = 200_000, 500, 11


def compare(c1):
    rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.05)
    opt = OptionSpec(strike=100.0, maturity=1.0, rate=0.05)
    formula = price_formula(rn, opt)
    candidate = _formula_quote(rn, opt, 1e-10, _CandidateMap(rn, opt))
    mc = price_mc(rn, opt, N_PATHS, STEPS, SEED)
    print(f"\nc1 = {c1:g} (ATM call, K=100, T=1, r=0.05, sigma=0.2)")
    if "law_error_estimate" in formula.diagnostics:
        print(f"  formula      : {formula.price:9.4f}  (law solve, "
              f"~{formula.diagnostics['law_error_estimate']:.0e} grid error)")
    else:
        print(f"  formula      : {formula.price:9.4f}  (closed form)")
    print(f"  monte carlo  : {mc.price:9.4f}  (SE {mc.error_estimate:.4f})")
    if c1 == 0.0:
        bs = price_bs(rn, opt)
        print(f"  black-scholes: {bs.price:9.4f}")
    for label, quote in (("formula", formula), ("candidate", candidate)):
        gap = quote.price - mc.price
        print(f"  {label:9s}- mc: {gap:+9.4f}  ({gap / mc.error_estimate:+.1f} SE)")
    zero_strike = OptionSpec(strike=0.0, maturity=1.0, rate=0.05)
    zero = _formula_quote(rn, zero_strike, 1e-10, _CandidateMap(rn, zero_strike))
    print(f"  candidate K=0: {zero.price:9.4f}  (spot 100; above it means value is created)")


def main():
    for c1 in (0.0, 1e-4, 5e-4):
        compare(c1)
    print("\nThe formula on the law map agrees with Monte Carlo at every c1.  The")
    print("candidate's growing one-sided gap is the paper's closed form failing the")
    print("SDE when c1 > 0: it prices the process f_t(B_t), not the model.")


if __name__ == "__main__":
    main()
