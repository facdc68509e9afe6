"""Reference table for the formula price's law route.

    python3 tools/law_richardson_table.py [--out PATH]

Writes ``tests/data/law_richardson_limits.json`` (or ``--out``), which a
Tier-1 test reads without recomputing it:

* ``cases``: for the ``formula_surface`` benchmark's c1 > 0 cells (sigma 0.2,
  s0 100, r 0.05; c1 in {5e-4, 1e-3, 2e-3} x tau in {0.25, 0.5, 1, 2}) at
  K = 70, 100 and 130, the limit R(1600 x 800, 3200 x 1600): the Richardson
  extrapolation of the law's node-sum prices on 1600 graded nodes below the
  spot x 800 steps and on the grid 2x finer in both, with the default grid
  top (~1e30 x s0), each read at the strike over s0 and its grid's growth
  rho of the mean, as ``price_formula`` reads it.
* ``black_scholes``: at c1 = 0, tau = 1 and K = 80, 100 and 120, the
  Black-Scholes price that the law route must reproduce there.

Each line printed gives a case, its limit, the error of today's
``price_formula`` against it and the ratio of its ``law_error_estimate`` to
that error.  As a check of the limits themselves, the same cells at r = 0 are
then printed with their limit's error against the exact r = 0 price
(``tests/oracles.qnv_call``).  Last, it prints the largest difference
between the limits it writes and those of the committed table.  The finest
solves hold up to 10,221 nodes; the whole run takes about 20 s on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from vve.law import _richardson, law_map  # noqa: E402
from vve.pricing import OptionSpec, RiskNeutralParams, price_bs, price_formula  # noqa: E402

from oracles import qnv_call  # noqa: E402

OUT = ROOT / "tests" / "data" / "law_richardson_limits.json"
SIGMA, S0, RATE = 0.2, 100.0, 0.05
C1S = (5e-4, 1e-3, 2e-3)
TAUS = (0.25, 0.5, 1.0, 2.0)
STRIKES = (70.0, 100.0, 130.0)
#: the two grids of the limit, (nodes below the spot, steps), coarse first
LIMIT_GRIDS = ((1600, 800), (3200, 1600))


def limit_price(rn: RiskNeutralParams, opt: OptionSpec) -> float:
    tau = opt.maturity - opt.t
    coarse, fine = (law_map(rn, tau, nodes_below=n, steps=m).price(opt.strike)[0]
                    for n, m in LIMIT_GRIDS)
    return _richardson(fine, coarse)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help="where to write the table")
    out = parser.parse_args(argv).out
    cases = []
    for c1 in C1S:
        for tau in TAUS:
            rn = RiskNeutralParams(SIGMA, c1, S0, RATE)
            for strike in STRIKES:
                opt = OptionSpec(strike, tau, RATE)
                limit = limit_price(rn, opt)
                quote = price_formula(rn, opt)
                cases.append({"c1": c1, "tau": tau, "strike": strike, "limit": limit})
                estimate = quote.diagnostics["law_error_estimate"]
                print(f"c1={c1:g} tau={tau:g} K={strike:g}: limit {limit:.10f}, "
                      f"price_formula error {quote.price - limit:+.2e}, "
                      f"law_error_estimate {estimate:.2e} "
                      f"({estimate / abs(quote.price - limit):.3g}x the error)")
            law_map.cache_clear()  # the finest maps are large
    for c1 in C1S:
        for tau in TAUS:
            rn = RiskNeutralParams(SIGMA, c1, S0, 0.0)
            errors = [limit_price(rn, OptionSpec(k, tau, 0.0)) - qnv_call(S0, SIGMA, c1, tau, k)
                      for k in STRIKES]
            print(f"r=0 c1={c1:g} tau={tau:g}: limit - exact at K = "
                  + ", ".join(f"{k:g}: {e:+.2e}" for k, e in zip(STRIKES, errors)))
            law_map.cache_clear()
    gbm = RiskNeutralParams(SIGMA, 0.0, S0, RATE)
    black_scholes = [{"tau": 1.0, "strike": k,
                      "price": price_bs(gbm, OptionSpec(k, 1.0, RATE)).price}
                     for k in (80.0, 100.0, 120.0)]
    table = {"sigma": SIGMA, "s0": S0, "r": RATE,
             "limit_grids": [list(g) for g in LIMIT_GRIDS],
             "cases": cases, "black_scholes": black_scholes}
    committed = json.loads(OUT.read_text())["cases"]
    print("largest difference from the committed limits: "
          f"{max(abs(a['limit'] - b['limit']) for a, b in zip(cases, committed)):.3g}")
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {out}: {len(cases)} limits, {len(black_scholes)} Black-Scholes prices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
