"""Reference table for the formula price's law-map route.

    python3 tools/law_richardson_table.py

Writes ``tests/data/law_richardson_limits.json``, which a Tier-1 test reads
without recomputing it:

* ``cases``: for the ``formula_surface`` benchmark's c1 > 0 cells (sigma 0.2,
  s0 100, r 0.05; c1 in {5e-4, 1e-3, 2e-3} x tau in {0.25, 0.5, 1, 2}) at
  K = 70, 100 and 130, the limit R(2000 x 400, 4000 x 800): the Richardson
  extrapolation of the law-map prices on 2000 nodes below the spot x 400
  steps and on the grid 2x finer in both.
* ``black_scholes``: at c1 = 0, tau = 1 and K = 80, 100 and 120, the
  Black-Scholes price that the law-map route must reproduce there.

Each line printed gives a case, its limit and the error of today's
``price_formula`` against it.  The finest solves hold 12001 nodes; the
whole table takes about 8 s on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vve.pricing import (  # noqa: E402
    OptionSpec,
    RiskNeutralParams,
    _formula_quote,
    _richardson,
    law_map,
    price_bs,
    price_formula,
)

OUT = ROOT / "tests" / "data" / "law_richardson_limits.json"
SIGMA, S0, RATE = 0.2, 100.0, 0.05
C1S = (5e-4, 1e-3, 2e-3)
TAUS = (0.25, 0.5, 1.0, 2.0)
STRIKES = (70.0, 100.0, 130.0)
#: the two grids of the limit, (nodes below the spot, steps), coarse first
LIMIT_GRIDS = ((2000, 400), (4000, 800))
TOL = 1e-10


def limit_price(rn: RiskNeutralParams, opt: OptionSpec) -> float:
    tau = opt.maturity - opt.t
    coarse, fine = (_formula_quote(rn, opt, TOL, law_map(rn, tau, nodes_below=n, steps=m)).price
                    for n, m in LIMIT_GRIDS)
    return _richardson(fine, coarse)


def main() -> int:
    cases = []
    for c1 in C1S:
        for tau in TAUS:
            rn = RiskNeutralParams(SIGMA, c1, S0, RATE)
            for strike in STRIKES:
                opt = OptionSpec(strike, tau, RATE)
                limit = limit_price(rn, opt)
                quote = price_formula(rn, opt)
                cases.append({"c1": c1, "tau": tau, "strike": strike, "limit": limit})
                print(f"c1={c1:g} tau={tau:g} K={strike:g}: limit {limit:.10f}, "
                      f"price_formula error {quote.price - limit:+.2e}, "
                      f"law_error_estimate {quote.diagnostics['law_error_estimate']:.2e}")
            law_map.cache_clear()  # the finest maps are large
    black_scholes = [{"tau": 1.0, "strike": k, "price": price_bs(S0, k, 1.0, RATE, SIGMA).price}
                     for k in (80.0, 100.0, 120.0)]
    table = {"sigma": SIGMA, "s0": S0, "r": RATE, "tol": TOL,
             "limit_grids": [list(g) for g in LIMIT_GRIDS],
             "cases": cases, "black_scholes": black_scholes}
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {len(cases)} limits, {len(black_scholes)} "
          "Black-Scholes prices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
