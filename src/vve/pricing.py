"""European call pricing under the variable-volatility-elasticity model.

Three pricers:

* ``price_formula`` — the explicit formula: with a solution map f from a
  standard normal variable Z to the price at maturity,

      C(t, x) = e^{-r(T-t)} E[ f(Z) 1_{Z > d} ] - K e^{-r(T-t)} (1 - N(d)),
      f(d) = K.

  For c1 > 0 the map is the model's own law map, solved on a price grid
  (:mod:`vve.law`), and the formula and its Greeks are read off that solve.
  At c1 = 0 the map is the exact lognormal law, and the formula is the
  Black-Scholes closed form, which ``price_bs`` evaluates.
* ``price_mc`` — risk-neutral Monte Carlo via the Euler scheme (not a
  solution map), an independent check on the formula.  The strikes of a
  strip share one cached path set.
* ``price_bs`` — the Black-Scholes closed form: the c1 = 0 oracle, and the
  arithmetic of the c1 = 0 formula.

``greeks_bump`` gives the delta, gamma and vega of any of them.  No pricer
uses the paper's closed-form candidate map (``vve.sde.forward_map``), which
does not satisfy the SDE for c1 > 0.  The module needs numpy only at import;
a c1 > 0 formula quote loads scipy's tridiagonal solver (:mod:`vve.law`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidGrid, NegativeCoefficient, OutOfRange
from .law import LAW_NODES_BELOW, LAW_STEPS, _richardson, _sweep_law, law_map
from .model import ModelParams, _exp, check_coefficients, require_finite
from .sde import euler_terminal

def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class OptionSpec:
    """European call: strike, maturity T, valuation time t, and a rate kept for
    positional callers: validated, never read (pricers read ``RiskNeutralParams.r``)."""

    strike: float
    maturity: float
    rate: float
    t: float = 0.0

    def __post_init__(self):
        require_finite(self.strike, self.maturity, self.rate, self.t)
        if self.strike < 0:
            raise NegativeCoefficient(f"strike must be >= 0, got {self.strike}")
        if not (0 <= self.t <= self.maturity):
            raise NegativeCoefficient(
                f"need 0 <= t <= maturity, got t={self.t}, maturity={self.maturity}")


@dataclass(frozen=True)
class RiskNeutralParams:
    """Model parameters under the risk-neutral measure (drift = rate)."""

    sigma: float
    c1: float
    s0: float
    r: float

    def __post_init__(self):
        check_coefficients(self.r, self.sigma, self.c1, self.s0)


@dataclass(frozen=True)
class OptionQuote:
    price: float
    method: str
    error_estimate: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.price) and math.isfinite(self.error_estimate)):
            raise OutOfRange(f"price {self.price} and error_estimate {self.error_estimate} "
                             "must be finite")
        if self.price < 0 or self.error_estimate < 0:
            raise NegativeCoefficient("price and error_estimate must be >= 0")

    def to_dict(self) -> dict:
        return {"price": self.price, "method": self.method,
                "error_estimate": self.error_estimate, "diagnostics": dict(self.diagnostics)}


def _intrinsic_quote(x: float, strike: float, method: str) -> OptionQuote:
    return OptionQuote(price=max(x - strike, 0.0), method=method,
                       error_estimate=0.0, diagnostics={"intrinsic": True})


def _law_quote(rn: RiskNeutralParams, opt: OptionSpec) -> OptionQuote:
    """The formula on the solved law, at any c1 and tau > 0 (see ``price_formula``)."""
    from statistics import NormalDist  # 5 ms that commands without a law quote skip

    tau = opt.maturity - opt.t

    def coarse(m):  # the default grid coarsened m x in price and in time
        return law_map(rn, tau, nodes_below=LAW_NODES_BELOW // m, steps=LAW_STEPS // m)

    law, half = law_map(rn, tau), coarse(2)
    fine, below, nodes_read = law.price(opt.strike)
    half_price = half.price(opt.strike)[0]
    price = _richardson(fine, half_price)
    d = -math.inf if below <= 0 else math.inf if below >= 1 else NormalDist().inv_cdf(below)
    estimate = abs(price - _richardson(half_price, coarse(4).price(opt.strike)[0]))
    return OptionQuote(price=max(price, 0.0), method="formula", error_estimate=estimate,
                       diagnostics={"d": d, "nodes_or_paths": nodes_read, **law.grid,
                                    "law_error_estimate": estimate,
                                    "martingale_defect": rn.s0 - _richardson(law.mean,
                                                                             half.mean)})


def _law_greeks(rn: RiskNeutralParams, opt: OptionSpec) -> tuple[float, dict]:
    """The price and ``greeks_bump``'s Greeks of ``price_formula`` at tau > 0, from
    ``_sweep_law`` on the default grid and the 2x coarser one, each
    Richardson-extrapolated as the price is.  Each sweep reads the strike at
    K / rho, its grid's growth rho, as the quote does.  ``ds`` is s0 h,
    h = alpha sinh(dxi) the fine grid's log gap on either side of the spot,
    and ``dsig`` is 0, as the vega is the exact sigma derivative of the
    swept price on the grid held fixed (one-sided at sigma = 0)."""
    tau = opt.maturity - opt.t
    fine, coarse = (_sweep_law(rn, tau, opt.strike, LAW_NODES_BELOW // m, LAW_STEPS // m)
                    for m in (1, 2))
    price, delta, gamma, vega = map(_richardson, fine[:4], coarse[:4])
    # a call's delta lies in [0, 1]; its central difference can leave it by rounding
    # (by ~1e-12 deep in the money), which the clamp takes off, as the price's clamp at 0
    # does for the price
    delta = min(max(delta, 0.0), 1.0)
    return price, {"delta": delta, "gamma": gamma, "vega": vega, "ds": fine[4], "dsig": 0.0}


def price_formula(rn: RiskNeutralParams, opt: OptionSpec) -> OptionQuote:
    """Explicit-formula price: on the solved law for c1 > 0, in closed form at c1 = 0.

    At T = t the quote is the intrinsic value, with ``error_estimate`` 0.
    Otherwise, for c1 > 0 the formula on the law map is E[(X - K')^+] on the
    law solve (``law_map``), X = S_T / rho and K' = K / rho discounted by the
    solve's growth rho of the mean, at any sigma >= 0 (sigma = 0 is the
    constant-elasticity (CVE) model), read off its node sums
    (``SolvedLaw.price``) as R = P + (P - P_2) / 3 from the default grid and
    the one 2x coarser in price and time (every 2nd node and step): the
    solve's error has a clean dxi^2 term (Crank-Nicolson after a Rannacher
    start, on a smooth graded map), which R cancels.  The quote's
    ``error_estimate`` is |R - R_2|, R_2 the same extrapolation from the
    grids 2x and 4x coarser: an estimate of R's error, not a bound.  On a
    sample of 2,860 (parameter set, strike) pairs over the admissible space,
    60 erred by more than max(estimate, 1e-9), by up to 1,700x the estimate.
    The diagnostics give the grid (``law_nodes``, ``law_steps``,
    ``law_s_min``, ``law_s_max``, in today's money), the nodes read
    (``nodes_or_paths``), d = Phi^{-1}(P(X <= K')), ``law_error_estimate``
    (the same |R - R_2|) and ``martingale_defect`` = s0 - E[X] extrapolated
    as R is: the value the strict local martingale loses, S0 - C(0).  At
    c1 = 0 the map is the closed form, the exact lognormal law, and the
    formula is Black-Scholes: the price is ``price_bs``'s, bit for bit, with
    ``error_estimate`` 0 as there, and it loads no scipy.  Its diagnostics
    are d = -d2 (f(d) = K) and no nodes read, and it refuses where
    ``price_bs`` refuses.
    """
    tau = opt.maturity - opt.t
    if tau == 0:
        return _intrinsic_quote(rn.s0, opt.strike, "formula")
    if rn.c1 > 0:
        return _law_quote(rn, opt)
    bs = price_bs(rn, opt)
    return OptionQuote(price=bs.price, method="formula", error_estimate=0.0,
                       diagnostics={"d": -bs.diagnostics["d2"], "nodes_or_paths": 0})


@functools.lru_cache(maxsize=4)
def _terminal_values(params: ModelParams, tau: float, steps: int, n_paths: int,
                     seed: int) -> tuple[np.ndarray, float]:
    """``euler_terminal``, cached so that the strikes of a strip share one path set.

    The array is read-only: every later quote on the same key reads it.
    """
    terminal, exploded_fraction = euler_terminal(params, tau, steps, n_paths, seed)
    terminal.flags.writeable = False
    return terminal, exploded_fraction


def price_mc(rn: RiskNeutralParams, opt: OptionSpec, n_paths: int, steps: int,
             seed: int) -> OptionQuote:
    """Risk-neutral Monte Carlo price via the Euler scheme.

    Discounted mean call payoff over ``n_paths`` terminal values; the error
    estimate is the Monte Carlo standard error.  Paths flagged by the
    overflow guard (which discards each overflowing step, and the path steps
    on from its state before it) contribute their terminal values, with the
    exploded fraction reported in the diagnostics.

    The terminal values depend on (rn, T - t, steps, n_paths, seed) and not
    on the strike, so quotes that share those arguments share one simulated
    path set: the last 4 path sets are cached, at most 4 x 8 bytes x
    ``n_paths`` (32 MB at 10^6 paths).  Every quote is the same as from a
    fresh simulation.  The standard error needs ``n_paths >= 2``.
    """
    if n_paths < 2:
        raise InvalidGrid(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    tau = opt.maturity - opt.t
    if tau == 0:
        return _intrinsic_quote(rn.s0, opt.strike, "monte_carlo")
    disc = _exp(-rn.r * tau, "discount", "-r tau")
    params = ModelParams(mu=rn.r, sigma=rn.sigma, c1=rn.c1, s0=rn.s0)
    terminal, exploded_fraction = _terminal_values(params, tau, steps, n_paths, seed)
    payoffs = np.maximum(terminal - opt.strike, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below as OutOfRange
        mean = float(payoffs.mean())
        se = float(payoffs.std(ddof=1) / math.sqrt(n_paths))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise OutOfRange(f"Monte Carlo payoffs have no finite spread (mean {mean:.6g}, "
                         f"standard error {se:.6g}): they leave the float range")
    return OptionQuote(price=disc * mean, method="monte_carlo",
                       error_estimate=disc * se,
                       diagnostics={"nodes_or_paths": n_paths, "steps": steps,
                                    "seed": seed,
                                    "exploded_fraction": exploded_fraction})


def price_bs(rn: RiskNeutralParams, opt: OptionSpec) -> OptionQuote:
    """Black-Scholes call price from rn.s0, rn.r and rn.sigma (c1 is not read)."""
    s, strike, tau, r, sigma = rn.s0, opt.strike, opt.maturity - opt.t, rn.r, rn.sigma
    if tau == 0:
        return _intrinsic_quote(s, strike, "black_scholes")
    if sigma == 0:
        raise NegativeCoefficient("sigma and tau must be > 0")
    if strike == 0:
        return OptionQuote(price=s, method="black_scholes", error_estimate=0.0,
                           diagnostics={"d1": math.inf, "d2": math.inf})
    moneyness, vol = s / strike, sigma * math.sqrt(tau)
    if not (moneyness > 0 and vol > 0):
        raise OutOfRange(f"Black-Scholes needs s0 / strike and sigma sqrt(tau) > 0 in float "
                         f"range, got {moneyness:.6g} and {vol:.6g}")
    try:
        d1 = (math.log(moneyness) + (r + 0.5 * sigma ** 2) * tau) / vol
    except OverflowError:
        raise OutOfRange(f"Black-Scholes needs sigma^2 in float range, got sigma = "
                         f"{sigma:.6g}") from None
    d2 = d1 - vol
    price = s * norm_cdf(d1) - strike * _exp(-r * tau, "discount", "-r tau") * norm_cdf(d2)
    return OptionQuote(price=max(price, 0.0), method="black_scholes",
                       error_estimate=0.0, diagnostics={"d1": d1, "d2": d2})


def greeks_bump(pricer, rn: RiskNeutralParams, opt: OptionSpec,
                ds: float | None = None, dsig: float | None = None,
                **pricer_kwargs) -> dict:
    """Delta, gamma (spot) and vega (sigma) of ``pricer(rn, opt, **pricer_kwargs)
    -> OptionQuote``, by central finite differences of bumped prices.

    Pass price_mc with a fixed seed to get common random numbers across bumps.
    ``price_formula`` itself at c1 > 0 and T > t is not bumped: its Greeks come
    from one backward sweep of the law solve's chain on each grid of its
    Richardson price (``_law_greeks``), one transposed solve per step on the
    factors that the quote's law solve kept with its forward march, which
    the vega is paired from (``_solve_law``; without a quote before it, the
    sweep builds the chain and runs the march).
    ``ds`` is the fine grid's spot step and ``dsig`` is 0, and an explicit
    ``ds`` or ``dsig`` raises InvalidGrid.  The sweep raises OutOfRange where
    its gamma would be rounding noise or s0^2 leaves the float range (see
    ``_sweep_law``), and a bumped set where ds^2 does.  Any other
    pricer, ``price_formula`` elsewhere and a wrapper of it
    (``functools.partial(price_formula)``) are bumped.
    """
    if pricer is price_formula and rn.c1 > 0 and opt.maturity > opt.t:
        if ds is not None or dsig is not None:
            raise InvalidGrid("price_formula's c1 > 0 Greeks are swept, not bumped: "
                              "pass neither ds nor dsig")
        return _law_greeks(rn, opt, **pricer_kwargs)[1]
    if ds is None:
        ds = 1e-3 * rn.s0
    if dsig is None:
        dsig = 1e-3 * max(rn.sigma, 0.1)

    def reprice(**over):
        return pricer(replace(rn, **over), opt, **pricer_kwargs).price

    p0 = reprice()
    p_up, p_dn = reprice(s0=rn.s0 + ds), reprice(s0=rn.s0 - ds)
    v_up, v_dn = reprice(sigma=rn.sigma + dsig), reprice(sigma=rn.sigma - dsig)
    try:
        gamma = (p_up - 2.0 * p0 + p_dn) / ds ** 2
    except OverflowError:
        raise OutOfRange(f"bumped gamma divides by ds^2, beyond float range at ds = {ds:.6g} "
                         f"(s0 = {rn.s0:.6g})") from None
    return {
        "delta": (p_up - p_dn) / (2.0 * ds),
        "gamma": gamma,
        "vega": (v_up - v_dn) / (2.0 * dsig),
        "ds": ds, "dsig": dsig,
    }
