"""Correctness checks of the benchmark and the oracles they compare against.

The oracles share no code with ``vve``: Black-Scholes and N(d1) from
``math.erfc``, rolling volatility and OLS from the textbook formulas with
explicit loops, OLS p-values from the regularized incomplete beta function.
Every check raises ``CheckFailed`` with a message naming what was wrong.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from scipy import special


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _d1(s, strike, tau, r, sigma):
    return (math.log(s / strike) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))


def bs_call(s: float, strike: float, tau: float, r: float, sigma: float) -> float:
    """Black-Scholes call; the zero-strike call is worth the spot."""
    if strike == 0:
        return s
    d1 = _d1(s, strike, tau, r, sigma)
    d2 = d1 - sigma * math.sqrt(tau)
    return s * norm_cdf(d1) - strike * math.exp(-r * tau) * norm_cdf(d2)


def bs_delta(s: float, strike: float, tau: float, r: float, sigma: float) -> float:
    return norm_cdf(_d1(s, strike, tau, r, sigma))


def read_closes(path) -> list[float]:
    """Closes of a ``date,close`` CSV in date order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(c) for _, c in sorted((d.strip(), c) for d, c in rows if d.strip())]


def rolling_hv(closes, window: int, trading_days: int = 252) -> list[float]:
    """Sample sd (n-1) of the ``window`` log returns ending at each date, annualized."""
    returns = [math.log(b / a) for a, b in zip(closes, closes[1:])]
    vols = []
    for end in range(window, len(returns) + 1):
        chunk = returns[end - window:end]
        mean = math.fsum(chunk) / window
        var = math.fsum((x - mean) ** 2 for x in chunk) / (window - 1)
        vols.append(math.sqrt(var * trading_days))
    return vols


def ols(x, y) -> dict:
    """Textbook simple OLS of y on x, with two-sided t-test p-values."""
    n = len(x)
    mean_x, mean_y = math.fsum(x) / n, math.fsum(y) / n
    sxx = math.fsum((a - mean_x) ** 2 for a in x)
    syy = math.fsum((b - mean_y) ** 2 for b in y)
    sxy = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    sse = math.fsum((b - intercept - slope * a) ** 2 for a, b in zip(x, y))
    df = n - 2
    s2 = sse / df

    def p_two_sided(t):
        # P(|T_df| > |t|) = I_{df/(df+t^2)}(df/2, 1/2)
        return float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))

    return {
        "slope": slope,
        "intercept": intercept,
        "p_slope": p_two_sided(slope / math.sqrt(s2 / sxx)),
        "p_intercept": p_two_sided(intercept / math.sqrt(s2 * (1.0 / n + mean_x ** 2 / sxx))),
        "r_squared": 1.0 - sse / syy,
        "pearson_corr": sxy / math.sqrt(sxx * syy),
        "n_points": n,
    }


# --------------------------------------------------------------------------
# Strike strips
# --------------------------------------------------------------------------

def check_strip_shape(strikes, prices, tol: float, what: str) -> None:
    """Call prices are non-increasing and convex in the strike, within ``tol``."""
    pairs = sorted(zip(strikes, prices))
    for (k0, c0), (k1, c1) in zip(pairs, pairs[1:]):
        require(c1 <= c0 + tol, f"{what}: C({k1:g}) = {c1:.10g} > C({k0:g}) = {c0:.10g}")
    for (k0, c0), (k1, c1), (k2, c2) in zip(pairs, pairs[1:], pairs[2:]):
        chord = ((k2 - k1) * c0 + (k1 - k0) * c2) / (k2 - k0)
        require(c1 <= chord + tol,
                f"{what}: not convex at K={k1:g} ({c1:.10g} above chord {chord:.10g})")


def check_mc_pooled(means, ses, reference: float, extra_tol: float, what: str) -> None:
    """Mean of independent MC rounds within 4 pooled SE (+ extra_tol) of ``reference``."""
    n = len(means)
    mean = math.fsum(means) / n
    se = math.sqrt(math.fsum(s * s for s in ses)) / n
    require(abs(mean - reference) <= 4.0 * se + extra_tol,
            f"{what}: MC {mean:.6f} +- {se:.6f} vs {reference:.6f} "
            f"({abs(mean - reference) / se:.2f} SE)")


def check_greeks(greeks: dict, what: str) -> None:
    require(0.0 < greeks["delta"] < 1.0, f"{what}: delta {greeks['delta']:.6g} not in (0, 1)")
    require(greeks["gamma"] > 0.0, f"{what}: gamma {greeks['gamma']:.6g} <= 0")
    require(greeks["vega"] > 0.0, f"{what}: vega {greeks['vega']:.6g} <= 0")


def check_formula_strip(strikes, quotes, s0, tau, r, sigma, c1, what: str) -> None:
    """Properties of one formula strip; ``quotes`` are ``OptionQuote.to_dict()``s."""
    prices = [q["price"] for q in quotes]
    if c1 == 0:
        for k, c in zip(strikes, prices):
            ref = bs_call(s0, k, tau, r, sigma)
            require(abs(c - ref) <= 1e-8, f"{what}: C({k:g}) = {c:.12g} vs Black-Scholes {ref:.12g}")
        return
    tol = max(q["diagnostics"]["law_error_estimate"] for q in quotes)
    require(tol < 0.01, f"{what}: law_error_estimate {tol:.3g} is not below one cent")
    for k, c in zip(strikes, prices):
        # the law solve conserves the discounted mean to ~1e-12
        require(0.0 <= c <= s0 + 1e-9, f"{what}: C({k:g}) = {c:.12g} outside [0, S0]")
    check_strip_shape(strikes, prices, tol, what)
    # Local volatility sigma + c1 S >= sigma, so puts are worth at least their
    # Black-Scholes price; by parity C(K) - C_BS(K) = P(K) - P_BS(K) - defect,
    # where defect = S0 - C(0) >= 0 is the value lost by the strict local
    # martingale.  With no zero strike in the strip the defect is taken as 0.
    defect = next((s0 - c for k, c in zip(strikes, prices) if k == 0), 0.0)
    for k, c in zip(strikes, prices):
        ref = bs_call(s0, k, tau, r, sigma)
        require(c >= ref - defect - tol,
                f"{what}: C({k:g}) = {c:.10g} below Black-Scholes {ref:.10g} - defect {defect:.3g}")


# --------------------------------------------------------------------------
# CLI outputs
# --------------------------------------------------------------------------

class SchemaChecker:
    """Validates report files against the JSON schemas shipped with vve."""

    def __init__(self, schema_dir: Path):
        from jsonschema import Draft202012Validator
        from referencing import Registry, Resource

        schemas = {f.name: json.loads(f.read_text()) for f in schema_dir.glob("*.json")}
        registry = Registry().with_resources(
            (name, Resource.from_contents(s)) for name, s in schemas.items())
        self.validators = {name: Draft202012Validator(s, registry=registry)
                           for name, s in schemas.items()}

    def load(self, path: Path, schema: str) -> dict:
        report = json.loads(path.read_text())
        errors = [e.message for e in self.validators[schema].iter_errors(report)]
        require(not errors, f"{path.name} fails schema {schema}: {errors[:3]}")
        return report


def check_calibration(report: dict, truth_sigma=0.1, truth_c1=0.001) -> None:
    params = report["params"]
    require(close(params["sigma"], truth_sigma, 0.2),
            f"calibrate: sigma {params['sigma']:.6g} not within 20% of {truth_sigma}")
    require(close(params["c1"], truth_c1, 0.2),
            f"calibrate: c1 {params['c1']:.6g} not within 20% of {truth_c1}")


def check_series(values, expected, rel: float, what: str) -> None:
    require(len(values) == len(expected), f"{what}: {len(values)} values, expected {len(expected)}")
    for i, (v, e) in enumerate(zip(values, expected)):
        require(close(v, e, rel), f"{what}: row {i}: {v!r} vs oracle {e!r}")


def check_regression(report: dict, oracle: dict, what: str = "regress") -> None:
    require(report["n_points"] == oracle["n_points"],
            f"{what}: n_points {report['n_points']} vs {oracle['n_points']}")
    for key in ("slope", "intercept", "r_squared", "pearson_corr"):
        require(close(report[key], oracle[key], 1e-9),
                f"{what}: {key} {report[key]!r} vs textbook OLS {oracle[key]!r}")
    for key in ("p_slope", "p_intercept"):
        require(abs(report[key] - oracle[key]) <= 1e-9,
                f"{what}: {key} {report[key]!r} vs textbook OLS {oracle[key]!r}")


def check_euler_mean(terminal, s0: float, mu: float, horizon: float, steps: int) -> None:
    """Euler conserves the mean: E[S_n] = s0 (1 + mu dt)^n."""
    n = len(terminal)
    mean = math.fsum(terminal) / n
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in terminal) / (n - 1))
    expected = s0 * (1.0 + mu * horizon / steps) ** steps
    require(abs(mean - expected) <= 4.0 * sd / math.sqrt(n),
            f"simulate: mean terminal {mean:.6f} vs {expected:.6f} "
            f"({abs(mean - expected) / (sd / math.sqrt(n)):.2f} SE)")


def check_euler_slope(report: dict) -> None:
    euler = report["euler"]
    require(euler["reference"] == "refined", f"convergence: reference {euler['reference']!r}")
    require(0.35 <= euler["fitted_slope"] <= 0.65,
            f"convergence: Euler slope {euler['fitted_slope']:.4g} outside [0.35, 0.65]")


def milstein_slope_ok(report: dict) -> bool:
    """Strong order 1: Milstein's fitted slope lies in [0.8, 1.2]."""
    return 0.8 <= report["milstein"]["fitted_slope"] <= 1.2


def check_price(report: dict) -> None:
    spec, quotes = report["spec"], report["quotes"]
    tau = spec["maturity"] - spec["t"]
    bs = bs_call(spec["s0"], spec["strike"], tau, spec["r"], spec["sigma"])
    require(abs(quotes["bs"]["price"] - bs) <= 1e-9,
            f"price: bs quote {quotes['bs']['price']!r} vs Black-Scholes {bs!r}")
    formula = quotes["formula"]
    require(bs <= formula["price"] <= spec["s0"],
            f"price: formula {formula['price']!r} outside [Black-Scholes {bs:.10g}, S0]")
    law_error = formula["diagnostics"].get("law_error_estimate", 0.0)
    require(law_error < 0.01, f"price: law_error_estimate {law_error:.3g} is not below one cent")
