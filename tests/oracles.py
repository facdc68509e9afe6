"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the OLS oracle works the
textbook normal equations with explicit loops (p-values via the regularized
incomplete beta function rather than a t-distribution object), and the
Black-Scholes oracle evaluates the two normal-CDF terms in 50-digit
arithmetic with mpmath.  The step-kernel oracle is the one-scheme,
column-at-a-time Euler/Milstein loop that ``vve.sde._step_terminal`` must
reproduce bit for bit.
"""

import math

import mpmath
import numpy as np
from scipy import special


def brute_force_ols(x, y):
    """Textbook simple-OLS statistics computed from scratch.

    Returns a dict with the same seven keys as RegressionReport.to_dict().
    """
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxx = sxy = syy = 0.0
    for xi, yi in zip(x, y):
        sxx += (xi - mean_x) ** 2
        sxy += (xi - mean_x) * (yi - mean_y)
        syy += (yi - mean_y) ** 2
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    sse = 0.0
    for xi, yi in zip(x, y):
        resid = yi - intercept - slope * xi
        sse += resid * resid
    df = n - 2
    s2 = sse / df
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + mean_x ** 2 / sxx))

    def two_sided_p(t_stat):
        # P(|T_df| > |t|) = I_{df/(df+t^2)}(df/2, 1/2)
        return float(special.betainc(df / 2.0, 0.5, df / (df + t_stat ** 2)))

    return {
        "slope": slope,
        "intercept": intercept,
        "p_slope": two_sided_p(slope / se_slope),
        "p_intercept": two_sided_p(intercept / se_intercept),
        "r_squared": 1.0 - sse / syy,
        "pearson_corr": sxy / math.sqrt(sxx * syy),
        "n_points": n,
    }


def bs_call_mp(s, strike, tau, r, sigma):
    """Black-Scholes call price in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s, strike, tau, r, sigma = map(mpmath.mpf, (s, strike, tau, r, sigma))
        d1 = (mpmath.log(s / strike) + (r + sigma ** 2 / 2) * tau) / (sigma * mpmath.sqrt(tau))
        d2 = d1 - sigma * mpmath.sqrt(tau)
        price = s * mpmath.ncdf(d1) - strike * mpmath.exp(-r * tau) * mpmath.ncdf(d2)
        return float(price)


def step_terminal_reference(params, dt, s0, db, milstein: bool, out=None):
    """Advance an array of states through all columns of ``db``, one scheme.

    Returns (final states, exploded mask).  Only the current states are
    kept, unless ``out`` is given: its column k + 1 then receives the states
    after step k.
    """
    mu, sigma, c1 = params.mu, params.sigma, params.c1
    n, steps = db.shape
    s = np.full(n, float(s0)) if np.isscalar(s0) else np.array(s0, dtype=float)
    exploded = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            b = s * (sigma + c1 * s)
            s_new = s + mu * s * dt + b * db[:, k]
            if milstein:
                s_new += 0.5 * b * (sigma + 2.0 * c1 * s) * (db[:, k] ** 2 - dt)
            s_new = np.maximum(s_new, 0.0)
            bad = ~np.isfinite(s_new)
            if bad.any():
                s_new[bad] = s[bad]
                exploded |= bad
            s = s_new
            if out is not None:
                out[:, k + 1] = s
    return s, exploded
