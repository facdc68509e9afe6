"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the OLS oracle works the
textbook normal equations with explicit loops (p-values via the regularized
incomplete beta function rather than a t-distribution object), and the
Black-Scholes oracles evaluate the normal-CDF terms in 50-digit arithmetic
with mpmath.  The step-kernel oracle is the one-scheme,
column-at-a-time Euler/Milstein loop that ``vve.sde._step_terminal`` must
reproduce bit for bit.  The law-solve oracle is the Crank-Nicolson step loop
that allocates its arrays each step, which ``vve.pricing._solve_law`` must
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


def bs_delta_mp(s, strike, tau, r, sigma):
    """Black-Scholes call delta N(d1) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s, strike, tau, r, sigma = map(mpmath.mpf, (s, strike, tau, r, sigma))
        d1 = (mpmath.log(s / strike) + (r + sigma ** 2 / 2) * tau) / (sigma * mpmath.sqrt(tau))
        return float(mpmath.ncdf(d1))


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


def solve_law_reference(rn, tau, s_max, nodes_below, steps):
    """Law of X = e^{-r tau} S_tau on the nodes x_k = s0 e^{k h}, new arrays each step.

    Returns (nodes, probabilities, h); raises as ``vve.pricing._solve_law`` does.
    """
    from scipy.linalg.lapack import dgtsv
    from vve.errors import InvalidGrid, OutOfRange
    from vve.pricing import _LAW_DEPTH_SD, _LAW_TOP_LOG

    if nodes_below < 2 or steps < 2:
        raise InvalidGrid("law solve needs at least 2 nodes below the spot and 2 steps")
    vol0 = rn.sigma + rn.c1 * rn.s0
    depth = _LAW_DEPTH_SD * vol0 * math.sqrt(tau) + 0.5 * vol0 * vol0 * tau
    if not rn.s0 * math.exp(-depth) > 0.0:
        raise OutOfRange(f"law grid depth {depth:.3g} (log price) is beyond float range")
    h = depth / nodes_below
    if s_max is None:
        s_max = rn.s0 * math.exp(min(2.0 * depth, _LAW_TOP_LOG))
    nodes_above = max(math.ceil(math.log(s_max / rn.s0) / h), 1)
    x = rn.s0 * np.exp(h * np.arange(-nodes_below, nodes_above + 1))
    gap_up, gap_down = math.expm1(h), -math.expm1(-h)
    p = np.zeros(x.size)
    p[nodes_below] = 1.0
    t = 0.0
    dt = tau / steps
    for dt_n, theta in [(0.5 * dt, 1.0)] * 4 + [(dt, 0.5)] * (steps - 2):
        var = (rn.sigma + rn.c1 * math.exp(rn.r * (t + theta * dt_n)) * x) ** 2
        up = var / (gap_up * (gap_up + gap_down))
        down = var / (gap_down * (gap_up + gap_down))
        up[0] = down[0] = up[-1] = 0.0
        # dp/dt = A p with A tridiagonal: (up[:-1], diag, down[1:])
        diag = -(up + down)
        flow = diag * p
        flow[1:] += up[:-1] * p[:-1]
        flow[:-1] += down[1:] * p[1:]
        a = theta * dt_n
        p = dgtsv(-a * up[:-1], 1.0 - a * diag, -a * down[1:], p + (dt_n - a) * flow)[3]
        t += dt_n
    if not np.all(np.isfinite(p)):
        raise OutOfRange("law solve overflowed; c1 * s0 * tau is too large for its grid")
    return x, p, h
