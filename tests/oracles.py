"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the OLS oracle works the
textbook normal equations with explicit loops (p-values via the regularized
incomplete beta function rather than a t-distribution object), and the
Black-Scholes oracles evaluate the normal-CDF terms in 50-digit arithmetic
with mpmath.  The step-kernel oracle is the one-scheme,
column-at-a-time Euler/Milstein loop that ``vve.sde._step_terminal`` must
reproduce bit for bit.  The law-solve oracle is the Crank-Nicolson step loop
that allocates its arrays each step, which ``vve.pricing._solve_law`` must
reproduce bit for bit.  The law-map oracle is the explicit formula's other
route on a law solve: a cubic spline of the quantile through scipy's
``CubicSpline``, inverted with ``brentq`` and integrated by the quadrature,
which the node-sum price of ``vve.pricing.SolvedLaw`` must match within its
``law_error_estimate``.  The inverse-Bessel oracle is the exact call price of
the model at sigma = 0.  The closed-form oracle evaluates the paper's own
expression in 50-digit arithmetic.
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


def bs_gamma_mp(s, strike, tau, r, sigma):
    """Black-Scholes call gamma N'(d1) / (s sigma sqrt(tau)) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s, strike, tau, r, sigma = map(mpmath.mpf, (s, strike, tau, r, sigma))
        d1 = (mpmath.log(s / strike) + (r + sigma ** 2 / 2) * tau) / (sigma * mpmath.sqrt(tau))
        return float(mpmath.npdf(d1) / (s * sigma * mpmath.sqrt(tau)))


def bs_vega_mp(s, strike, tau, r, sigma):
    """Black-Scholes call vega s N'(d1) sqrt(tau) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s, strike, tau, r, sigma = map(mpmath.mpf, (s, strike, tau, r, sigma))
        d1 = (mpmath.log(s / strike) + (r + sigma ** 2 / 2) * tau) / (sigma * mpmath.sqrt(tau))
        return float(s * mpmath.npdf(d1) * mpmath.sqrt(tau))


def closed_form_mp(mu, sigma, c1, s0, t, b=None):
    """The paper's closed form in 50-digit arithmetic, as the paper writes it.

    Returns the floats (a, b, c) of S_t = c u / (a u + b), u = exp(sigma B_t):
    a = c1 s0 ((delta - 1) e^{gamma t} - delta), b = sigma + c1 s0 and
    c = sigma s0 e^{gamma t}, with gamma = mu - sigma^2/2 and delta = mu / gamma
    (gamma must not be 0 in exact arithmetic).  Given a Brownian value ``b``,
    returns S_t there instead.
    """
    with mpmath.workdps(50):
        mu, sigma, c1, s0, t = map(mpmath.mpf, (mu, sigma, c1, s0, t))
        gamma = mu - sigma ** 2 / 2
        delta = mu / gamma
        egt = mpmath.exp(gamma * t)
        coefs = c1 * s0 * ((delta - 1) * egt - delta), sigma + c1 * s0, sigma * s0 * egt
        if b is None:
            return tuple(map(float, coefs))
        u = mpmath.exp(sigma * mpmath.mpf(b))
        return float(coefs[2] * u / (coefs[0] * u + coefs[1]))


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


#: |z| range over which ``LawMapReference`` tabulates its spline; it is log-linear beyond
_LAW_Z_TABLE = 8.5


class LawMapReference:
    """The law map f(z) = F^{-1}(Phi(z)) of a law solve, on scipy's ``CubicSpline``.

    Built from a law solve's (x, p, h): each node is the arithmetic centre of
    its cell, and the map is a cubic spline of the log price in z through the
    cell boundaries where |z| <= _LAW_Z_TABLE, log-linear in z beyond, scaled
    to the solve's mean.  It is a solution map for
    ``vve.pricing._formula_quote`` (``w_t``, ``sqrt_tau``, ``inverse``,
    ``cut``), so the quadrature prices the formula on it.
    """

    w_t = 0.0

    def __init__(self, rn, tau, x, p, h):
        from scipy import integrate, interpolate, special

        cdf = np.cumsum(p)
        survival = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)
        upper_edge = x * (2.0 / (1.0 + math.exp(-h)))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(cdf < 0.5, special.ndtri(cdf), -special.ndtri(survival))
        keep = np.abs(z) <= _LAW_Z_TABLE
        self.knots, log_x = z[keep], np.log(upper_edge[keep])
        self.spline = interpolate.CubicSpline(self.knots, log_x)
        z = self.knots
        self.ends = [(float(z[i]), float(log_x[i]), float(self.spline(z[i], 1))) for i in (0, -1)]
        self.sqrt_tau = math.sqrt(tau)
        self.log_shift = 0.0
        body = integrate.quad(
            lambda v: self(v) * math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi),
            z[0], z[-1], epsabs=0.0, epsrel=1e-13, limit=400)[0]
        tails = []
        for (z_e, y_e, m), upper in zip(self.ends, (False, True)):
            scale = math.exp(y_e - m * z_e + 0.5 * m * m)
            cut = m - z_e if upper else z_e - m
            tails.append(scale * 0.5 * math.erfc(-cut / math.sqrt(2.0)))
        mean = body + tails[1] + tails[0]
        self.log_shift = rn.r * tau + math.log(float(np.dot(p, x)) / mean)

    def log_price(self, z):
        """log f(z) - log_shift: the spline, or its end tangents beyond its knots."""
        (z0, y0, m0), (z1, y1, m1) = self.ends
        if z < z0:
            return y0 + m0 * (z - z0)
        if z > z1:
            return y1 + m1 * (z - z1)
        return float(self.spline(z))

    def __call__(self, z):
        return math.exp(self.log_shift + self.log_price(z))

    def inverse(self, x):
        """Brownian value w = z sqrt(tau) with f(z) = x, by brentq on the spline."""
        from scipy import optimize

        target = math.log(x) - self.log_shift
        (z0, y0, m0), (z1, y1, m1) = self.ends
        if target <= y0:
            z = z0 + (target - y0) / m0
        elif target >= y1:
            z = z1 + (target - y1) / m1
        else:
            z = optimize.brentq(lambda v: float(self.spline(v)) - target, z0, z1,
                                xtol=1e-14, rtol=8.9e-16, maxiter=200)
        return z * self.sqrt_tau

    def cut(self, z_hi):
        """No cut short of z_hi; the mass beyond it on the log-linear upper tail."""
        z_e, y_e, m = self.ends[1]
        scale = math.exp(self.log_shift + y_e - m * z_e + 0.5 * m * m)
        return z_hi, scale * 0.5 * math.erfc((z_hi - m) / math.sqrt(2.0))


def inverse_bessel_call(s0, c1, r, tau, strike):
    """The exact call price of the model at sigma = 0, in 50-digit arithmetic.

    At sigma = 0 the discounted price X solves dX = c1 e^{rt} X^2 dB, and
    1/X is a 3-d Bessel process from rho0 = 1/s0 run on the clock
    A = c1^2 (e^{2 r tau} - 1) / (2 r) (c1^2 tau at r = 0): its density is
    (rho / rho0) (phi_A(rho - rho0) - phi_A(rho + rho0)), phi_A the N(0, A)
    density.  With K' = K e^{-r tau} and b = 1/K', the call
    E[(X - K')^+] = E[(1/R - K') 1{R < b}] = ((I1 - I2) - K' (J1 - J2)) / rho0.
    X is a strict local martingale: the zero-strike call
    s0 (2 Phi(rho0 / sqrt(A)) - 1) is below s0.
    """
    with mpmath.workdps(50):
        s0, c1, r, tau, strike = (mpmath.mpf(v) for v in (s0, c1, r, tau, strike))
        rho0 = 1 / s0
        clock = c1 ** 2 * (mpmath.expm1(2 * r * tau) / (2 * r) if r else tau)
        sd = mpmath.sqrt(clock)
        k = strike * mpmath.exp(-r * tau)
        b = 1 / k if k else mpmath.inf

        def cdf(v):
            return mpmath.ncdf(v / sd)

        def phi(v):
            return mpmath.npdf(v, 0, sd) if mpmath.isfinite(v) else mpmath.mpf(0)

        i1, i2 = cdf(b - rho0) - cdf(-rho0), cdf(b + rho0) - cdf(rho0)
        j1 = rho0 * i1 + clock * (phi(rho0) - phi(b - rho0))
        j2 = -rho0 * i2 + clock * (phi(rho0) - phi(b + rho0))
        return float((i1 - i2 - k * (j1 - j2)) / rho0)
