"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the OLS oracle works the
textbook normal equations with explicit loops (p-values via the regularized
incomplete beta function rather than a t-distribution object), and the
Black-Scholes oracles evaluate the normal-CDF terms in 50-digit arithmetic
with mpmath.  The step-kernel oracle is the one-scheme, column-at-a-time
Euler/Milstein loop that ``vve.sde._step_terminal`` must reproduce bit for
bit.  The law-solve oracle builds the graded nodes and their rates on its own,
in units of s0 as the law route does, factors the chain's one system once and
runs the Crank-Nicolson step loop allocating its arrays each step, which
``vve.law._solve_law`` must reproduce bit for bit; the law-sweep oracle
walks the same chain backward with the vega tangent's source written out from
the up and down differences, which ``vve.law._sweep_law`` must reproduce
bit for bit in price, delta and gamma, and to rounding in vega, which
``_sweep_law`` pairs with the forward march instead of carrying.  The law-map
oracle is the explicit formula's other route on a law solve: a cubic spline of
the quantile through scipy's ``CubicSpline``, inverted with ``brentq`` and
integrated by the quadrature below, which the node-sum price of
``vve.law.SolvedLaw`` must match within its ``law_error_estimate``.  The
candidate-map oracle is the paper's closed-form solution map, which no pricer
uses, with the formula's adaptive quadrature (``_formula_quote``): at c1 = 0,
where the map is the exact lognormal law, ``vve.pricing.price_formula`` must
match it within 1e-12, and at c1 > 0 it keeps the candidate's gap above Monte
Carlo measurable.  The inverse-Bessel oracle is the exact call price of the model at sigma = 0, and
the quadratic-normal-volatility oracle the exact call price at r = 0 and any
sigma.  The closed-form oracle evaluates the paper's own expression in
50-digit arithmetic.
"""

import math

import mpmath
import numpy as np
from scipy import special

from vve.errors import OutOfRange
from vve.model import _exp
from vve.pricing import OptionQuote, OptionSpec, RiskNeutralParams, norm_cdf
from vve.sde import DEN_TOL_FACTOR, _map_coefficients, inverse_map


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


def _law_chain_reference(rn, tau, nodes_below, steps):
    """The graded nodes of a law solve and the one system of its chain, built on
    their own.

    The chain is that of the undiscounted price in units of s0, S / s0, whose
    rates do not depend on time and whose volatility is sigma + (c1 s0) x.
    The nodes are e^{y_k}, y_k = alpha sinh(xi_k), alpha = (sigma
    + c1 s0) sqrt(tau), xi_k = k xi_b / nodes_below with xi_b = asinh(depth /
    alpha); where |r| tau exceeds alpha, a run of nodes at the spot's gap h,
    ceil((|r| tau - alpha) / h) of them, sits on the drift's side of the
    spot, and the graded map starts again at its end.  The top is the last
    node at or below e^69 (less the run, above the spot) of the grid with
    LAW_NODES_BELOW // 4 nodes below the spot.  A node's diffusion rates come from its relative
    gaps to the nodes beside it, one more node of the map past each end, and
    its drift rates match r x with the gaps on both sides, or on one side
    where a total rate would be negative.  Returns a namespace: the nodes in
    units of s0 of today's money (over the growth rho of the march's mean),
    vol, the unit diffusion rates, the diagonals of I - a A, a = dt/2, the
    spot's log gap h and index, the steps' thetas and rho.
    """
    from types import SimpleNamespace

    from vve.errors import InvalidGrid, OutOfRange
    from vve.law import _LAW_DEPTH_SD, _LAW_TOP_LOG, LAW_NODES_BELOW

    if nodes_below < 2 or steps < 2:
        raise InvalidGrid("law solve needs at least 2 nodes below the spot and 2 steps")
    alpha = (rn.sigma + rn.c1 * rn.s0) * math.sqrt(tau)
    a, r = 0.5 * (tau / steps), rn.r
    depth = _LAW_DEPTH_SD * alpha + 0.5 * alpha * alpha
    if abs(r) * tau - alpha > min(depth, _LAW_TOP_LOG):
        raise OutOfRange("law grid cannot follow the drift")
    if abs(r) * a >= 1.0:
        raise OutOfRange("law chain needs |r| dt/2 < 1")
    xi_b, coarsest = math.asinh(depth / alpha), LAW_NODES_BELOW // 4
    spot_gap, run = alpha * math.sinh(xi_b / nodes_below), 0
    if abs(r) * tau - alpha > 0.0:
        run = math.ceil((abs(r) * tau - alpha) / spot_gap)
    run_log = run * spot_gap if run else 0.0
    if not math.exp(-depth - (0.0 if r > 0 else run_log)) > 0.0:
        raise OutOfRange("law grid depth is beyond float range")
    top_steps = max(math.floor(math.asinh((_LAW_TOP_LOG - (run_log if r > 0 else 0.0)) / alpha)
                               / xi_b * coarsest), 1)
    n_below = nodes_below + (0 if r > 0 else run)
    n_above = math.ceil(top_steps * nodes_below / coarsest) + (run if r > 0 else 0)

    def graded(k):
        with np.errstate(over="ignore"):
            return alpha * np.sinh(xi_b * (np.asarray(k) / nodes_below))

    if r > 0:  # the run, if any, above the spot
        h = -float(graded([-1])[0])
        y = np.concatenate([graded(np.arange(-n_below - 1, 1)),
                            np.arange(1, run + 1) * h,
                            graded(np.arange(1, n_above + 2 - run)) + run * h])
    else:
        h = float(graded([1])[0])
        y = np.concatenate([graded(np.arange(-n_below - 1 + run, 0)) - run * h,
                            np.arange(-run, 0) * h,
                            graded(np.arange(0, n_above + 2))])
    x = np.exp(y[1:-1])
    g_up = np.expm1(y[2:] - y[1:-1])
    g_down = -np.expm1(-(y[1:-1] - y[:-2]))
    unit_up = 1.0 / (g_up * (g_up + g_down))
    unit_down = 1.0 / (g_down * (g_up + g_down))
    unit_up[0] = unit_up[-1] = unit_down[0] = 0.0  # the bottom absorbs, the top only jumps down
    vol = rn.c1 * rn.s0 * x + rn.sigma
    var = vol ** 2
    # the drift r x from both gaps, or from one where a total rate would be negative
    drift_up, drift_down = r * g_down * unit_up, -r * g_up * unit_down
    for k in range(x.size):
        if var[k] * unit_up[k] + drift_up[k] < 0.0 or var[k] * unit_down[k] + drift_down[k] < 0.0:
            drift_up[k], drift_down[k] = max(r, 0.0) / g_up[k], max(-r, 0.0) / g_down[k]
    drift_up[0] = drift_up[-1] = drift_down[0] = 0.0
    # I - a A: sub-diagonal -a up[:-1], super-diagonal -a down[1:], and a diagonal
    # that makes every column sum to 1
    sub = -a * (var[:-1] * unit_up[:-1] + drift_up[:-1])
    sup = -a * (var[1:] * unit_down[1:] + drift_down[1:])
    diag = np.zeros(x.size)
    diag[:-1] -= sub
    diag[1:] -= sup
    rho = ((1.0 + a * r) / (1.0 - a * r)) ** (steps - 2) / (1.0 - a * r) ** 4
    return SimpleNamespace(x=x / rho, vol=vol, unit_up=unit_up, unit_down=unit_down,
                           sub=sub, diag=diag + 1.0, sup=sup, a=a, h=h, spot=n_below,
                           thetas=[1.0] * 4 + [0.5] * (steps - 2), rho=rho)


def _law_factors_reference(chain):
    """``dgttrf``'s factors of the chain's I - a A; raises as ``vve.law`` does
    where the system is not finite."""
    from scipy.linalg.lapack import dgttrf
    from vve.errors import OutOfRange

    if not np.all(np.isfinite(chain.diag)):
        raise OutOfRange("law solve overflowed")
    return dgttrf(chain.sub, chain.diag, chain.sup)[:5]


def solve_law_reference(rn, tau, nodes_below, steps):
    """Law of S_tau / s0 on graded nodes in units of s0 of today's money, new
    arrays each step.

    The chain is ``_law_chain_reference``'s, its one system factored once.
    Returns (nodes, probabilities, h), h the spot's log gap; raises as
    ``vve.law._solve_law`` does.
    """
    from scipy.linalg.lapack import dgttrs
    from vve.errors import OutOfRange

    chain = _law_chain_reference(rn, tau, nodes_below, steps)
    factors = _law_factors_reference(chain)
    p = np.zeros(chain.x.size)
    p[chain.spot] = 1.0
    for theta in chain.thetas:
        solved = dgttrs(*factors, p)[0]
        # implicit Euler: that solve; Crank-Nicolson: (I - a A)^{-1} (I + a A) p = 2 solved - p
        p = solved if theta == 1.0 else 2.0 * solved - p
    if not np.all(np.isfinite(p)):
        raise OutOfRange("law solve overflowed; c1 * s0 * tau is too large for its grid")
    return chain.x, p, chain.h


def sweep_law_reference(rn, tau, strike, nodes_below, steps):
    """(price, delta, gamma, vega, s0 h) of s0 E[(X - K')^+] for the strike K, K' = K /
    s0 / rho, by a backward sweep of ``solve_law_reference``'s chain in units of s0,
    new arrays each step.

    The terminal vector is the 4-node Lagrange interpolation in log strike of
    the node calls at K' (x - K' below the bottom node, 0 at or above the top
    one).  Each step solves (I - a A)^T w = v and, for the
    vega tangent, (I - a A)^T dw = dv + a (dA/dsigma)^T w: only the diffusion
    rates move with sigma, so the source is written out from the up and down
    differences of w, a (dA/dsigma)^T w = -2 vol q, q_k = -a up_k (w_{k+1} -
    w_k) + a down_k (w_k - w_{k-1}) at var = 1.  Delta and gamma are central
    differences in log price at the spot node; the price and vega are s0
    times the swept ones and the gamma the swept one over s0.
    """
    from scipy.linalg.lapack import dgttrs

    chain = _law_chain_reference(rn, tau, nodes_below, steps)
    factors = _law_factors_reference(chain)
    x, a, strike = chain.x, chain.a, strike / rn.s0 / chain.rho
    v = np.zeros(x.size)
    i = int(np.searchsorted(x, strike, side="right"))
    if i == 0:
        v = x - strike
    elif i < x.size:
        k = min(max(i - 2, 0), x.size - 4)
        ys, y = np.log(x[k:k + 4]).tolist(), math.log(strike)
        for j, yj in enumerate(ys):
            weight = math.prod([(y - ym) / (yj - ym) for ym in ys if ym != yj])
            v += weight * np.maximum(x - x[k + j], 0.0)
    dv = np.zeros(x.size)
    for theta in reversed(chain.thetas):
        w = dgttrs(*factors, v, "T")[0]
        diff = w[1:] - w[:-1]
        q = np.zeros(x.size)
        q[:-1] = diff * (-a * chain.unit_up[:-1])
        q[1:] -= diff * (-a * chain.unit_down[1:])
        dw = dgttrs(*factors, dv + q * chain.vol * -2.0, "T")[0]
        v, dv = (w, dw) if theta == 1.0 else (2.0 * w - v, 2.0 * dw - dv)
    s, h = chain.spot, chain.h
    below, price, above = v[s - 1:s + 2].tolist()
    v_y, v_yy = (above - below) / (2.0 * h), (above - 2.0 * price + below) / (h * h)
    return rn.s0 * price, v_y, (v_yy - v_y) / rn.s0, rn.s0 * float(dv[s]), rn.s0 * h


# --------------------------------------------------------------------------
# The paper's candidate map, priced by the formula's quadrature
# --------------------------------------------------------------------------

#: margin denominator (in units of sigma + c1*s0) at which the quadrature
#: domain is cut short of the explosion asymptote of f_T
_QUAD_DEN_MARGIN = 1e-6


class _CandidateMap:
    """The paper's closed form z -> f_T(w_t + z sqrt(tau)), w_t = f_t^{-1}(s0).

    QUADPACK calls the map one z at a time, so it is evaluated in Python
    floats around numpy's exp (``math.exp`` rounds differently on some
    inputs), with the same bits as ``forward_map``'s array formula: 0 where
    the denominator is infinite and inf where it is 0.  An e^{-sigma w} that
    overflows warns under numpy's error state; ``_formula_quote`` ignores it.
    """

    def __init__(self, rn: RiskNeutralParams, opt: OptionSpec):
        self.rn, self.maturity = rn, opt.maturity
        self.sqrt_tau = math.sqrt(opt.maturity - opt.t)
        self.w_t = inverse_map(rn, opt.t, rn.s0)
        self.coefs = _map_coefficients(rn, opt.maturity)  # f_T's (a, b, c)

    def __call__(self, z: float) -> float:
        a, b, c = self.coefs
        den = a + b * float(np.exp(-self.rn.sigma * (self.w_t + z * self.sqrt_tau)))
        return c / den if den else math.inf  # c / inf is 0

    def inverse(self, x: float) -> float:
        return inverse_map(self.rn, self.maturity, x)

    def cut(self, z_hi: float) -> tuple[float, float]:
        """Cut short of f_T's explosion asymptote; bound the cut tail mass."""
        (a, b, c), sigma = self.coefs, self.rn.sigma
        tail_bound = 0.0
        if a < 0:
            # the w at which the denominator a + b*exp(-sigma*w) falls to 0, to the
            # cut margin and to the explosion tolerance
            w_star, w_cut, w_dentol = (-math.log((level - a) / b) / sigma for level in
                                       (0.0, _QUAD_DEN_MARGIN * b, DEN_TOL_FACTOR * b))
            z_cut = (w_cut - self.w_t) / self.sqrt_tau
            if z_cut < z_hi:
                z_hi = z_cut
                # f ~ c / (sigma*|a|*(w* - w)) near the asymptote; bound the cut
                # logarithmic tail mass by its value at the cut point
                phi_cut = math.exp(-0.5 * z_cut ** 2) / math.sqrt(2.0 * math.pi)
                tail_bound = (phi_cut / self.sqrt_tau * c / (sigma * abs(a))
                              * math.log((w_star - w_cut) / (w_star - w_dentol)))
        return z_hi, tail_bound


def _formula_quote(rn: RiskNeutralParams, opt: OptionSpec, tol: float, smap) -> OptionQuote:
    """The explicit formula with solution map ``smap`` by adaptive quadrature.

    The integral E[f(Z) 1_{Z > d}] is truncated at max(d, 0) + 12, or where
    ``smap.cut`` says; the mass beyond the cut is reported as
    ``truncation_bound``.  The quadrature runs in one numpy error state that
    ignores overflow, where the map's e^{-sigma w} is infinite and f is 0.
    """
    tau = opt.maturity - opt.t
    w_t = smap.w_t
    w_K = smap.inverse(opt.strike) if opt.strike > 0 else -math.inf
    d = (w_K - w_t) / smap.sqrt_tau
    z_lo = d if math.isfinite(d) else -12.0
    z_hi, tail_bound = smap.cut(max(d, 0.0) + 12.0)
    if z_hi <= z_lo:
        raise OutOfRange("strike beyond the quadrature domain of f_T")

    from scipy import integrate

    def integrand(z):
        return smap(z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    with np.errstate(over="ignore"):
        integral, quad_err, info = integrate.quad(
            integrand, z_lo, z_hi, epsabs=tol, epsrel=0.0, limit=200, full_output=1)[:3]

    disc = _exp(-rn.r * tau, "discount", "-r tau")
    n_d = norm_cdf(d) if math.isfinite(d) else 0.0
    price = disc * integral - opt.strike * disc * (1.0 - n_d)
    return OptionQuote(
        price=max(price, 0.0), method="formula", error_estimate=tol,
        diagnostics={"d": d, "fT_inv_K": w_K, "ft_inv_x": w_t,
                     "nodes_or_paths": int(info["neval"]),
                     "quad_abserr": float(quad_err),
                     "z_cut": z_hi, "truncation_bound": tail_bound,
                     "exploded_fraction": 0.0})


#: |z| range over which ``LawMapReference`` tabulates its spline; it is log-linear beyond
_LAW_Z_TABLE = 8.5


class LawMapReference:
    """The law map f(z) = F^{-1}(Phi(z)) of a law solve, on scipy's ``CubicSpline``.

    Built from a law solve's nodes x and probabilities p: a cell's upper edge
    is the harmonic mean 2 x_j x_{j+1} / (x_j + x_{j+1}) of its node and the
    next (the top's next node continues the last ratio), which on equal log
    gaps makes each node the arithmetic centre of its cell, and the map is a
    cubic spline of the log price in z through the cell boundaries where
    |z| <= _LAW_Z_TABLE, log-linear in z beyond, scaled to the solve's mean.
    It is a solution map for ``_formula_quote`` (``w_t``, ``sqrt_tau``,
    ``inverse``, ``cut``), so the quadrature prices the formula on it.
    """

    w_t = 0.0

    def __init__(self, rn, tau, x, p):
        from scipy import integrate, interpolate, special

        cdf = np.cumsum(p)
        survival = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)
        above = np.append(x[1:], x[-1] ** 2 / x[-2])
        upper_edge = 2.0 * x * above / (x + above)
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


def qnv_call(s0, sigma, c1, tau, strike):
    """The exact call price of the model at r = 0, in 50-digit arithmetic.

    At r = 0 the price solves dX = X (sigma + c1 X) dB, a quadratic normal
    volatility model with roots 0 and -kappa, kappa = sigma / c1.  By Ito,
    V = 1 + kappa / X is a driftless GBM dV = -sigma V dB, Doob h-transformed
    by h(v) = v - 1 to stay above 1, so E[g(X_T)] = (s0 / kappa)
    E[g(kappa / (G_T - 1)) (G_T - 1); G > 1 on [0, T]] for a driftless GBM G
    from V0 = 1 + kappa / s0.  Killed at 1, z = ln G_T has the density
    n(z; z0 + m, s^2) - V0 n(z; -z0 + m, s^2) on z > 0 (method of images),
    z0 = ln V0, m = -s^2 / 2, s = sigma sqrt(tau), and the call is
    (s0 / kappa) int_0^b (kappa + K - K e^z) [that density] dz,
    b = ln(1 + kappa / K) (infinite at K = 0): four normal CDF terms.
    X is a strict local martingale: the zero-strike call is below s0.
    """
    with mpmath.workdps(50):
        s0, sigma, c1, tau, strike = (mpmath.mpf(v) for v in (s0, sigma, c1, tau, strike))
        kappa = sigma / c1
        v0 = 1 + kappa / s0
        s = sigma * mpmath.sqrt(tau)
        b = mpmath.log(1 + kappa / strike) if strike else mpmath.inf

        def mass(a, shift):
            # int_0^b e^{shift z} n(z; a, s^2) dz, shift 0 or 1
            centre = a + shift * s ** 2
            return (mpmath.exp(shift * (a + s ** 2 / 2))
                    * (mpmath.ncdf((b - centre) / s) - mpmath.ncdf(-centre / s)))

        z0, m = mpmath.log(v0), -s ** 2 / 2
        return float(s0 / kappa * sum(
            weight * ((kappa + strike) * mass(a, 0) - strike * mass(a, 1))
            for a, weight in ((z0 + m, 1), (-z0 + m, -v0))))
