"""European call pricing under the variable-volatility-elasticity model.

Three routes:

* ``price_formula`` — the explicit formula: with a solution map f from a
  standard normal variable Z to the price at maturity,

      C(t, x) = e^{-r(T-t)} E[ f(Z) 1_{Z > d} ] - K e^{-r(T-t)} (1 - N(d)),
      f(d) = K,

  evaluated by adaptive quadrature against the standard normal density.
  The map is the model's own law map f(z) = F^{-1}(Phi(z)), where F is the
  risk-neutral distribution function of S_T given S_t = x (``law_map``,
  one solve of the model's forward equation).  At c1 = 0 it is the closed
  form below, which is then the exact lognormal law.

* ``price_mc`` — risk-neutral Monte Carlo via the Euler scheme (not a
  solution map), an independent check on the formula.  The strikes of a
  strip share one cached path set.

* ``price_bs`` — the Black-Scholes closed form, the c1 = 0 oracle.

The paper's closed-form candidate map f_t (``forward_map``/``inverse_map``,
the same closed form as :mod:`vve.sde`) does not satisfy the SDE for c1 > 0.
The quadrature still prices with it (``_CandidateMap``), so that the
finding stays measurable: the candidate prices the process
f_t(B_t), lies 8 to 48 Monte Carlo standard errors above the model's price
on the acceptance grid, depends on the valuation time t and not only on
T - t, and prices the zero-strike call above the spot (101.31 at c1 = 5e-4,
s0 = 100), so its discounted value is not a martingale.  The paper's own
inverse formula takes the logarithm of a number that is not positive for
admissible inputs; the map as coded has the algebraic inverse
w = ln(b x / (c - a x)) / sigma on its whole range, which ``inverse_map``
evaluates.

The module needs numpy only at import.  The functions that call scipy (the
law solve, the law map and the quadrature) import it at first use, so that
``vve`` commands that never price by formula do not pay for loading it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ExplosionRegion,
    InvalidGrid,
    NegativeCoefficient,
    NonPositiveSpot,
    OutOfRange,
    SigmaZeroUnsupported,
)
from .model import ModelParams, require_finite
from .sde import DEN_TOL_FACTOR, closed_form_rates, euler_terminal

#: margin denominator (in units of sigma + c1*s0) at which the quadrature
#: domain is cut short of the explosion asymptote of f_T
_QUAD_DEN_MARGIN = 1e-6


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class OptionSpec:
    """European call: strike, maturity T, valuation time t, risk-free rate."""

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
        require_finite(self.sigma, self.c1, self.s0, self.r)
        if self.s0 <= 0:
            raise NonPositiveSpot(f"s0 must be > 0, got {self.s0}")
        if self.sigma < 0 or self.c1 < 0:
            raise NegativeCoefficient("sigma and c1 must be >= 0")

    @property
    def gamma(self) -> float:
        return self.r - 0.5 * self.sigma ** 2


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
                "error_estimate": self.error_estimate,
                "diagnostics": dict(self.diagnostics)}


# --------------------------------------------------------------------------
# The solution map f_t and its inverse
# --------------------------------------------------------------------------

def _map_coefficients(rn: RiskNeutralParams, t: float) -> tuple[float, float, float]:
    """(a, b, c) with f_t(w) = c * u / (a*u + b), u = exp(sigma*w)."""
    gamma, delta = closed_form_rates(rn.r, rn.sigma, "r")
    egt = math.exp(gamma * t)
    a = rn.c1 * rn.s0 * ((delta - 1.0) * egt - delta)
    b = rn.sigma + rn.c1 * rn.s0
    c = rn.sigma * rn.s0 * egt
    return a, b, c


def _forward_raw(rn: RiskNeutralParams, t: float, w):
    """f_t(w) and the (positive-in-domain) denominator a + b*exp(-sigma*w)."""
    a, b, c = _map_coefficients(rn, t)
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        den = a + b * np.exp(-rn.sigma * w)
        values = np.where(np.isinf(den), 0.0, c / den)
    return values, den


def forward_map(rn: RiskNeutralParams, t: float, w):
    """Price f_t(w) for Brownian value(s) w; strictly increasing in w.

    Raises ExplosionRegion when the denominator is at or below tolerance
    (beyond the map's asymptote).
    """
    values, den = _forward_raw(rn, t, w)
    _, b, _ = _map_coefficients(rn, t)
    den_tol = DEN_TOL_FACTOR * b
    w = np.asarray(w, dtype=float)
    if np.any(den <= den_tol * np.exp(-rn.sigma * w)):
        raise ExplosionRegion(f"denominator at or below tolerance for t={t}")
    return float(values) if values.ndim == 0 else values


def _explosion_w(rn: RiskNeutralParams, t: float, den_level: float) -> float | None:
    """w at which a + b*exp(-sigma*w) equals den_level (None if never)."""
    a, b, _ = _map_coefficients(rn, t)
    if a >= den_level:
        return None
    return -math.log((den_level - a) / b) / rn.sigma


def inverse_map(rn: RiskNeutralParams, t: float, x: float) -> float:
    """Brownian value w with f_t(w) = x: w = ln(b x / (c - a x)) / sigma.

    The algebraic inverse of f_t(w) = c u / (a u + b), u = exp(sigma w).
    Raises OutOfRange for x outside the range of f_t (including beyond the
    explosion asymptote).
    """
    if x <= 0 or not math.isfinite(x):
        raise OutOfRange(f"x must be a finite positive price, got {x}")
    a, b, c = _map_coefficients(rn, t)
    if a > 0 and x >= c / a:
        raise OutOfRange(f"x={x} at or above the map's supremum {c / a}")
    f_hi = c / (DEN_TOL_FACTOR * b)
    if a < 0 and x >= f_hi:
        raise OutOfRange(f"x={x} beyond the explosion asymptote (f <= {f_hi:.6g})")
    return math.log(b * x / (c - a * x)) / rn.sigma


# --------------------------------------------------------------------------
# The model's law map F^{-1}(Phi(z))
# --------------------------------------------------------------------------

#: default law-solve grid: nodes below the spot, and time steps
LAW_NODES_BELOW = 1000
LAW_STEPS = 200
#: depth of the grid below the spot, in standard deviations at the spot
_LAW_DEPTH_SD = 12.0
#: |z| range over which the law map is tabulated; it is log-linear beyond
_LAW_Z_TABLE = 8.5
#: largest log distance of the default grid top above the spot (~1e30 x s0)
_LAW_TOP_LOG = 69.0


def _solve_law(rn: RiskNeutralParams, tau: float, s_max: float | None,
               nodes_below: int, steps: int):
    """Law of the discounted price X = e^{-r tau} S_tau given S_0 = s0.

    Crank-Nicolson solve of the model's forward equation in conservative
    form on the nodes x_k = s0 e^{k h}: a continuous-time Markov chain whose
    jump rates match the local mean (zero, after discounting) and variance
    of dX = X (sigma + c1 e^{rt} X) dB at every node.  The bottom node
    absorbs and the top node only jumps down, so probability is conserved
    and the mean is conserved except for what the top reflects: it never
    exceeds s0.  Four implicit-Euler half steps (Rannacher) start the march
    from the point mass at s0.  The top node is the first at or above
    ``s_max`` (default: as far above the spot, in log price, as twice the
    grid's depth below it, but at most e^69 ~ 1e30 times the spot: the mass
    the top reflects converges as it rises).  Raises OutOfRange when the grid
    or the solve leaves the floating-point range, as for very large
    c1 * s0 * tau or r * tau.  With the Rannacher start the error expands
    cleanly in h^2 and dt^2 (Giles & Carter 2006), so ``price_formula``
    cancels its leading term by Richardson extrapolation from the default
    grid (``LAW_NODES_BELOW`` x ``LAW_STEPS``) and the one 2x coarser in both.

    Returns (nodes, probabilities, h).
    """
    from scipy.linalg.lapack import dgtsv

    if nodes_below < 2 or steps < 2:
        raise InvalidGrid("law solve needs at least 2 nodes below the spot and 2 steps")
    vol0 = rn.sigma + rn.c1 * rn.s0
    depth = _LAW_DEPTH_SD * vol0 * math.sqrt(tau) + 0.5 * vol0 * vol0 * tau
    if not rn.s0 * math.exp(-depth) > 0.0:
        raise OutOfRange(f"law grid depth {depth:.3g} (log price) is beyond float range")
    try:
        math.exp(rn.r * tau)  # the steps scale c1 by exp(r t), t <= tau
    except OverflowError:
        raise OutOfRange(f"law solve needs exp(r * tau) in float range, got r * tau = "
                         f"{rn.r * tau:.6g}") from None
    h = depth / nodes_below
    if s_max is None:
        s_max = rn.s0 * math.exp(min(2.0 * depth, _LAW_TOP_LOG))
    nodes_above = max(math.ceil(math.log(s_max / rn.s0) / h), 1)
    x = rn.s0 * np.exp(h * np.arange(-nodes_below, nodes_above + 1))
    gap_up, gap_down = math.expm1(h), -math.expm1(-h)
    p = np.zeros(x.size)
    p[nodes_below] = 1.0
    # every step writes into these; dgtsv solves in place, overwriting dl, d, du and p
    var, up, down, tot, flow, d = (np.empty(x.size) for _ in range(6))
    dl, du = np.empty(x.size - 1), np.empty(x.size - 1)
    up_den, down_den = gap_up * (gap_up + gap_down), gap_down * (gap_up + gap_down)
    t = 0.0
    dt = tau / steps
    for dt_n, theta in [(0.5 * dt, 1.0)] * 4 + [(dt, 0.5)] * (steps - 2):
        np.multiply(x, rn.c1 * math.exp(rn.r * (t + theta * dt_n)), out=var)
        np.add(var, rn.sigma, out=var)
        np.square(var, out=var)
        np.divide(var, up_den, out=up)
        np.divide(var, down_den, out=down)
        up[0] = down[0] = up[-1] = 0.0
        # dp/dt = A p with A tridiagonal: (up[:-1], -tot, down[1:]), tot = up + down
        np.add(up, down, out=tot)
        np.multiply(tot, p, out=flow)
        np.negative(flow, out=flow)
        np.multiply(up[:-1], p[:-1], out=dl)
        np.add(flow[1:], dl, out=flow[1:])
        np.multiply(down[1:], p[1:], out=du)
        np.add(flow[:-1], du, out=flow[:-1])
        # (I - a A) p_next = p + (dt_n - a) A p
        a = theta * dt_n
        np.multiply(up[:-1], -a, out=dl)
        np.multiply(tot, a, out=d)
        np.add(d, 1.0, out=d)
        np.multiply(down[1:], -a, out=du)
        np.multiply(flow, dt_n - a, out=flow)
        np.add(p, flow, out=p)
        p = dgtsv(dl, d, du, p, 1, 1, 1, 1)[3]  # info > 0 (a zero pivot) goes unread
        t += dt_n
    if not np.all(np.isfinite(p)):
        raise OutOfRange("law solve overflowed; c1 * s0 * tau is too large for its grid")
    return x, p, h


class LawMap:
    """The model's law map f(z) = F^{-1}(Phi(z)) for S at t + tau given S_t = s0.

    F comes from ``_solve_law``: each node is the arithmetic centre of its
    cell, and the map is a cubic spline of the log price in z through the
    cell boundaries, where |z| <= _LAW_Z_TABLE, and log-linear in z beyond.
    It is scaled so that its mean equals the law solve's (exactly conserved)
    mean.  In Brownian units w = z sqrt(tau) the spot sits at w_t = 0.
    """

    w_t = 0.0

    def __init__(self, rn: RiskNeutralParams, tau: float, x, p, h: float, steps: int):
        from scipy import integrate, interpolate, special

        self.sqrt_tau = math.sqrt(tau)
        cdf = np.cumsum(p)
        survival = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)
        upper_edge = x * (2.0 / (1.0 + math.exp(-h)))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(cdf < 0.5, special.ndtri(cdf), -special.ndtri(survival))
        keep = np.abs(z) <= _LAW_Z_TABLE
        z, log_x = z[keep], np.log(upper_edge[keep])
        if z.size < 4 or np.any(np.diff(z) <= 0):
            raise OutOfRange("law solve gave no strictly increasing distribution table")
        self.spline = interpolate.CubicSpline(z, log_x)
        self.ends = tuple((float(zz), float(yy), float(self.spline(zz, 1)))
                          for zz, yy in ((z[0], log_x[0]), (z[-1], log_x[-1])))
        # scale the spline's law to the solve's mean, which the interpolation
        # between cell edges would otherwise shift by O(h^2)
        self.log_shift = 0.0
        body = integrate.quad(
            lambda v: self(v) * math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi),
            z[0], z[-1], epsabs=0.0, epsrel=1e-13, limit=400)[0]
        mean = body + self.tail_mass(z[-1]) + self.tail_mass(z[0], upper=False)
        self.log_shift = rn.r * tau + math.log(float(np.dot(p, x)) / mean)
        self.grid = {"law_nodes": int(x.size), "law_steps": steps,
                     "law_s_min": float(x[0]), "law_s_max": float(x[-1])}

    def _log_price(self, z: float) -> float:
        (z0, y0, m0), (z1, y1, m1) = self.ends
        if z < z0:
            return y0 + m0 * (z - z0)
        if z > z1:
            return y1 + m1 * (z - z1)
        return float(self.spline(z))

    def __call__(self, z: float) -> float:
        try:
            return math.exp(self.log_shift + self._log_price(z))
        except OverflowError:  # a strike near the float maximum puts z there
            raise OutOfRange(f"law map value at z = {z:.6g} is beyond float range") from None

    def inverse(self, x: float) -> float:
        """Brownian value w = z sqrt(tau) with f(z) = x."""
        target = math.log(x) - self.log_shift
        (z0, y0, m0), (z1, y1, m1) = self.ends
        if target <= y0:
            z = z0 + (target - y0) / m0
        elif target >= y1:
            z = z1 + (target - y1) / m1
        else:
            from scipy import optimize

            z = optimize.brentq(lambda v: float(self.spline(v)) - target, z0, z1,
                                xtol=1e-14, rtol=8.9e-16, maxiter=200)
        return z * self.sqrt_tau

    def tail_mass(self, z_cut: float, upper: bool = True) -> float:
        """E[f(Z) 1_{Z > z_cut}] (or 1_{Z < z_cut}) on the log-linear tail."""
        z_e, y_e, m = self.ends[1 if upper else 0]
        scale = math.exp(self.log_shift + y_e - m * z_e + 0.5 * m * m)
        return scale * norm_cdf(m - z_cut if upper else z_cut - m)

    def cut(self, z_hi: float) -> tuple[float, float]:
        return z_hi, self.tail_mass(z_hi)


@functools.lru_cache(maxsize=32)
def law_map(rn: RiskNeutralParams, tau: float, s_max: float | None = None,
            nodes_below: int = LAW_NODES_BELOW, steps: int = LAW_STEPS) -> LawMap:
    """The law map of S_{t+tau} given S_t = rn.s0 (cached: it is the costly step).

    It depends on tau alone, not on t, as the SDE is time-homogeneous.  A
    ``price_formula`` quote at c1 > 0 reads three maps: the default grid's
    and the 2x coarser one of its Richardson price, and the 4x coarser one
    of its ``law_error_estimate``; a ``greeks_bump`` set of it reads the
    first two at each of its five parameter sets.  The cache is safe to
    share between threads; two threads that miss on one key at once each
    solve it, to the same bits.
    """
    if rn.sigma == 0:
        raise SigmaZeroUnsupported("law map requires sigma > 0")
    x, p, h = _solve_law(rn, tau, s_max, nodes_below, steps)
    return LawMap(rn, tau, x, p, h, steps)


class _CandidateMap:
    """The paper's closed form z -> f_T(w_t + z sqrt(tau)), w_t = f_t^{-1}(s0)."""

    def __init__(self, rn: RiskNeutralParams, opt: OptionSpec):
        self.rn, self.maturity = rn, opt.maturity
        self.sqrt_tau = math.sqrt(opt.maturity - opt.t)
        self.w_t = inverse_map(rn, opt.t, rn.s0)

    def __call__(self, z: float) -> float:
        f, _ = _forward_raw(self.rn, self.maturity, self.w_t + z * self.sqrt_tau)
        return float(f)

    def inverse(self, x: float) -> float:
        return inverse_map(self.rn, self.maturity, x)

    def cut(self, z_hi: float) -> tuple[float, float]:
        """Cut short of f_T's explosion asymptote; bound the cut tail mass."""
        rn, maturity = self.rn, self.maturity
        a, b, c = _map_coefficients(rn, maturity)
        tail_bound = 0.0
        if a < 0:
            w_star = _explosion_w(rn, maturity, 0.0)
            w_cut = _explosion_w(rn, maturity, _QUAD_DEN_MARGIN * b)
            w_dentol = _explosion_w(rn, maturity, DEN_TOL_FACTOR * b)
            z_cut = (w_cut - self.w_t) / self.sqrt_tau
            if z_cut < z_hi:
                z_hi = z_cut
                # f ~ c / (sigma*|a|*(w* - w)) near the asymptote; bound the cut
                # logarithmic tail mass by its value at the cut point
                phi_cut = math.exp(-0.5 * z_cut ** 2) / math.sqrt(2.0 * math.pi)
                tail_bound = (phi_cut / self.sqrt_tau * c / (rn.sigma * abs(a))
                              * math.log((w_star - w_cut) / (w_star - w_dentol)))
        return z_hi, tail_bound


# --------------------------------------------------------------------------
# Pricers
# --------------------------------------------------------------------------

def _intrinsic_quote(x: float, strike: float, method: str) -> OptionQuote:
    return OptionQuote(price=max(x - strike, 0.0), method=method,
                       error_estimate=0.0, diagnostics={"intrinsic": True})


def _formula_quote(rn: RiskNeutralParams, opt: OptionSpec, tol: float, smap) -> OptionQuote:
    """The explicit formula with solution map ``smap`` by adaptive quadrature.

    The integral E[f(Z) 1_{Z > d}] is truncated at max(d, 0) + 12, or where
    ``smap.cut`` says; the mass beyond the cut is reported as
    ``truncation_bound``.
    """
    tau = opt.maturity - opt.t
    sqrt_tau, w_t = smap.sqrt_tau, smap.w_t
    if opt.strike == 0:
        d = -math.inf
        w_K = -math.inf
        z_lo = -12.0
    else:
        w_K = smap.inverse(opt.strike)
        d = (w_K - w_t) / sqrt_tau
        z_lo = d
    z_hi, tail_bound = smap.cut(max(d if math.isfinite(d) else 0.0, 0.0) + 12.0)
    if z_hi <= z_lo:
        raise OutOfRange("strike beyond the quadrature domain of f_T")

    from scipy import integrate

    def integrand(z):
        return smap(z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    integral, quad_err, info = integrate.quad(
        integrand, z_lo, z_hi, epsabs=tol, epsrel=0.0, limit=200, full_output=1)[:3]

    disc = math.exp(-rn.r * tau)
    n_d = norm_cdf(d) if math.isfinite(d) else 0.0
    price = disc * integral - opt.strike * disc * (1.0 - n_d)
    return OptionQuote(
        price=max(price, 0.0), method="formula", error_estimate=tol,
        diagnostics={"d": d, "fT_inv_K": w_K, "ft_inv_x": w_t,
                     "nodes_or_paths": int(info["neval"]),
                     "quad_abserr": float(quad_err),
                     "z_cut": z_hi, "truncation_bound": tail_bound,
                     "exploded_fraction": 0.0})


#: quadrature tolerance of ``price_formula``
_FORMULA_TOL = 1e-10

def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InvalidGrid(f"tol must be a finite number > 0, got {tol}")


def _richardson(fine: float, coarse: float) -> float:
    """A second-order price with its h^2 error cancelled, from grids h (fine) and 2h."""
    return fine + (fine - coarse) / 3.0


def _law_quote(rn: RiskNeutralParams, opt: OptionSpec, tol: float,
               estimate: bool) -> OptionQuote:
    """The formula on the law map, at any c1 and tau > 0 (see ``price_formula``).

    The price reads two law solves and ``law_error_estimate`` a third, so
    with ``estimate`` false (prices alone, as ``greeks_bump`` reads) that
    solve and its quadrature are skipped.
    """
    tau = opt.maturity - opt.t

    def coarse_price(m):  # on the default grid coarsened m x in price and in time
        law = law_map(rn, tau, nodes_below=LAW_NODES_BELOW // m, steps=LAW_STEPS // m)
        return _formula_quote(rn, opt, tol, law).price

    law = law_map(rn, tau)
    quote = _formula_quote(rn, opt, tol, law)
    half = coarse_price(2)
    price = _richardson(quote.price, half)
    diagnostics = {**quote.diagnostics, **law.grid}
    if estimate:
        diagnostics["law_error_estimate"] = abs(price - _richardson(half, coarse_price(4)))
    return replace(quote, price=max(price, 0.0), diagnostics=diagnostics)


def _law_formula_quote(rn: RiskNeutralParams, opt: OptionSpec, tol: float = _FORMULA_TOL,
                       estimate: bool = False) -> OptionQuote:
    """``price_formula``, with ``law_error_estimate`` only if ``estimate``."""
    _check_tol(tol)
    tau = opt.maturity - opt.t
    if tau == 0:
        return _intrinsic_quote(rn.s0, opt.strike, "formula")
    if rn.c1 == 0:
        return _formula_quote(rn, opt, tol, _CandidateMap(rn, opt))
    return _law_quote(rn, opt, tol, estimate)


def price_formula(rn: RiskNeutralParams, opt: OptionSpec,
                  tol: float = _FORMULA_TOL) -> OptionQuote:
    """Explicit-formula price by adaptive quadrature.

    f is the law map of S_T (``law_map``) for c1 > 0, and the closed form,
    then exact, at c1 = 0.  (The paper's candidate map is priced through the
    same quadrature as ``_formula_quote(rn, opt, tol, _CandidateMap(rn, opt))``;
    for c1 > 0 that is not the model's price.)

    For the law map the price is R = P + (P - P_2) / 3, from the prices P on
    the default law grid and P_2 on the grid 2x coarser in price and in time.
    The law solve's error is second order with a clean h^2 term
    (Crank-Nicolson after a Rannacher start), and R cancels it (Richardson
    extrapolation).  ``error_estimate`` is the quadrature tolerance only.
    The diagnostics also give the default grid (``law_nodes``, ``law_steps``,
    ``law_s_min``, ``law_s_max``: the node prices in today's money) and
    ``law_error_estimate`` = |R - R_2|, where R_2 is the same extrapolation
    from the grids 2x and 4x coarser: about the coarser extrapolation's
    error, which was 6 to 180 times R's own on the cells of the
    ``formula_surface`` benchmark.  The law map's ``ft_inv_x`` is 0 and
    ``fT_inv_K`` is d sqrt(T - t).
    """
    return _law_formula_quote(rn, opt, tol, estimate=True)


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
    disc = math.exp(-rn.r * tau)
    if rn.sigma == 0 and rn.c1 == 0:
        payoff = max(rn.s0 * math.exp(rn.r * tau) - opt.strike, 0.0)
        return OptionQuote(price=disc * payoff, method="monte_carlo",
                           error_estimate=0.0,
                           diagnostics={"nodes_or_paths": n_paths,
                                        "deterministic": True,
                                        "exploded_fraction": 0.0})
    params = ModelParams(mu=rn.r, sigma=rn.sigma, c1=rn.c1, s0=rn.s0)
    terminal, exploded_fraction = _terminal_values(params, tau, steps, n_paths, seed)
    payoffs = np.maximum(terminal - opt.strike, 0.0)
    mean = float(payoffs.mean())
    se = float(payoffs.std(ddof=1) / math.sqrt(n_paths))
    return OptionQuote(price=disc * mean, method="monte_carlo",
                       error_estimate=disc * se,
                       diagnostics={"nodes_or_paths": n_paths, "steps": steps,
                                    "seed": seed,
                                    "exploded_fraction": exploded_fraction})


def price_bs(s: float, strike: float, tau: float, r: float, sigma: float) -> OptionQuote:
    """Black-Scholes European call price."""
    require_finite(s, strike, tau, r, sigma)
    if s <= 0:
        raise NonPositiveSpot(f"s must be > 0, got {s}")
    if sigma <= 0 or tau <= 0:
        raise NegativeCoefficient("sigma and tau must be > 0")
    if strike == 0:
        return OptionQuote(price=s, method="black_scholes", error_estimate=0.0,
                           diagnostics={"d1": math.inf, "d2": math.inf})
    sqrt_tau = math.sqrt(tau)
    d1 = (math.log(s / strike) + (r + 0.5 * sigma ** 2) * tau) / (sigma * sqrt_tau)
    d2 = d1 - sigma * sqrt_tau
    price = s * norm_cdf(d1) - strike * math.exp(-r * tau) * norm_cdf(d2)
    return OptionQuote(price=max(price, 0.0), method="black_scholes",
                       error_estimate=0.0, diagnostics={"d1": d1, "d2": d2})


def greeks_bump(pricer, rn: RiskNeutralParams, opt: OptionSpec,
                ds: float | None = None, dsig: float | None = None,
                **pricer_kwargs) -> dict:
    """Central-finite-difference delta, gamma (spot) and vega (sigma).

    ``pricer(rn, opt, **pricer_kwargs) -> OptionQuote``; pass price_mc with a
    fixed seed to get common random numbers across bumps.  The differences
    read each quote's price alone, so ``price_formula`` is repriced without
    its ``law_error_estimate``: a set at c1 > 0 pays two law solves per bump,
    the default grid's and the 2x coarser one of its Richardson price, and
    the same prices.
    """
    if pricer is price_formula:
        pricer = _law_formula_quote
    if ds is None:
        ds = 1e-3 * rn.s0
    if dsig is None:
        dsig = 1e-3 * max(rn.sigma, 0.1)

    def reprice(**over):
        return pricer(replace(rn, **over), opt, **pricer_kwargs).price

    p0 = reprice()
    p_up, p_dn = reprice(s0=rn.s0 + ds), reprice(s0=rn.s0 - ds)
    v_up, v_dn = reprice(sigma=rn.sigma + dsig), reprice(sigma=rn.sigma - dsig)
    return {
        "delta": (p_up - p_dn) / (2.0 * ds),
        "gamma": (p_up - 2.0 * p0 + p_dn) / ds ** 2,
        "vega": (v_up - v_dn) / (2.0 * dsig),
        "ds": ds, "dsig": dsig,
    }
