"""European call pricing under the variable-volatility-elasticity model.

Three routes:

* ``price_formula`` — the explicit formula: with a solution map f from a
  standard normal variable Z to the price at maturity,

      C(t, x) = e^{-r(T-t)} E[ f(Z) 1_{Z > d} ] - K e^{-r(T-t)} (1 - N(d)),
      f(d) = K.

  For c1 > 0 the map is the model's own law map f(z) = F^{-1}(Phi(z)),
  where F is the risk-neutral distribution function of S_T given S_t = x;
  on a law solve of the model's forward equation (``law_map``) the formula
  is the same number as E[(X - K')^+] for the discounted price X and strike
  K' = K e^{-r(T-t)}, which the solve's node sums give directly; its delta,
  gamma and vega come from one backward sweep of the solve's Markov chain
  per grid (``greeks_bump``), the vega by pairing the sweep with the forward
  march the solve kept (``_sweep_law``).  The chain lives on graded nodes,
  dense at the spot and sparse in the tails up to a top ~1e30 x s0
  (``_LawChain``), and each step of the forward solve and of the sweep is
  one system solve (``_LawChain.solve``).  The forward marches of the last
  law solved stay cached (``_solve_law``), one per grid a quote reads.  The
  route needs sigma + c1 s0 > 0 only: at sigma = 0 it prices the
  constant-elasticity (CVE) model.  At c1 = 0 the map is the closed form
  below, then the exact lognormal law, and the formula is evaluated by
  adaptive quadrature against the standard normal density.

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
law solve and the quadrature) import it at first use, so that ``vve``
commands that never price by formula do not pay for loading it; a c1 > 0
formula quote, and its Greeks, load only scipy's tridiagonal solver.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExplosionRegion, InvalidGrid, NegativeCoefficient, OutOfRange
from .model import ModelParams, check_coefficients, require_finite
from .sde import DEN_TOL_FACTOR, closed_form_rates, euler_terminal

#: margin denominator (in units of sigma + c1*s0) at which the quadrature
#: domain is cut short of the explosion asymptote of f_T
_QUAD_DEN_MARGIN = 1e-6


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _exp(x: float, what: str, name: str) -> float:
    """exp(x); raises OutOfRange, naming the exponent ``name``, where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise OutOfRange(f"{what} needs exp({name}) in float range, got {name} = "
                         f"{x:.6g}") from None


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
        """The quote as a JSON-ready dict; an infinite diagnostic (d at a zero
        strike) is None, as RFC 8259 JSON has no infinity."""
        return {"price": self.price, "method": self.method,
                "error_estimate": self.error_estimate,
                "diagnostics": {k: None if isinstance(v, float) and not math.isfinite(v) else v
                                for k, v in self.diagnostics.items()}}


# --------------------------------------------------------------------------
# The solution map f_t and its inverse
# --------------------------------------------------------------------------

def _map_coefficients(rn: RiskNeutralParams, t: float) -> tuple[float, float, float]:
    """(a, b, c) with f_t(w) = c * u / (a*u + b), u = exp(sigma*w); see ``exact_values``."""
    gamma = closed_form_rates(rn.r, rn.sigma)
    egt = _exp(gamma * t, "closed form", "gamma t")
    if egt == 0.0:  # c = 0 would leave f_t = 0 and its inverse undefined
        raise OutOfRange(f"closed form needs exp(gamma t) > 0, got gamma t = {gamma * t:.6g}")
    integral = math.expm1(gamma * t) / gamma if gamma else t
    a = -rn.c1 * rn.s0 * (1.0 - 0.5 * rn.sigma ** 2 * integral)
    b = rn.sigma + rn.c1 * rn.s0
    c = rn.sigma * rn.s0 * egt
    return a, b, c


def forward_map(rn: RiskNeutralParams, t: float, w):
    """Price f_t(w) = c / (a + b*exp(-sigma*w)) for Brownian value(s) w; strictly
    increasing in w.

    Raises ExplosionRegion where a finite denominator is at or below
    tolerance (beyond the map's asymptote); an infinite one gives f = 0.
    """
    a, b, c = _map_coefficients(rn, t)
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        u = np.exp(-rn.sigma * w)
        den = a + b * u
        values = np.where(np.isinf(den), 0.0, c / den)
    if np.any(np.isfinite(den) & (den <= DEN_TOL_FACTOR * b * u)):
        raise ExplosionRegion(f"denominator at or below tolerance for t={t}")
    return float(values) if values.ndim == 0 else values


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
    num, den = b * x, c - a * x
    if not (den > 0 and 0 < num / den < math.inf):
        raise OutOfRange(f"x={x}: the inverse ln(b x / (c - a x)) leaves float range "
                         f"(b x = {num:.6g}, c - a x = {den:.6g})")
    return math.log(num / den) / rn.sigma


# --------------------------------------------------------------------------
# The model's law, solved on a price grid
# --------------------------------------------------------------------------

#: default law-solve grid: nodes below the spot, and time steps (a multiple of 4, so
#: that the grids 2x and 4x coarser are every 2nd and every 4th of its nodes)
LAW_NODES_BELOW = 372
LAW_STEPS = 240
#: depth of the grid below the spot, in standard deviations at the spot
_LAW_DEPTH_SD = 12.0
#: log distance of the grid top above the spot (~1e30 x s0): far out in the heavy
#: upper tail of the strict local martingale
_LAW_TOP_LOG = 69.0
#: largest rounding error of a swept gamma, relative to max(1, |gamma|)
_GAMMA_ROUNDING = 1e-6


class _LawChain:
    """The grid and the Markov chain of a law solve (see ``_solve_law``).

    ``x`` holds the graded nodes x_k = s0 e^{y_k}, y_k = alpha sinh(k dxi) with
    alpha = (sigma + c1 s0) sqrt(tau), one standard deviation at the spot; the
    spot is at index ``nodes_below`` and the bottom ``_LAW_DEPTH_SD`` deviations
    (plus the log's drift alpha^2 / 2) below it.  The top is the last node at or
    below s0 e^{top} of the grid 4x coarser than the default one, so that every
    grid of the default's family, 2x and 4x coarser, is every 2nd and 4th of
    its nodes; top is ``_LAW_TOP_LOG``, or log(float max / s0) - 1 where that
    is lower (s0 above ~7e277), so that the top stays inside the float range.
    Where that leaves less than ``_LAW_DEPTH_SD`` deviations above the spot
    (s0 near the float max), the chain refuses rather than reflect the law
    inside its body.  ``log_x`` holds their logs and ``h`` = alpha
    sinh(dxi) the log gap on either side of the spot (sinh is odd).
    A node's jump rates are var / (g+ (g+ + g-)) up and var / (g- (g+ + g-))
    down, from its relative gaps g+ = x_{k+1} / x_k - 1 and g- = 1 - x_{k-1} / x_k
    (each end's missing gap from one more node of the map), which match its
    mean (zero) and variance var; the bottom absorbs and the top only jumps
    down.  ``steps`` holds the march's steps (t, dt_n, theta): four
    implicit-Euler half steps (Rannacher), then Crank-Nicolson, so that the
    implicit weight a = theta dt_n is dt/2 on every step; ``sub`` and ``sup``
    hold -a up[:-1] and -a down[1:] at var = 1, the off-diagonals of I - a A.
    ``rates`` builds one step's system, vol, var and the diagonals of I - a A,
    and ``solve`` solves (I - a A) y = b or its transpose on it, once, in
    buffers every step reuses.
    Raises OutOfRange, before any step, where the nodes leave the float range
    or their logs do not strictly increase, where the top has no room, or
    where a node's total jump rate times a is not finite in the system
    ``rates`` builds at the step where e^{rt} peaks: exactly where the march
    would overflow.
    """

    def __init__(self, rn: RiskNeutralParams, tau: float, nodes_below: int, steps: int):
        if nodes_below < 2 or steps < 2:
            raise InvalidGrid("law solve needs at least 2 nodes below the spot and 2 steps")
        alpha = (rn.sigma + rn.c1 * rn.s0) * math.sqrt(tau)
        top = min(_LAW_TOP_LOG, math.log(sys.float_info.max / rn.s0) - 1.0)
        if not (alpha > 0.0 and math.isfinite(top / alpha)):
            raise OutOfRange(f"law grid needs alpha = (sigma + c1 s0) sqrt(tau) > 0 with top / "
                             f"alpha in float range, got alpha = {alpha:.6g} and top = {top:.6g} "
                             "(log price)")
        depth = _LAW_DEPTH_SD * alpha + 0.5 * alpha * alpha
        if not rn.s0 * math.exp(-depth) > 0.0:
            raise OutOfRange(f"law grid depth {depth:.3g} (log price) is beyond float range")
        if top < min(_LAW_TOP_LOG, _LAW_DEPTH_SD * alpha):
            raise OutOfRange(f"law grid top needs {_LAW_DEPTH_SD * alpha:.3g} (log price, "
                             f"{_LAW_DEPTH_SD:g} deviations) above s0 = {rn.s0:.6g}, where the "
                             f"float range leaves {top:.3g}")
        xi_bottom, unit = math.asinh(depth / alpha), LAW_NODES_BELOW // 4
        top_units = max(math.floor(math.asinh(top / alpha) / xi_bottom * unit), 1)
        nodes_above = -(-top_units * nodes_below // unit)
        # the map at every node and one more past each end
        xi = xi_bottom * (np.arange(-nodes_below - 1, nodes_above + 2) / nodes_below)
        with np.errstate(over="ignore"):
            y = alpha * np.sinh(xi)
            self.x = rn.s0 * np.exp(y[1:-1])
            self.log_x = np.log(self.x)
            gaps = np.diff(y)
            up, down = np.expm1(gaps[1:]), -np.expm1(-gaps[:-1])
        if not self.x[-1] < math.inf:
            raise OutOfRange(f"law grid top s0 e^{y[-2]:.6g} is beyond float range")
        increasing = np.diff(self.log_x) > 0
        if not np.all(increasing):
            k = int(np.argmin(increasing))
            raise OutOfRange(f"law nodes {self.x[k]:.17g} and {self.x[k + 1]:.17g} are not "
                             "strictly increasing in floating point")
        self.rn, self.h = rn, float(y[nodes_below + 2])
        self.steps, t, dt = [], 0.0, tau / steps
        for dt_n, theta in [(0.5 * dt, 1.0)] * 4 + [(dt, 0.5)] * (steps - 2):
            self.steps.append((t, dt_n, theta))
            t += dt_n
        # the rates at var = 1, 0 where the chain cuts them
        unit_up, unit_down = 1.0 / (up * (up + down)), 1.0 / (down * (up + down))
        unit_up[[0, -1]] = unit_down[0] = 0.0
        self.a = 0.5 * dt
        self.sub, self.sup = -self.a * unit_up[:-1], -self.a * unit_down[1:]
        self.vol, self.var, self.d = (np.empty(self.x.size) for _ in range(3))
        self.lower, self.upper = np.empty(self.x.size - 1), np.empty(self.x.size - 1)
        # rates grow with e^{rt}: the largest are where it peaks
        peak = self.steps[-1 if rn.r > 0 else 0]
        with np.errstate(all="ignore"):
            self.rates(*peak)
            if not np.all(np.isfinite(self.d)):
                total = (self.d[-2:] - 1.0) / self.a
                raise OutOfRange(f"law solve overflowed: at t = {peak[0] + self.a:.3g} the grid "
                                 f"top {self.x[-1]:.3g} and the node below it jump at total rates "
                                 f"{total[1]:.3g} and {total[0]:.3g}, beyond float range over "
                                 f"dt/2 = {self.a:.3g}")
        from scipy.linalg.lapack import dgtsv
        self._dgtsv = dgtsv

    def rates(self, t: float, dt_n: float, theta: float) -> None:
        """Build the system of the step (t, dt_n, theta): vol = sigma + c1 e^{rt} x at
        t + theta dt_n and var = vol^2, which scales every jump rate, and ``lower``,
        ``d`` and ``upper`` with the diagonals of I - a A for that generator A:
        lower = -a up[:-1], upper = -a down[1:] and d = 1 - (the column's two
        off-diagonal entries), so that every column sums to 1 as exactly as floating
        point allows, and the march conserves probability and the mean to rounding."""
        vol, lower, upper, d = self.vol, self.lower, self.upper, self.d
        growth = self.rn.c1 * _exp(self.rn.r * (t + theta * dt_n), "law solve", "r t")
        np.multiply(self.x, growth, out=vol)
        np.add(vol, self.rn.sigma, out=vol)
        np.square(vol, out=self.var)
        np.multiply(self.var[:-1], self.sub, out=lower)
        np.multiply(self.var[1:], self.sup, out=upper)
        np.negative(lower, out=d[:-1])
        d[-1] = 0.0
        np.subtract(d[1:], upper, out=d[1:])
        np.add(d, 1.0, out=d)

    def solve(self, b, transposed: bool = False) -> None:
        """b <- y with (I - a A) y = b, or (I - a A)^T y = b, for the system of the
        last ``rates``; the transpose swaps the off-diagonals.  ``dgtsv`` solves in
        place: b must be a contiguous float vector.  It consumes the system's
        diagonals (not ``vol``), so each ``rates`` allows one solve."""
        lower, upper = (self.upper, self.lower) if transposed else (self.lower, self.upper)
        self._dgtsv(lower, self.d, upper, b, 1, 1, 1, 1)  # info goes unread


def _cn_update(theta: float, y, p) -> None:
    """p <- the step's image of p, from y = (I - a A)^{-1} p: y itself for an
    implicit-Euler step, and for a Crank-Nicolson one (I - a A)^{-1} (I + a A) p
    = 2 y - p, which needs no product with A and so adds no rounding from its
    large rates.  Leaves c y in y: c = 2 on a Crank-Nicolson step, 1 on an
    implicit-Euler one."""
    if theta < 1.0:
        np.multiply(y, 2.0, out=y)
        np.subtract(y, p, out=p)
    else:
        np.copyto(p, y)


def _require_finite_law(*arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise OutOfRange("law solve overflowed; c1 * s0 * tau is too large for its grid")


@functools.lru_cache(maxsize=1)
def _law_solves(rn: RiskNeutralParams, tau: float) -> dict:
    """The ``_solve_law`` results of the last (rn, tau) asked for, by grid: a new
    (rn, tau) frees the last one's marches before its own allocate.  Threads
    may share the dict; a grid two threads miss together is solved by each."""
    return {}


def _solve_law(rn: RiskNeutralParams, tau: float, nodes_below: int, steps: int):
    """Law of the discounted price X = e^{-r tau} S_tau given S_0 = s0, with its march.

    Crank-Nicolson solve of the model's forward equation in conservative
    form on the graded nodes of ``_LawChain``: a continuous-time Markov chain
    whose jump rates match the local mean (zero, after discounting) and
    variance of dX = X (sigma + c1 e^{rt} X) dB at every node.  The bottom
    node absorbs and the top node only jumps down, so probability is
    conserved and the mean is conserved except for what the top reflects: it
    never exceeds s0.  Four implicit-Euler half steps (Rannacher) start the
    march from the point mass at s0.  The top is far out in the heavy upper
    tail (~1e30 x s0; the graded nodes make that cheap), so the value the top
    reflects is negligible.  Raises OutOfRange before any step where
    the grid or its rates leave the float range (``_LawChain``), as for very
    large c1 s0 tau or r tau or tiny tau.  With the Rannacher start the error
    expands cleanly in dxi^2 and dt^2 on the smooth graded map (Giles & Carter
    2006), so ``price_formula`` cancels its leading term by Richardson
    extrapolation from the default grid (``LAW_NODES_BELOW`` x ``LAW_STEPS``)
    and the one 2x coarser in both, which is every 2nd node and step of it.

    Returns (nodes, probabilities, march), read-only; at sigma = 0, those of
    the CVE model.  Row n of the (len(chain.steps), nodes) array ``march`` is
    c_n y_n, y_n = (I - a A_n)^{-1} p_n the solve of step n, c_n = 2 on a
    Crank-Nicolson step and 1 on an implicit-Euler one (``_cn_update``): what
    ``_sweep_law`` pairs its vega with.  Cached for the last (rn, tau)
    (``_law_solves``): a quote's three grids, ~2.8 MB at the defaults, whose
    first two the Greek set after it sweeps.
    """
    solves = _law_solves(rn, tau)
    if (nodes_below, steps) in solves:
        return solves[nodes_below, steps]
    chain = _LawChain(rn, tau, nodes_below, steps)
    p = np.zeros(chain.x.size)
    p[nodes_below] = 1.0
    march = np.empty((len(chain.steps), chain.x.size))  # step n solves in row n
    for (t, dt_n, theta), y in zip(chain.steps, march):
        chain.rates(t, dt_n, theta)
        np.copyto(y, p)
        chain.solve(y)
        _cn_update(theta, y, p)
    _require_finite_law(p)
    for a in (chain.x, p, march):
        a.flags.writeable = False
    solves[nodes_below, steps] = chain.x, p, march
    return chain.x, p, march


def _bracket(x, log_x, strike: float) -> tuple[int, int, list[float]]:
    """(i, k, weights): the number i of the nodes ``x`` at or below ``strike`` and,
    strictly inside the grid (0 < i < nodes), the first k of the 4 nodes around
    it with their Lagrange weights in log strike; below the bottom node and at
    or above the top one, no weights."""
    i = int(np.searchsorted(x, strike, side="right"))
    if i in (0, x.size):
        return i, 0, []
    k = min(max(i - 2, 0), x.size - 4)
    ys = log_x[k:k + 4].tolist()
    y = math.log(strike)
    return i, k, [math.prod([(y - ym) / (yj - ym) for ym in ys if ym != yj]) for yj in ys]


class SolvedLaw:
    """A law solve's node sums as read-only arrays: on the nodes x_j (discounted
    prices), ``calls[j]`` = E[(X - x_j)^+] = sum_{k>j} p_k (x_k - x_j), from two
    reversed cumulative sums, and ``cdf[j]`` = P(X <= x_j).  The nodes are a
    ``_LawChain``'s, whose logs strictly increase.
    """

    def __init__(self, x, p, steps: int):
        tail_p, tail_px = (np.cumsum(a[::-1])[::-1] for a in (p, p * x))
        self.x, self.log_x, self.calls, self.cdf = x, np.log(x), tail_px - x * tail_p, np.cumsum(p)
        for a in (self.x, self.log_x, self.calls, self.cdf):
            a.flags.writeable = False
        self.mean = float(tail_px[0])
        self.grid = {"law_nodes": int(x.size), "law_steps": steps,
                     "law_s_min": float(x[0]), "law_s_max": float(x[-1])}

    def price(self, strike: float) -> tuple[float, float, int]:
        """E[(X - K)^+] at the discounted strike K, P(X <= K) and the nodes read.

        The call is the 4-node Lagrange interpolation of ``calls`` in log strike,
        mean - K below the bottom node and 0 at or above the top one (where
        P(X <= K) is 1: the solve conserves mass), clamped at 0."""
        i, k, weights = _bracket(self.x, self.log_x, strike)
        if not weights:
            return (max(self.mean - strike, 0.0), 0.0, 0) if i == 0 else (0.0, 1.0, 0)
        price = sum(c * w for c, w in zip(self.calls[k:k + 4].tolist(), weights))
        return max(price, 0.0), float(self.cdf[i - 1]), 4


@functools.lru_cache(maxsize=32)
def law_map(rn: RiskNeutralParams, tau: float, nodes_below: int = LAW_NODES_BELOW,
            steps: int = LAW_STEPS) -> SolvedLaw:
    """The law of the discounted S_{t+tau} given S_t = rn.s0, with its node sums.

    Cached, as the solve is the costly step; a warm quote is one binary search
    and a 4-node interpolation.  It depends on tau, not t: the SDE is
    time-homogeneous.  Every c1 > 0 ``price_formula`` quote reads the default
    grid, the 2x coarser one and (for ``law_error_estimate``) the 4x coarser
    one, which share the default grid's graded nodes (``_LawChain``).  It is
    built from ``_solve_law``, whose marches of the first two grids a
    ``greeks_bump(price_formula, ...)`` set then pairs with its sweeps
    (``_sweep_law``).  Threads may share the cache; two that miss on one key
    each solve it alike.  sigma = 0 is the CVE model.
    """
    x, p, _ = _solve_law(rn, tau, nodes_below, steps)
    return SolvedLaw(x, p, steps)


def _sweep_law(rn: RiskNeutralParams, tau: float, strike: float, nodes_below: int,
               steps: int) -> tuple[float, float, float, float, float]:
    """(price, delta, gamma, vega, s0 h) of E[(X - K)^+] at the discounted strike
    K, from a backward sweep of ``_solve_law``'s chain on the same graded grid,
    h the log gap on either side of the spot.

    The terminal vector g_k = sum_j w_j (x_k - x_j)^+ over the 4 nodes that
    ``SolvedLaw.price`` interpolates (``_bracket``'s weights w_j; x - K below
    the bottom node, 0 at or above the top one) is that price's exact dual, so
    the swept value at the spot node is the forward price, unclamped, to
    rounding.  With
    B = (I - a A)^{-1} (an implicit-Euler step) or 2 (I - a A)^{-1} - I (a
    Crank-Nicolson one) the forward step, the sweep walks the steps in
    reverse: v <- B^T v, one transposed tridiagonal solve w = (I - a A)^{-T} v
    per step.  Delta and gamma are central differences in log price at the
    spot node, whose two gaps are equal (the grid held fixed).  The vega (the
    grid held fixed, too) pairs the sweep with the forward march from the
    spot, ``_solve_law``'s cached ``march`` on the same grid, which a quote's
    ``law_map`` has just run (on a miss the march runs here): the price is
    v_{n+1}^T B_n p_n at every step n, and dB_n/dsigma = c_n (I - a A)^{-1} a
    (dA/dsigma) (I - a A)^{-1}, so the vega is sum_n c_n w_n^T a (dA/dsigma)
    y_n, y_n the march's solve.  Every rate is var = vol^2 times a unit rate,
    so dA/dsigma = A diag(2 / vol), and w has a A^T w = w - v, so step n adds
    2 ((w - v) / vol) . row_n, row_n = c_n y_n.  Raises OutOfRange before any
    step as ``_solve_law`` does,
    and where the rounding of the gamma's second difference, 4 eps max|v| /
    (s0 h)^2 over the three nodes, exceeds ``_GAMMA_ROUNDING`` x max(1, |gamma|):
    at maturities so short that s0 h is tiny against the option's value (at
    c1 = 5e-4, s0 = 100, K = 90 and tau = 1e-8, a rounding bound of 1.9e-5).
    """
    chain = _LawChain(rn, tau, nodes_below, steps)
    march = _solve_law(rn, tau, nodes_below, steps)[2]
    x, h, s, vol = chain.x, chain.h, nodes_below, chain.vol
    i, k, weights = _bracket(x, chain.log_x, strike)
    v = np.zeros(x.size)
    if i == 0:
        np.subtract(x, strike, out=v)
    for xj, w in zip(x[k:k + 4].tolist(), weights):
        v += w * np.maximum(x - xj, 0.0)
    w, source, vega = np.empty(x.size), np.empty(x.size), 0.0  # every step writes into these
    for (t, dt_n, theta), row in zip(reversed(chain.steps), march[::-1]):
        chain.rates(t, dt_n, theta)
        np.copyto(w, v)
        chain.solve(w, transposed=True)
        np.subtract(w, v, out=source)
        np.divide(source, vol, out=source)
        vega += float(np.dot(source, row))
        _cn_update(theta, w, v)  # v <- B^T v
    vega *= 2.0
    _require_finite_law(v, vega)
    below, price, above = v[s - 1:s + 2].tolist()
    v_y, v_yy = (above - below) / (2.0 * h), (above - 2.0 * price + below) / (h * h)
    gamma = (v_yy - v_y) / rn.s0 ** 2
    rounding = (4.0 * sys.float_info.epsilon * max(map(abs, (below, price, above)))
                / (rn.s0 * h) ** 2)
    if rounding > _GAMMA_ROUNDING * max(1.0, abs(gamma)):
        raise OutOfRange(f"swept gamma {gamma:.6g} has a rounding error up to {rounding:.3g} on "
                         f"the grid step s0 h = {rn.s0 * h:.3g}: the maturity is too short")
    return price, v_y / rn.s0, gamma, vega, rn.s0 * h


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


#: quadrature tolerance of ``price_formula``
_FORMULA_TOL = 1e-10


def _richardson(fine: float, coarse: float) -> float:
    """A second-order price with its h^2 error cancelled, from grids h (fine) and 2h."""
    return fine + (fine - coarse) / 3.0


def _law_quote(rn: RiskNeutralParams, opt: OptionSpec, tol: float) -> OptionQuote:
    """The formula on the solved law, at any c1 and tau > 0 (see ``price_formula``)."""
    from statistics import NormalDist  # 5 ms that commands without a law quote skip

    tau = opt.maturity - opt.t
    strike = opt.strike * _exp(-rn.r * tau, "discount", "-r tau")

    def coarse_price(m):  # on the default grid coarsened m x in price and in time
        law = law_map(rn, tau, nodes_below=LAW_NODES_BELOW // m, steps=LAW_STEPS // m)
        return law.price(strike)[0]

    law = law_map(rn, tau)
    fine, below, nodes_read = law.price(strike)
    half = coarse_price(2)
    price = _richardson(fine, half)
    d = -math.inf if below <= 0 else math.inf if below >= 1 else NormalDist().inv_cdf(below)
    estimate = abs(price - _richardson(half, coarse_price(4)))
    return OptionQuote(price=max(price, 0.0), method="formula", error_estimate=tol,
                       diagnostics={"d": d, "fT_inv_K": d * math.sqrt(tau), "ft_inv_x": 0.0,
                                    "nodes_or_paths": nodes_read, "exploded_fraction": 0.0,
                                    **law.grid, "law_error_estimate": estimate})


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InvalidGrid(f"tol must be a finite number > 0, got {tol}")


def _law_greeks(rn: RiskNeutralParams, opt: OptionSpec,
                tol: float = _FORMULA_TOL) -> tuple[float, dict]:
    """The price and ``greeks_bump``'s Greeks of ``price_formula`` at tau > 0, from
    ``_sweep_law`` on the default grid and the 2x coarser one, each
    Richardson-extrapolated as the price is; ``tol`` is checked, as it moves
    no law price.  ``ds`` is s0 h, h = alpha sinh(dxi) the fine grid's log gap
    on either side of the spot, and ``dsig`` is 0, as the vega is the exact
    sigma derivative of the swept price on the grid held fixed (one-sided at
    sigma = 0)."""
    _check_tol(tol)
    tau = opt.maturity - opt.t
    strike = opt.strike * _exp(-rn.r * tau, "discount", "-r tau")
    fine, coarse = (_sweep_law(rn, tau, strike, LAW_NODES_BELOW // m, LAW_STEPS // m)
                    for m in (1, 2))
    price, delta, gamma, vega = map(_richardson, fine[:4], coarse[:4])
    # a call's delta lies in [0, 1]; its central difference can leave it by rounding
    # (by ~1e-12 deep in the money), which the clamp takes off, as the price's clamp at 0
    # does for the price
    delta = min(max(delta, 0.0), 1.0)
    return price, {"delta": delta, "gamma": gamma, "vega": vega, "ds": fine[4], "dsig": 0.0}


def price_formula(rn: RiskNeutralParams, opt: OptionSpec,
                  tol: float = _FORMULA_TOL) -> OptionQuote:
    """Explicit-formula price: on the solved law for c1 > 0, by quadrature at c1 = 0.

    ``tol`` must be finite and > 0 (InvalidGrid); at T = t the quote is the
    intrinsic value.  Otherwise, for c1 > 0 the formula on the law map is
    E[(X - K')^+] on the law solve (``law_map``), K' = K e^{-r(T-t)}, at any
    sigma >= 0 (sigma = 0 is the constant-elasticity (CVE) model), read off
    its node sums (``SolvedLaw.price``) as R = P + (P - P_2) / 3 from the
    default grid and the one 2x coarser in price and time (every 2nd node and
    step): the solve's error has a clean dxi^2 term (Crank-Nicolson after a
    Rannacher start, on a smooth graded map), which R cancels.  The
    diagnostics give the grid (``law_nodes``, ``law_steps``,
    ``law_s_min``, ``law_s_max``, in today's money), the nodes read
    (``nodes_or_paths``), d = Phi^{-1}(P(X <= K')), ``fT_inv_K`` = d sqrt(T - t),
    ``ft_inv_x`` = 0 and ``law_error_estimate`` = |R - R_2|, R_2 the same
    extrapolation from the grids 2x and 4x coarser.  At c1 = 0 the map is the
    closed form, then exact, integrated by adaptive quadrature to ``tol``, the
    only price ``tol`` moves; ``error_estimate`` is ``tol`` (at sigma = 0,
    SigmaZeroUnsupported: the closed form divides by sigma).
    (``_formula_quote(rn, opt, tol, _CandidateMap(rn, opt))`` prices the
    paper's candidate map, which for c1 > 0 is not the model's.)
    """
    _check_tol(tol)
    if opt.maturity - opt.t == 0:
        return _intrinsic_quote(rn.s0, opt.strike, "formula")
    if rn.c1 == 0:
        return _formula_quote(rn, opt, tol, _CandidateMap(rn, opt))
    return _law_quote(rn, opt, tol)


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
    if rn.sigma == 0 and rn.c1 == 0:
        payoff = max(rn.s0 * _exp(rn.r * tau, "deterministic growth", "r tau")
                     - opt.strike, 0.0)
        return OptionQuote(price=disc * payoff, method="monte_carlo",
                           error_estimate=0.0,
                           diagnostics={"nodes_or_paths": n_paths,
                                        "deterministic": True,
                                        "exploded_fraction": 0.0})
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
    Richardson price (``_law_greeks``), one transposed solve per step, with
    the vega paired from the forward march that the quote's law solve kept
    (``_solve_law``; without a quote before it, the sweep runs the march).
    ``ds`` is the fine grid's spot step and ``dsig`` is 0, and an explicit
    ``ds`` or ``dsig`` raises InvalidGrid.  The sweep raises OutOfRange where
    its gamma would be rounding noise (see ``_sweep_law``).  Any other
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
    return {
        "delta": (p_up - p_dn) / (2.0 * ds),
        "gamma": (p_up - 2.0 * p0 + p_dn) / ds ** 2,
        "vega": (v_up - v_dn) / (2.0 * dsig),
        "ds": ds, "dsig": dsig,
    }
