"""The model's law, solved on a price grid: the law route of ``price_formula``.

For c1 > 0 the formula's map is the model's own law map f(z) = F^{-1}(Phi(z)),
where F is the risk-neutral distribution function of S_T given S_t = x;
on a law solve of the model's forward equation (``law_map``) the formula
is the same number as E[(X - K / rho)^+] for the price X = S_T / rho
discounted by the solve's own growth rho of the mean (~e^{r(T-t)}), which
the solve's node sums give directly; its delta, gamma and vega come from
one backward sweep of the solve's Markov chain per grid (``greeks_bump``),
the vega by pairing the sweep with the forward march the solve kept
(``_sweep_law``).  The chain is that of the undiscounted price in units of
s0 on graded nodes, dense at the spot and sparse in the tails up to a top
~1e30 x s0 (``_LawChain``): the model's volatility depends on the price
only through c1 S, so the chain depends on s0 only through c1 s0, and
every spot in the float range prices on the same grid; its generator does
not depend on time, so its one system is factored once per grid and each
step of the forward solve and of the sweep is one solve on those factors
(``_LawChain.solve``).  The chains
and forward marches of the last law solved stay cached (``_solve_law``),
one per grid a quote reads.  The route needs sigma + c1 s0 > 0 and a drift
|r| (T - t) that the grid can follow: at sigma = 0 it prices the
constant-elasticity (CVE) model.

The module needs numpy only at import.  The law solve loads scipy's
tridiagonal solver at first use, so that ``vve`` commands that never price
by formula at c1 > 0 do not pay for loading it: ``_lapack`` loads scipy's
f2py LAPACK module ``scipy.linalg._flapack``, whose ``dgttrf`` and
``dgttrs`` ``scipy.linalg.lapack`` re-exports, without the ``scipy.linalg``
package, whose import also loads ``numpy.f2py`` and ``numpy.testing``
through scipy's array-API copy of numpy.  A c1 > 0 formula quote or its
Greeks load ``scipy``'s start-up modules and that one extension, once per
process; a c1 = 0 quote loads no scipy.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import threading
from importlib.machinery import PathFinder

import numpy as np

from .errors import InvalidGrid, OutOfRange

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


_LAPACK = "scipy.linalg._flapack"
_lapack_lock = threading.Lock()


@functools.cache
def _lapack():
    """scipy's f2py LAPACK module, ``scipy.linalg._flapack``, loaded from its file
    in scipy's ``linalg`` directory without running the ``scipy.linalg``
    package's ``__init__``, so its functions are the very objects that
    ``scipy.linalg.lapack`` re-exports.  The module is registered under its
    name, so that a later ``import scipy.linalg`` reuses it (its ``from``
    imports read ``sys.modules``); the package then lacks the attribute
    ``_flapack``, which scipy never reads.  Where scipy is not installed as
    plain files, the module comes from ``from scipy.linalg import _flapack``.
    Threads that first call it together load it once."""
    with _lapack_lock:
        module = sys.modules.get(_LAPACK)
        if module is not None:
            return module
        import scipy  # its start-up, which sets its library paths

        spec = PathFinder.find_spec(_LAPACK, [os.path.join(scipy.__path__[0], "linalg")])
        if spec is None:
            from scipy.linalg import _flapack
            return _flapack
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return sys.modules.setdefault(_LAPACK, module)


class _LawChain:
    """The grid and the Markov chain of a law solve (see ``_solve_law``).

    The chain is that of the undiscounted price in units of s0, x = S / s0,
    whose volatility sigma + (c1 s0) x reads s0 only in the slope c1 s0, so
    the grid and the rules below do not depend on s0 itself.  Its generator A
    does not depend on time, so the one system I - a A of every step is
    factored once (``dgttrf``), and each step, forward or transposed, is one
    solve on its factors (``solve``).

    The nodes are e^{y_k}, y_k = alpha sinh(k dxi) with alpha = (sigma +
    c1 s0) sqrt(tau), one standard deviation at the spot; the spot is at
    index ``spot`` and the bottom ``_LAW_DEPTH_SD`` deviations (plus the
    log's drift alpha^2 / 2) below it.  The top is the last node at or below
    e^{``_LAW_TOP_LOG``} of the grid 4x coarser than the default one, so that
    every grid of the default's family, 2x and 4x coarser, is every 2nd and
    4th of its nodes (where it has no segment, below).  ``h`` = alpha
    sinh(dxi) is the log gap on either side of the spot (sinh is odd).
    Where the drift dominates, |r| tau > alpha, the law leaves the dense
    part of the grid: a uniform segment of gaps h, at least
    |r| tau - alpha long, is inserted at the spot on the drift side, and the
    graded nodes continue past it.

    A node's diffusion rates are var / (g+ (g+ + g-)) up and var / (g- (g+ +
    g-)) down, var = (sigma + c1 s0 x)^2, from its relative gaps g+ = x_{k+1} /
    x_k - 1 and g- = 1 - x_{k-1} / x_k (each end's missing gap from one more
    node of the map): they match its variance with zero mean.  Its drift
    rates r g- / (g+ (g+ + g-)) up and -r g+ / (g- (g+ + g-)) down match the
    drift r x exactly; where a total rate would then be negative (at sigma =
    0, in the lower tail) the node's drift is one-sided, max(r, 0) / g+ up
    and max(-r, 0) / g- down.  The bottom absorbs and the top only jumps
    down.  The diagonal of I - a A is 1 less its column's two off-diagonal
    entries, so that every column sums to 1 as exactly as floating point
    allows.  ``vega_up`` and ``vega_down``, a vol / (g+ (g+ + g-)) from node
    k and -a vol / (g- (g+ + g-)) from node k + 1 with vol = sigma + c1 s0 x,
    are half of a times the sigma derivatives of the diffusion rates up and
    (negated) down: what the vega's pairing reads (``_sweep_law``).

    ``steps`` holds each step's theta: four implicit-Euler half steps
    (Rannacher), then Crank-Nicolson, so that the implicit weight a =
    theta dt_n is dt/2 on every step.  The march grows the mean by 1 / (1 -
    a r) on an implicit-Euler step and by (1 + a r) / (1 - a r) on a
    Crank-Nicolson one, rho in all, and ``x`` holds the nodes in units of s0
    of today's money, e^{y_k} / rho, with their logs in ``log_x``: discounted
    by its own growth, the law keeps its mean at 1 to rounding.
    Raises OutOfRange, before any step, where a |r| >= 1; where the drift
    would carry the law past the grid (|r| tau - alpha beyond the depth or
    the top); where the nodes leave the float range or their logs do not
    strictly increase (error messages print nodes in money); and where the
    system is not finite.
    """

    def __init__(self, rn: RiskNeutralParams, tau: float, nodes_below: int, steps: int):
        if nodes_below < 2 or steps < 2:
            raise InvalidGrid("law solve needs at least 2 nodes below the spot and 2 steps")
        slope = rn.c1 * rn.s0
        alpha = (rn.sigma + slope) * math.sqrt(tau)
        if not (alpha > 0.0 and math.isfinite(_LAW_TOP_LOG / alpha)):
            raise OutOfRange(f"law grid needs alpha = (sigma + c1 s0) sqrt(tau) > 0 with top / "
                             f"alpha in float range, got alpha = {alpha:.6g} and top = "
                             f"{_LAW_TOP_LOG:.6g} (log price)")
        depth = _LAW_DEPTH_SD * alpha + 0.5 * alpha * alpha
        drift, reach = abs(rn.r) * tau - alpha, min(depth, _LAW_TOP_LOG)
        if drift > reach:
            raise OutOfRange(f"law grid cannot follow the drift: |r| tau - alpha = {drift:.6g} "
                             f"(log price) carries the law past the grid, which reaches "
                             f"{reach:.3g} from s0")
        a = 0.5 * (tau / steps)
        if not abs(rn.r) * a < 1.0:
            raise OutOfRange(f"law chain needs |r| dt/2 < 1, got {abs(rn.r) * a:.6g}")
        xi_bottom, unit = math.asinh(depth / alpha), LAW_NODES_BELOW // 4
        # the segment: n_seg gaps of ~h on the drift side (up if r > 0), which shifts the
        # graded nodes past it
        gap = alpha * math.sinh(xi_bottom / nodes_below)
        side, n_seg = (1 if rn.r > 0 else -1), (math.ceil(drift / gap) if drift > 0.0 else 0)
        shift = n_seg * gap if n_seg else 0.0
        shift_down, shift_up = (0.0, shift) if side > 0 else (shift, 0.0)
        if not math.exp(-depth - shift_down) > 0.0:
            raise OutOfRange(f"law grid depth {depth + shift_down:.3g} (log price) is beyond "
                             "float range")
        top_units = max(math.floor(math.asinh((_LAW_TOP_LOG - shift_up) / alpha) / xi_bottom
                                   * unit), 1)
        below = nodes_below + (n_seg if side < 0 else 0)
        above = -(-top_units * nodes_below // unit) + (n_seg if side > 0 else 0)
        # the map at every node and one more past each end: graded, and past the
        # segment graded again from its end
        k = np.arange(-below - 1, above + 2)
        past = np.maximum(side * k - n_seg, 0)
        with np.errstate(all="ignore"):
            y = alpha * np.sinh(xi_bottom * (np.where(side * k > 0, side * past, k) / nodes_below))
            self.h = h = float(y[below + 2] if side < 0 or not n_seg else -y[below])
            if n_seg:
                y = np.where(side * k > n_seg, y + side * (n_seg * h),
                             np.where(side * k > 0, k * h, y))
            x = np.exp(y[1:-1])
            gaps = np.diff(y)
            up, down = np.expm1(gaps[1:]), -np.expm1(-gaps[:-1])
        growth = (1.0 + a * rn.r) / (1.0 - a * rn.r)
        try:
            self.rho = rho = growth ** (steps - 2) / (1.0 - a * rn.r) ** 4
        except OverflowError:
            rho = math.inf
        with np.errstate(all="ignore"):
            self.x = x / rho
        if not (self.x[0] > 0.0 and self.x[-1] < math.inf):
            raise OutOfRange(f"law nodes over the march's growth rho = {rho:.6g} leave the "
                             "float range")
        self.log_x = np.log(self.x)
        increasing = np.diff(self.log_x) > 0
        if not np.all(increasing):
            j = int(np.argmin(increasing))
            raise OutOfRange(f"law nodes {rn.s0 * self.x[j]:.17g} and {rn.s0 * self.x[j + 1]:.17g} "
                             "are not strictly increasing in floating point")
        self.spot, self.steps = below, [1.0] * 4 + [0.5] * (steps - 2)
        with np.errstate(all="ignore"):
            unit_up, unit_down = 1.0 / (up * (up + down)), 1.0 / (down * (up + down))
            unit_up[[0, -1]] = unit_down[0] = 0.0
            vol = slope * x + rn.sigma
            var = np.square(vol)
            drift_up, drift_down = rn.r * down * unit_up, -rn.r * up * unit_down
            one_sided = (var * unit_up + drift_up < 0.0) | (var * unit_down + drift_down < 0.0)
            drift_up = np.where(one_sided, max(rn.r, 0.0) / up, drift_up)
            drift_down = np.where(one_sided, max(-rn.r, 0.0) / down, drift_down)
            drift_up[[0, -1]] = drift_down[0] = 0.0  # the bottom absorbs, the top only jumps down
            lower = -a * (var[:-1] * unit_up[:-1] + drift_up[:-1])
            upper = -a * (var[1:] * unit_down[1:] + drift_down[1:])
            self.vega_up, self.vega_down = a * vol[:-1] * unit_up[:-1], -a * vol[1:] * unit_down[1:]
            d = np.zeros(x.size)
            d[:-1] -= lower
            d[1:] -= upper
            d += 1.0
        if not np.all(np.isfinite(d)):
            total = (d[-2:] - 1.0) / a
            raise OutOfRange(f"law solve overflowed: the grid top {rn.s0 * x[-1]:.3g} and the node "
                             f"below it jump at total rates {total[1]:.3g} and {total[0]:.3g}, "
                             f"beyond float range over dt/2 = {a:.3g}")
        lapack = _lapack()
        self._factors, self._dgttrs = lapack.dgttrf(lower, d, upper)[:5], lapack.dgttrs
        for array in (self.x, self.log_x, self.vega_up, self.vega_down, *self._factors):
            array.flags.writeable = False

    def solve(self, b, transposed: bool = False) -> None:
        """b <- y with (I - a A) y = b, or (I - a A)^T y = b, on the one system's
        factors; ``dgttrs`` solves in place: b must be a contiguous float vector."""
        self._dgttrs(*self._factors, b, "T" if transposed else "N", 1)  # info goes unread


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
    (rn, tau) frees the last one's chains and marches before its own allocate.
    Threads may share the dict; a grid two threads miss together is solved by
    each."""
    return {}


def _solve_law(rn: RiskNeutralParams, tau: float, nodes_below: int, steps: int):
    """Law of S_tau / s0 given S_0 = s0 on the chain ``_LawChain``, with its march.

    Crank-Nicolson solve of the model's forward equation in conservative
    form on the graded nodes of ``_LawChain``: a continuous-time Markov chain
    whose jump rates match the local mean and variance of dS = S (r dt +
    (sigma + c1 S) dB) at every node, with one generator for every step.
    The bottom node absorbs and the top node only jumps down, so probability
    is conserved and the mean grows by the chain's own growth rho except for
    what the top reflects: discounted by rho, it exceeds 1 by rounding at
    most.  Four implicit-Euler half steps (Rannacher) start the march from
    the point mass at the spot.  The top is far out in the heavy upper tail
    (~1e30 x s0; the graded nodes make that cheap), so the value the top
    reflects is negligible.  Each step is one solve on the chain's factors.  Raises
    OutOfRange before any step where the grid, the drift or the system
    leave the chain's range (``_LawChain``), as for very large c1 s0 tau or
    |r| tau or tiny tau.  With the Rannacher start the error expands cleanly
    in dxi^2 and dt^2 on the smooth graded map (Giles & Carter 2006), so
    ``price_formula`` cancels its leading term by Richardson extrapolation
    from the default grid (``LAW_NODES_BELOW`` x ``LAW_STEPS``) and the one 2x
    coarser in both, which is every 2nd node and step of it.

    Returns (chain, probabilities, march), the arrays read-only; at sigma =
    0, those of the CVE model.  The probabilities sit on the nodes
    ``chain.x``, which are in units of s0 of today's money.  Row n of the
    (len(chain.steps), nodes) array ``march`` is c_n y_n, y_n = (I - a A)^{-1}
    p_n the solve of step n, c_n = 2 on a Crank-Nicolson step and 1 on an
    implicit-Euler one (``_cn_update``): what ``_sweep_law`` pairs its vega
    with.  Cached for the last (rn, tau) (``_law_solves``): a quote's three
    grids, ~2.8 MB at the defaults, whose first two the Greek set after it
    sweeps on the same factors.
    """
    solves = _law_solves(rn, tau)
    if (nodes_below, steps) in solves:
        return solves[nodes_below, steps]
    chain = _LawChain(rn, tau, nodes_below, steps)
    p = np.zeros(chain.x.size)
    p[chain.spot] = 1.0
    march = np.empty((len(chain.steps), chain.x.size))  # step n solves in row n
    for theta, y in zip(chain.steps, march):
        np.copyto(y, p)
        chain.solve(y)
        _cn_update(theta, y, p)
    _require_finite_law(p)
    for a in (p, march):
        a.flags.writeable = False
    solves[nodes_below, steps] = chain, p, march
    return chain, p, march


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
    """A law solve's node sums as read-only arrays: on the nodes x_j (prices in
    units of s0 of today's money, the chain's nodes over its growth rho),
    ``calls[j]`` = E[(X - x_j)^+] = sum_{k>j} p_k (x_k - x_j), from two
    reversed cumulative sums, and ``cdf[j]`` = P(X <= x_j); ``mean`` is s0
    E[X], in money.  The nodes are a ``_LawChain``'s, whose logs strictly
    increase.  ``grid`` holds its size and its ends in money, the top
    infinite where s0 x is beyond the float range.
    """

    def __init__(self, x, p, steps: int, rho: float, s0: float):
        tail_p, tail_px = (np.cumsum(a[::-1])[::-1] for a in (p, p * x))
        self.x, self.log_x, self.calls, self.cdf = x, np.log(x), tail_px - x * tail_p, np.cumsum(p)
        for a in (self.x, self.log_x, self.calls, self.cdf):
            a.flags.writeable = False
        self.mean, self.rho, self.s0 = s0 * float(tail_px[0]), rho, s0
        self.grid = {"law_nodes": int(x.size), "law_steps": steps,
                     "law_s_min": s0 * float(x[0]), "law_s_max": s0 * float(x[-1])}

    def price(self, strike: float) -> tuple[float, float, int]:
        """s0 E[(X - K')^+] for the strike K, K' = K / s0 / rho, P(X <= K') and the
        nodes read.

        The call is the 4-node Lagrange interpolation of ``calls`` in log strike,
        s0 (E[X] - K') below the bottom node and 0 at or above the top one (where
        P(X <= K') is 1: the solve conserves mass), clamped at 0."""
        strike = strike / self.s0 / self.rho
        i, k, weights = _bracket(self.x, self.log_x, strike)
        if not weights:
            return (max(self.mean - self.s0 * strike, 0.0), 0.0, 0) if i == 0 else (0.0, 1.0, 0)
        price = sum(c * w for c, w in zip(self.calls[k:k + 4].tolist(), weights))
        return self.s0 * max(price, 0.0), float(self.cdf[i - 1]), 4


@functools.lru_cache(maxsize=32)
def law_map(rn: RiskNeutralParams, tau: float, nodes_below: int = LAW_NODES_BELOW,
            steps: int = LAW_STEPS) -> SolvedLaw:
    """The law of S_{t+tau} given S_t = rn.s0, discounted by the chain's growth
    rho, with its node sums.

    Cached, as the solve is the costly step; a warm quote is one binary search
    and a 4-node interpolation.  It depends on tau, not t: the SDE is
    time-homogeneous.  Every c1 > 0 ``price_formula`` quote reads the default
    grid, the 2x coarser one and (for ``law_error_estimate``) the 4x coarser
    one, which share the default grid's graded nodes (``_LawChain``), and
    reads each at K / s0 / rho, rho that grid's growth.  It is built from
    ``_solve_law``, whose chains and marches of the first two grids a
    ``greeks_bump(price_formula, ...)`` set then sweeps and pairs its vega
    with (``_sweep_law``).  Threads may share the cache; two that miss on one
    key each solve it alike.  sigma = 0 is the CVE model.
    """
    chain, p, _ = _solve_law(rn, tau, nodes_below, steps)
    return SolvedLaw(chain.x, p, steps, chain.rho, rn.s0)


def _sweep_law(rn: RiskNeutralParams, tau: float, strike: float, nodes_below: int,
               steps: int) -> tuple[float, float, float, float, float]:
    """(price, delta, gamma, vega, s0 h) of ``SolvedLaw.price``'s s0 E[(X - K')^+]
    for the strike K, K' = K / s0 / rho, from a backward sweep of
    ``_solve_law``'s chain on the same graded grid, h the log gap on either
    side of the spot.

    The sweep runs in units of s0, as the chain does: its price and vega are
    s0 times the swept ones, its delta is the swept one, and its gamma the
    swept one over s0.  The terminal vector g_k = sum_j w_j (x_k - x_j)^+
    over the 4 nodes that ``SolvedLaw.price`` interpolates (``_bracket``'s
    weights w_j at K'; x - K' below the bottom node, 0 at or above the top
    one) is that price's exact dual, so the swept value at the spot node is
    the forward price, unclamped, to rounding.  With B = (I - a A)^{-1} (an implicit-Euler
    step) or 2 (I - a A)^{-1} - I (a Crank-Nicolson one) the forward step, the
    sweep walks the steps in reverse: v <- B^T v, one transposed solve w =
    (I - a A)^{-T} v per step on the factors of the chain, which the quote's
    ``law_map`` has just built (on a miss, the chain and its march are built
    here).  Delta and gamma are central differences in log price at the spot
    node, whose two gaps are equal (the grid held fixed).  The vega (the grid
    held fixed, too) pairs the sweep with the forward march from the spot,
    ``_solve_law``'s cached ``march``: the price is v_{n+1}^T B_n p_n at every
    step n, and dB_n/dsigma = c_n (I - a A)^{-1} a (dA/dsigma) (I - a A)^{-1},
    so the vega is sum_n c_n w_n^T a (dA/dsigma) y_n, y_n the march's solve.
    Only the diffusion rates move with sigma, each var = vol^2 times a unit
    rate, so a (dA/dsigma)^T w at node k is 2 (``vega_up`` (w_{k+1} - w_k)
    + ``vega_down`` (w_k - w_{k-1})), two differences of w with no
    cancellation against v, and step n adds its dot with row_n = c_n y_n.
    Raises OutOfRange before any step as ``_solve_law`` does, and where the
    rounding of the gamma's second difference in money, 4 eps max|v| / h^2
    / s0 over the three nodes, exceeds ``_GAMMA_ROUNDING`` x max(1,
    |gamma|): at maturities so short that s0 h is tiny against the option's
    value (at c1 = 5e-4, s0 = 100, K = 90 and tau = 1e-8, a rounding bound
    of 1.9e-5).
    """
    chain, _, march = _solve_law(rn, tau, nodes_below, steps)
    x, h, s = chain.x, chain.h, chain.spot
    strike = strike / rn.s0 / chain.rho
    i, k, weights = _bracket(x, chain.log_x, strike)
    v = np.zeros(x.size)
    if i == 0:
        np.subtract(x, strike, out=v)
    for xj, w in zip(x[k:k + 4].tolist(), weights):
        v += w * np.maximum(x - xj, 0.0)
    # every step writes into these; the bottom node's source stays 0 (it absorbs)
    w, source, diff, flow, vega = (np.empty(x.size), np.zeros(x.size), np.empty(x.size - 1),
                                   np.empty(x.size - 1), 0.0)
    # the sigma derivatives' rates, and w and the source without their first and their last node
    up, down, w_hi, w_lo, source_hi, source_lo = (chain.vega_up, chain.vega_down, w[1:], w[:-1],
                                                  source[1:], source[:-1])
    for theta, row in zip(reversed(chain.steps), march[::-1]):
        np.copyto(w, v)
        chain.solve(w, transposed=True)
        np.subtract(w_hi, w_lo, out=diff)
        np.multiply(down, diff, out=source_hi)
        np.multiply(up, diff, out=flow)
        np.add(source_lo, flow, out=source_lo)  # a (dA/dsigma)^T w / 2
        vega += float(np.dot(source, row))
        _cn_update(theta, w, v)  # v <- B^T v
    vega *= 2.0
    _require_finite_law(v, vega)
    below, price, above = v[s - 1:s + 2].tolist()
    v_y, v_yy = (above - below) / (2.0 * h), (above - 2.0 * price + below) / (h * h)
    gamma = (v_yy - v_y) / rn.s0
    rounding = 4.0 * sys.float_info.epsilon * max(map(abs, (below, price, above))) / (h * h) / rn.s0
    if rounding > _GAMMA_ROUNDING * max(1.0, abs(gamma)):
        raise OutOfRange(f"swept gamma {gamma:.6g} has a rounding error up to {rounding:.3g} on "
                         f"the grid step s0 h = {rn.s0 * h:.3g}: the maturity is too short")
    return rn.s0 * price, v_y, gamma, rn.s0 * vega, rn.s0 * h


def _richardson(fine: float, coarse: float) -> float:
    """A second-order price with its h^2 error cancelled, from grids h (fine) and 2h."""
    return fine + (fine - coarse) / 3.0
