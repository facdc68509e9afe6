"""Unit tests for vve.pricing, the law solve it reads (vve.law) and the paper's
candidate map with its inverse (vve.sde)."""

import functools
import gc
import json
import math
import sys
import threading
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    LawMapReference,
    _CandidateMap,
    _formula_quote,
    bs_call_mp,
    bs_delta_mp,
    bs_gamma_mp,
    bs_vega_mp,
    closed_form_mp,
    inverse_bessel_call,
    qnv_call,
    solve_law_reference,
    sweep_law_reference,
)
from vve.errors import (
    DegenerateDiffusion,
    ExplosionRegion,
    InvalidGrid,
    NegativeCoefficient,
    NonPositiveSpot,
    OutOfRange,
    SigmaZeroUnsupported,
)
from vve.law import (
    _LAW_DEPTH_SD,
    _LAW_TOP_LOG,
    SolvedLaw,
    _LawChain,
    _lapack,
    _law_solves,
    _solve_law,
)
from vve.model import ModelParams, validate_params
from vve.pricing import (
    LAW_NODES_BELOW,
    LAW_STEPS,
    OptionQuote,
    OptionSpec,
    RiskNeutralParams,
    _law_greeks,
    _law_quote,
    _richardson,
    _sweep_law,
    _terminal_values,
    greeks_bump,
    law_map,
    norm_cdf,
    price_bs,
    price_formula,
    price_mc,
)
from vve.sde import _map_coefficients, euler_terminal, forward_map, inverse_map

RN_GBM = RiskNeutralParams(sigma=0.2, c1=0.0, s0=100.0, r=0.05)
RN_VVE = RiskNeutralParams(sigma=0.2, c1=5e-4, s0=100.0, r=0.05)
ATM = OptionSpec(strike=100.0, maturity=1.0, rate=0.05)
#: price_formula as a bump oracle: greeks_bump sweeps price_formula itself at c1 > 0, tau > 0,
#: and bumps any other pricer
BUMPED_FORMULA = functools.partial(price_formula)


class TestSpecsAndParams:
    def test_option_spec_validation(self):
        with pytest.raises(NegativeCoefficient):
            OptionSpec(strike=-1.0, maturity=1.0, rate=0.05)
        with pytest.raises(NegativeCoefficient):
            OptionSpec(strike=100.0, maturity=1.0, rate=0.05, t=1.5)
        for bad in ({"strike": math.nan}, {"maturity": math.inf}, {"rate": math.nan}):
            with pytest.raises(NegativeCoefficient):
                OptionSpec(**{"strike": 100.0, "maturity": 1.0, "rate": 0.05, **bad})

    def test_closed_form_continuous_at_r_half_sigma_sq(self):
        """The closed form's division by r - sigma^2/2 is removable: at and on either
        side of r = sigma^2/2 its map matches the paper's expression in 50 digits."""
        half_sq = 0.5 * 0.2 ** 2  # gamma = 0 exactly; 0.02 leaves gamma = -3.5e-18
        for r in (half_sq - 1e-9, half_sq, half_sq + 1e-9, 0.02):
            for c1 in (0.0, 1e-4):
                rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=r)
                np.testing.assert_allclose(_map_coefficients(rn, 1.0),
                                           closed_form_mp(r, 0.2, c1, 100.0, 1.0), rtol=1e-12)
                assert price_mc(rn, ATM, 100, 10, 0).price > 0.0
            gbm = RiskNeutralParams(sigma=0.2, c1=0.0, s0=100.0, r=r)
            assert price_formula(gbm, ATM).price == pytest.approx(price_bs(gbm, ATM).price,
                                                                  abs=1e-9)

    def test_non_positive_spot(self):
        with pytest.raises(NonPositiveSpot):
            RiskNeutralParams(sigma=0.2, c1=0.0, s0=0.0, r=0.05)

    def test_negative_coefficient_names_values(self):
        with pytest.raises(NegativeCoefficient, match=r"got sigma=-0\.2, c1=0\.0001"):
            RiskNeutralParams(sigma=-0.2, c1=1e-4, s0=100.0, r=0.05)

    def test_riskless_refused_as_by_validate_params(self):
        # sigma = c1 = 0 leaves no risk: one check refuses it for both parameter classes
        for build in (functools.partial(RiskNeutralParams, 0.0, 0.0, 100.0, 0.05),
                      functools.partial(validate_params, 0.05, 0.0, 0.0, 100.0)):
            with pytest.raises(DegenerateDiffusion, match="sigma = c1 = 0"):
                build()

    @pytest.mark.parametrize("field", ["sigma", "c1", "s0", "r"])
    def test_non_finite_params_rejected(self, field):
        for bad in (math.nan, math.inf):
            with pytest.raises(NegativeCoefficient):
                RiskNeutralParams(**{"sigma": 0.2, "c1": 1e-4, "s0": 100.0, "r": 0.05,
                                     field: bad})

    def test_non_finite_quote_rejected(self):
        for price, error in ((math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0)):
            with pytest.raises(OutOfRange):
                OptionQuote(price=price, method="monte_carlo", error_estimate=error)

    def test_negative_quote_rejected(self):
        for price, error in ((-1.0, 0.0), (1.0, -1e-300)):
            with pytest.raises(NegativeCoefficient, match="must be >= 0"):
                OptionQuote(price=price, method="formula", error_estimate=error)

    def test_norm_cdf(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(3.0) + norm_cdf(-3.0) == pytest.approx(1.0, abs=1e-15)


class TestForwardMap:
    def test_initial_condition(self):
        assert forward_map(RN_VVE, 0.0, 0.0) == pytest.approx(100.0, rel=1e-12)

    def test_gbm_collapse(self):
        w = np.linspace(-2, 2, 9)
        gamma = RN_GBM.r - 0.5 * RN_GBM.sigma ** 2
        expected = 100.0 * np.exp(gamma * 0.7 + RN_GBM.sigma * w)
        np.testing.assert_allclose(forward_map(RN_GBM, 0.7, w), expected, rtol=1e-12)

    def test_strictly_increasing_and_derivative_positive(self):
        a, b, c = _map_coefficients(RN_VVE, 1.0)
        w = np.linspace(-5, 7, 500)  # inside the valid domain (asymptote ~ 8.3)
        vals = forward_map(RN_VVE, 1.0, w)
        assert np.all(np.diff(vals) > 0)
        deriv = RN_VVE.sigma * b * c * np.exp(-RN_VVE.sigma * w) \
            / (a + b * np.exp(-RN_VVE.sigma * w)) ** 2
        assert np.all(deriv > 0)

    def test_explosion_region(self):
        a, b, _ = _map_coefficients(RN_VVE, 1.0)
        w_star = -math.log(-a / b) / RN_VVE.sigma
        with pytest.raises(ExplosionRegion):
            forward_map(RN_VVE, 1.0, w_star + 1.0)

    @pytest.mark.parametrize("c1", [0.0, 5e-4])
    def test_overflowing_lower_tail_is_zero(self, c1):
        # e^{-sigma w} overflows: the denominator is infinite, not beyond the asymptote
        rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.05)
        assert forward_map(rn, 1.0, -4000.0) == 0.0
        assert forward_map(rn, 1.0, np.array([-4000.0, 0.0]))[0] == 0.0

    def test_sigma_zero_unsupported(self):
        rn = RiskNeutralParams(sigma=0.0, c1=0.001, s0=100.0, r=0.05)
        with pytest.raises(SigmaZeroUnsupported):
            forward_map(rn, 0.5, 0.0)

    def test_exp_gamma_t_underflow_refused(self):
        # gamma t = -1000.02: exp(gamma t), and with it c, is 0, which leaves f_t = 0
        rn = RiskNeutralParams(sigma=0.2, c1=1e-4, s0=100.0, r=-1e3)
        for call in (functools.partial(forward_map, rn, 1.0, 0.0),
                     functools.partial(inverse_map, rn, 1.0, 100.0)):
            with pytest.raises(OutOfRange, match=r"exp\(gamma t\) > 0, got gamma t = -1000\.02"):
                call()


class TestInverseMap:
    def test_round_trip_residual_contract(self):
        for t in (0.0, 0.5, 1.0):
            for x in np.geomspace(20.0, 500.0, 25):
                w = inverse_map(RN_VVE, t, float(x))
                f = forward_map(RN_VVE, t, w)
                assert abs(f - x) / x <= 1e-12

    def test_gbm_inverse(self):
        x = 100.0 * math.exp(0.05 - 0.02)
        assert inverse_map(RN_GBM, 1.0, x) == pytest.approx(0.0, abs=1e-9)
        assert inverse_map(RN_GBM, 0.0, 100.0) == 0.0  # the spot maps to B = 0
        gamma = RN_GBM.r - 0.5 * RN_GBM.sigma ** 2
        for t, x in ((0.0, 80.0), (0.5, 100.0), (1.0, 125.0), (2.0, 40.0)):
            w = (math.log(x / RN_GBM.s0) - gamma * t) / RN_GBM.sigma
            assert inverse_map(RN_GBM, t, x) == pytest.approx(w, rel=0, abs=1e-15)

    def test_out_of_range_above_supremum(self):
        # at large t the map coefficient a turns positive and f is bounded
        a, b, c = _map_coefficients(RN_VVE, 40.0)
        assert a > 0
        with pytest.raises(OutOfRange):
            inverse_map(RN_VVE, 40.0, 2.0 * c / a)

    def test_out_of_range_beyond_explosion(self):
        with pytest.raises(OutOfRange):
            inverse_map(RN_VVE, 1.0, 1e200)

    def test_non_positive_price(self):
        with pytest.raises(OutOfRange):
            inverse_map(RN_VVE, 1.0, 0.0)

    @pytest.mark.parametrize("rn, x, num, den", [
        # sigma s0 underflows: c - a x = 0
        (RiskNeutralParams(sigma=1e-300, c1=0.0, s0=1e-300, r=0.05), 1e-300, "0", "0"),
        # sigma x underflows: b x = 0 over a positive c - a x
        (RiskNeutralParams(sigma=1e-300, c1=0.0, s0=100.0, r=0.05), 1e-300, "0",
         "1.05127e-298"),
    ], ids=["zero_den", "zero_num"])
    def test_inverse_leaves_float_range(self, rn, x, num, den):
        with pytest.raises(OutOfRange, match=rf"leaves float range \(b x = {num}, "
                                             rf"c - a x = {den}\)"):
            inverse_map(rn, 1.0, x)


def candidate_map_reference(coefs, sigma, w):
    """The candidate map's array formula c / (a + b e^{-sigma w}): 0 where the
    denominator is infinite, c / 0 = inf where it is 0."""
    a, b, c = coefs
    with np.errstate(over="ignore", divide="ignore"):
        den = a + b * np.exp(-sigma * np.asarray(w))
        return np.where(np.isinf(den), 0.0, c / den)


class TestCandidateMapIntegrand:
    """The quadrature's integrand, one z at a time in floats, has the array formula's
    bits; ``math.exp`` differs from numpy's exp on a few per cent of inputs."""

    @pytest.mark.parametrize("rn, opt", [
        (RN_GBM, ATM),
        (RN_VVE, ATM),
        (replace(RN_VVE, c1=2e-3, r=-0.02), OptionSpec(strike=90.0, maturity=2.0, rate=-0.02,
                                                        t=0.5)),
    ], ids=["c1=0", "c1>0", "c1>0_t>0"])
    def test_bit_for_bit_with_array_formula(self, rn, opt):
        smap = _CandidateMap(rn, opt)
        rng = np.random.default_rng(2201)
        # the quadrature's range, both sides of a c1 > 0 map's asymptote, and far
        # below, where e^{-sigma w} overflows and f is 0
        z = np.concatenate([rng.normal(0.0, 4.0, 10_000), rng.uniform(-40.0, 60.0, 2_000),
                            rng.uniform(-1e4, -4e3, 500)]).tolist()
        with np.errstate(over="ignore"):
            got = np.array([smap(zi) for zi in z])
        want = candidate_map_reference(smap.coefs, rn.sigma,
                                       [smap.w_t + zi * smap.sqrt_tau for zi in z])
        assert got.tobytes() == want.tobytes()
        assert np.count_nonzero(got == 0.0) >= 500

    def test_zero_denominator_is_inf(self):
        # a map whose asymptote falls on a float w: there a + b e^{-sigma w} is exactly 0
        smap = _CandidateMap(RN_VVE, ATM)
        z = 3.0
        w = smap.w_t + z * smap.sqrt_tau
        a, b, c = smap.coefs
        smap.coefs = (-(b * float(np.exp(-RN_VVE.sigma * w))), b, c)
        assert smap(z) == math.inf
        assert candidate_map_reference(smap.coefs, RN_VVE.sigma, [w]).tolist() == [math.inf]


class TestPriceFormula:
    def test_intrinsic_at_expiry(self):
        itm = price_formula(RN_VVE, OptionSpec(strike=80.0, maturity=1.0, rate=0.05, t=1.0))
        otm = price_formula(RN_VVE, OptionSpec(strike=120.0, maturity=1.0, rate=0.05, t=1.0))
        assert itm.price == 20.0 and otm.price == 0.0

    def test_gbm_matches_black_scholes(self):
        formula = price_formula(RN_GBM, ATM).price
        bs = price_bs(RN_GBM, ATM).price
        assert formula == pytest.approx(bs, abs=1e-9)

    def test_zero_strike_gbm_equals_spot(self):
        quote = price_formula(RN_GBM, OptionSpec(strike=0.0, maturity=1.0, rate=0.05))
        assert quote.price == pytest.approx(100.0, abs=1e-8)

    def test_monotone_in_strike(self):
        prices = [price_formula(RN_VVE, OptionSpec(strike=k, maturity=1.0, rate=0.05)).price
                  for k in np.linspace(60.0, 140.0, 9)]
        assert np.all(np.diff(prices) < 0)

    def test_no_arbitrage_bounds(self):
        for rn in (RN_GBM, RiskNeutralParams(sigma=0.2, c1=1e-4, s0=100.0, r=0.05), RN_VVE):
            for k in (0.0, 60.0, 100.0, 140.0):
                p = price_formula(rn, OptionSpec(strike=k, maturity=1.0, rate=0.05)).price
                assert max(100.0 - k * math.exp(-0.05), 0.0) - 1e-9 <= p <= 100.0 + 1e-9

    def test_wide_parameter_bounds(self):
        # the discounted price is a strict local martingale: at c1 s0 = 10 the
        # zero-strike call is far below the spot, so the parity lower bound
        # S0 - K e^{-rT} fails and only 0 <= C(K) <= S0 holds
        rn = RiskNeutralParams(sigma=0.2, c1=0.01, s0=1000.0, r=0.05)
        strikes = (0.0, 100.0, 500.0, 1000.0, 2000.0)
        prices = [price_formula(rn, OptionSpec(strike=k, maturity=1.0, rate=0.05)).price
                  for k in strikes]
        for p in prices:
            assert 0.0 <= p <= 1000.0
        assert np.all(np.diff(prices) < 0)
        assert prices[0] < 1000.0
        assert prices[0] == pytest.approx(68.4, abs=0.5)

    def test_diagnostics_report_the_law_route(self):
        quote = price_formula(RN_VVE, ATM)
        assert quote.diagnostics.keys() == {"d", "nodes_or_paths", "law_nodes", "law_steps",
                                            "law_s_min", "law_s_max", "law_error_estimate",
                                            "martingale_defect"}
        assert quote.method == "formula"
        # the error estimate is the law route's own: |R - R_2|
        assert quote.error_estimate == quote.diagnostics["law_error_estimate"]
        # the interpolation reads 4 law nodes; d is Phi^{-1}(P(X <= K')), near 0 at the money
        assert quote.diagnostics["nodes_or_paths"] == 4
        assert abs(quote.diagnostics["d"]) < 0.2
        # the law solve reports its grid, which brackets the spot
        assert quote.diagnostics["law_steps"] > 0
        assert quote.diagnostics["law_s_min"] < 100.0 < quote.diagnostics["law_s_max"]
        assert 0.0 < quote.diagnostics["law_error_estimate"] < 1e-3

    def test_time_homogeneous(self):
        # the SDE does not depend on time, so at fixed T - t neither may the price
        now = price_formula(RN_VVE, ATM)
        later = price_formula(RN_VVE, OptionSpec(strike=100.0, maturity=1.5, rate=0.05, t=0.5))
        assert abs(later.price - now.price) <= now.diagnostics["law_error_estimate"]

    def test_candidate_map_reachable(self):
        # at c1 = 0 the candidate is the exact law; for c1 > 0 it is not even
        # a martingale: its zero-strike call is worth more than the spot
        def candidate(rn, opt):
            return _formula_quote(rn, opt, 1e-10, _CandidateMap(rn, opt))

        assert abs(candidate(RN_GBM, ATM).price - price_formula(RN_GBM, ATM).price) <= 1e-12
        zero = OptionSpec(strike=0.0, maturity=1.0, rate=0.05)
        assert candidate(RN_VVE, zero).price > 101.0

    def test_large_c1_s0_tau(self):
        # the law grid's depth grows like (sigma + c1 s0)^2 tau: the pricer
        # quotes within the no-arbitrage bounds or refuses with OutOfRange
        for c1, tau in ((0.01, 1.0), (0.01, 2.0), (0.01, 4.0), (0.02, 1.0), (0.1, 1.0)):
            rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=1000.0, r=0.05)
            for k in (0.0, 1000.0):
                try:
                    quote = price_formula(rn, OptionSpec(strike=k, maturity=tau, rate=0.05))
                except OutOfRange:
                    assert c1 * 1000.0 * math.sqrt(tau) > 20.0
                    continue
                assert math.isfinite(quote.price)
                assert 0.0 <= quote.price <= 1000.0 + 1e-9
                # the grid top is at most ~1e30 x s0
                assert quote.diagnostics["law_s_max"] <= 1000.0 * 2e30


class TestClosedFormAtC1Zero:
    """At c1 = 0 the formula is the Black-Scholes closed form: ``price_bs``'s price
    bit for bit, which the paper's map priced by quadrature matches to rounding."""

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2, 0.35, 0.5])
    def test_black_scholes_bits_and_the_quadrature(self, sigma):
        worst = 0.0
        for r in (-0.02, 0.0, 0.05, 0.1, 0.3):
            rn = RiskNeutralParams(sigma=sigma, c1=0.0, s0=100.0, r=r)
            for tau in (0.02, 0.25, 1.0, 5.0):
                for k in (0.0, 1.0, 50.0, 80.0, 100.0, 120.0, 200.0):
                    opt = OptionSpec(strike=k, maturity=tau, rate=r)
                    price = price_formula(rn, opt).price
                    assert price == price_bs(rn, opt).price
                    quadrature = _formula_quote(rn, opt, 1e-10, _CandidateMap(rn, opt)).price
                    worst = max(worst, abs(price - quadrature))
        assert worst <= 1e-12

    @pytest.mark.parametrize("rn", [
        replace(RN_GBM, sigma=30.0),
        replace(RN_GBM, sigma=38.0),
        replace(RN_GBM, sigma=1e3),
        replace(RN_GBM, r=800.0),
        RiskNeutralParams(sigma=10.0, c1=0.0, s0=1e-300, r=40.0),
        RiskNeutralParams(sigma=1e-300, c1=0.0, s0=1e-300, r=0.05),
        replace(RN_GBM, sigma=1e-300),
    ], ids=["sigma=30", "sigma=38", "sigma=1e3", "r=800", "s0=1e-300", "sigma=s0=1e-300",
            "sigma=1e-300"])
    def test_prices_where_black_scholes_prices(self, rn):
        # each of these the quadrature refused (an infinite integral, a domain cut below
        # the strike, exp(gamma t) or the map's denominator or inverse out of float range)
        for k in (0.0, 100.0):
            opt = replace(ATM, strike=k)
            assert price_formula(rn, opt).price == price_bs(rn, opt).price

    def test_sigma_zero_is_riskless_and_refused(self):
        # at c1 = 0, sigma = 0 is the riskless asset, refused before any pricer; as
        # sigma -> 0 the formula tends to the riskless call s0 - K e^{-r tau}
        with pytest.raises(DegenerateDiffusion):
            replace(RN_GBM, sigma=0.0)
        quote = price_formula(replace(RN_GBM, sigma=1e-12), ATM)
        assert quote.price == pytest.approx(100.0 - 100.0 * math.exp(-0.05), rel=1e-12)

    @pytest.mark.parametrize("rn, opt", [
        (replace(RN_GBM, sigma=1e200), ATM),
        (replace(RN_GBM, r=-1e3), ATM),
        (replace(RN_GBM, s0=1e-300), replace(ATM, strike=1e300)),
    ], ids=["sigma^2_overflow", "discount_overflow", "zero_moneyness"])
    def test_refuses_where_black_scholes_refuses(self, rn, opt):
        for pricer in (price_formula, price_bs):
            with pytest.raises(OutOfRange):
                pricer(rn, opt)

    @pytest.mark.parametrize("opt", [ATM, OptionSpec(strike=90.0, maturity=1.5, rate=0.05, t=0.5),
                                     replace(ATM, strike=0.0)], ids=["t=0", "t>0", "K=0"])
    def test_diagnostics_are_d_and_no_nodes(self, opt):
        quote = price_formula(RN_GBM, opt)
        d2 = price_bs(RN_GBM, opt).diagnostics["d2"]
        assert quote.method == "formula" and quote.error_estimate == 0.0
        assert quote.diagnostics == {"d": -d2, "nodes_or_paths": 0}
        if opt.t == 0 and opt.strike > 0:
            # at t = 0, d sqrt(tau) is the candidate map's f_T^{-1}(K), with f_t^{-1}(s0) = 0
            smap = _CandidateMap(RN_GBM, opt)
            w_k = smap.inverse(opt.strike)
            assert smap.w_t == 0.0
            assert quote.diagnostics["d"] * smap.sqrt_tau == pytest.approx(w_k, rel=1e-14)


def law_price(law, opt):
    """The node-sum call of ``law`` at the strike of ``opt``."""
    return law.price(opt.strike)[0]


class TestLawMap:
    def test_lognormal_law_at_c1_zero(self):
        # the law solve itself (price_formula uses the closed form at c1 = 0), on one
        # grid 2000 x 400 and its 2x coarser one, not on the default grids: this bounds
        # a single grid's price, which a Richardson pair refines (TestRichardsonTable)
        law = law_map(RN_GBM, 1.0, nodes_below=2000, steps=400)
        # P(X <= x_j) is the lognormal CDF at the top edge of node j's cell, the
        # midpoint in log price between node j and the node above it (in units of s0)
        edges = 0.5 * (law.log_x[:-1] + law.log_x[1:])
        log_mean = -0.5 * 0.2 ** 2
        inside = (law.x[:-1] > 0.2) & (law.x[:-1] < 5.0)
        for y, cdf in zip(edges[inside], law.cdf[:-1][inside]):
            assert abs(cdf - norm_cdf((y - log_mean) / 0.2)) < 1e-5
        coarse = law_map(RN_GBM, 1.0, nodes_below=1000, steps=200)
        for k in (0.0, 60.0, 100.0, 120.0, 160.0):
            opt = OptionSpec(strike=k, maturity=1.0, rate=0.05)
            price = law_price(law, opt)
            error = abs(price - price_bs(RN_GBM, opt).price)
            assert error < 1e-4
            # the coarse grid's change covers the true error
            if k > 0:
                assert error <= abs(price - law_price(coarse, opt))


class TestSolvedLaw:
    """The node sums of a law solve and the call read off them."""

    def test_node_sums_are_the_discrete_law(self):
        chain, p, _ = _solve_law(RN_VVE, 1.0, 250, 50)
        x = chain.x
        # rho = s0 = 1 reads a strike on the nodes themselves, in units of s0
        law = SolvedLaw(x, p, 50, 1.0, 1.0)
        assert law.mean == pytest.approx(float(np.dot(p, x)), rel=1e-14)
        for j in (0, 100, 250, 400, x.size - 2):
            exact = float(np.dot(p, np.maximum(x - x[j], 0.0)))
            assert law.calls[j] == pytest.approx(exact, rel=1e-12, abs=1e-12)
            # at a node the interpolation returns the node's call
            price, below, _ = law.price(float(x[j]))
            assert price == pytest.approx(max(law.calls[j], 0.0), rel=1e-12, abs=1e-12)
            assert below == law.cdf[j]
        assert law.price(0.0) == (law.mean, 0.0, 0)
        assert law.price(0.5 * float(x[0])) == (law.mean - 0.5 * float(x[0]), 0.0, 0)
        assert law.calls[-1] == 0.0
        for top in (float(x[-1]), 2.0 * float(x[-1])):
            assert law.price(top) == (0.0, 1.0, 0)
        # law_map's law reads a strike K at K / s0 / rho, rho the march's growth of the
        # mean, and prices in money; discounted by rho, the law keeps its mean at s0 (no
        # defect at c1 = 5e-4, tau = 1)
        grown = law_map(RN_VVE, 1.0, nodes_below=250, steps=50)
        price, below, nodes_read = law.price(1.0 / chain.rho)
        assert grown.price(100.0) == (100.0 * price, below, nodes_read)
        assert abs(grown.mean - 100.0) <= 1e-10

    def test_cached_law_is_read_only(self):
        law = law_map(RN_VVE, 1.0)
        assert law_map(RN_VVE, 1.0) is law
        # the cached march, too: every later sweep on its grid pairs with it
        chain, p, march = _solve_law(RN_VVE, 1.0, LAW_NODES_BELOW, LAW_STEPS)
        for values in (law.x, law.log_x, law.calls, law.cdf, p, march, chain.vega_up,
                       chain.vega_down):
            with pytest.raises(ValueError):
                values[0] = 0.0

    @pytest.mark.parametrize("rn, tau", [(RN_VVE, 1.0), (replace(RN_VVE, c1=2e-3), 0.25)],
                             ids=["c1=5e-4", "c1=2e-3,tau=0.25"])
    def test_matches_quadrature_on_the_law_map(self, rn, tau):
        # the paper's formula by quadrature on the spline law map of the same two
        # solves, Richardson-extrapolated as the node sums are
        solves = [_solve_law(rn, tau, LAW_NODES_BELOW // m, LAW_STEPS // m) for m in (1, 2)]
        maps = [LawMapReference(rn, tau, rn.s0 * chain.x, p) for chain, p, _ in solves]
        for k in (70.0, 100.0, 130.0):
            opt = OptionSpec(strike=k, maturity=tau, rate=0.05)
            quote = price_formula(rn, opt)
            reference = _richardson(*(_formula_quote(rn, opt, 1e-10, law).price
                                      for law in maps))
            assert abs(quote.price - reference) <= quote.diagnostics["law_error_estimate"]

    @pytest.mark.parametrize("tau", [1e-100, 1e-40, 1e-30, 1e-25])
    def test_tiny_maturity_quotes_or_refuses(self, tau):
        # the nodes beside the spot collide in floating point where their gap is below the
        # precision of log s0: the law refuses; short of that a quote is >= 0
        for k in (90.0, 100.0, 100.0 + 1e-13):
            try:
                quote = price_formula(RN_VVE, OptionSpec(strike=k, maturity=tau, rate=0.05))
            except OutOfRange:
                continue
            assert math.isfinite(quote.price) and quote.price >= 0.0


def sigma_zero_quote(c1, r, tau, strike, sigma=0.0):
    """``price_formula`` in the CVE model (sigma = 0, unless ``sigma`` is given)."""
    rn = RiskNeutralParams(sigma=sigma, c1=c1, s0=100.0, r=r)
    return price_formula(rn, OptionSpec(strike=strike, maturity=tau, rate=r))


#: the (c1, r, tau) sets of the inverse-Bessel oracle
BESSEL_SETS = [(5e-3, 0.05, 1.0), (1e-2, 0.0, 1.0), (2e-3, 0.05, 2.0)]
BESSEL_IDS = ["c1=5e-3", "c1=1e-2,r=0", "c1=2e-3,tau=2"]


class TestInverseBesselOracle:
    """``price_formula`` at sigma = 0, the CVE model, against the exact
    inverse-Bessel call price.

    The second case loses 31.7 % of the spot to the strict local martingale.
    The third has the heaviest upper tail: E[X; X > x] falls only like 1/x^2,
    so a grid top at s0 e^{2 depth} (~9.6e4) cut 5.6e-6 off every strike; the
    default top, ~1e30 x s0, leaves nothing measurable above it.
    """

    @pytest.mark.parametrize("c1, r, tau", BESSEL_SETS, ids=BESSEL_IDS)
    @pytest.mark.parametrize("strike", [0.0, 70.0, 100.0, 130.0])
    def test_law_price_within_1e6_of_exact(self, c1, r, tau, strike):
        exact = inverse_bessel_call(100.0, c1, r, tau, strike)
        assert abs(sigma_zero_quote(c1, r, tau, strike).price - exact) <= 1e-6

    def test_defect_of_the_second_case(self):
        assert inverse_bessel_call(100.0, 1e-2, 0.0, 1.0, 0.0) == pytest.approx(68.27, abs=5e-3)

    @pytest.mark.parametrize("c1, r, tau", BESSEL_SETS, ids=BESSEL_IDS)
    def test_estimate_covers_error(self, c1, r, tau):
        for strike in (0.0, 70.0, 100.0, 130.0):
            quote = sigma_zero_quote(c1, r, tau, strike)
            error = abs(quote.price - inverse_bessel_call(100.0, c1, r, tau, strike))
            assert quote.diagnostics["law_error_estimate"] >= error

    @pytest.mark.parametrize("c1, r, tau", BESSEL_SETS, ids=BESSEL_IDS)
    def test_swept_greeks_match_the_exact_price(self, c1, r, tau):
        # delta and gamma against central differences of the exact price at ds = 0.01; the
        # vega, a derivative at the edge sigma = 0, against the one-sided second-order
        # difference of price_formula itself at dsig = 1e-4
        rn = RiskNeutralParams(sigma=0.0, c1=c1, s0=100.0, r=r)
        ds, dsig = 1e-2, 1e-4
        for k in (90.0, 100.0, 110.0):
            greeks = greeks_bump(price_formula, rn, OptionSpec(strike=k, maturity=tau, rate=r))
            p0, p_up, p_dn = (inverse_bessel_call(100.0 + d, c1, r, tau, k) for d in (0.0, ds, -ds))
            assert abs(greeks["delta"] - (p_up - p_dn) / (2.0 * ds)) <= 1e-6
            assert abs(greeks["gamma"] - (p_up - 2.0 * p0 + p_dn) / ds ** 2) <= 1e-6
            v0, v1, v2 = (sigma_zero_quote(c1, r, tau, k, sigma=j * dsig).price for j in range(3))
            assert abs(greeks["vega"] - (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * dsig)) <= 1e-4


#: (c1, r, tau, bound) of the inverse-Bessel oracle where the drift leads: a negative
#: rate, and a drift of 5.7 deviations alpha at the spot, which the chain follows with a
#: segment at the spot's gap
BESSEL_DRIFT_SETS = [(5e-3, -0.3, 1.0, 1e-6), (5e-4, 0.2, 2.0, 2e-6)]


class TestInverseBesselDriftSets:
    """``price_formula`` in the CVE model against the exact price where the drift
    leads: the chain's drift rates are one-sided in the lower tail, and at
    r = 0.2, tau = 2 the law sits in a segment of the grid at the spot's gap.
    """

    @pytest.mark.parametrize("c1, r, tau, bound", BESSEL_DRIFT_SETS,
                             ids=["c1=5e-3,r=-0.3", "c1=5e-4,r=0.2,tau=2"])
    @pytest.mark.parametrize("strike", [0.0, 70.0, 100.0, 130.0, 150.0])
    def test_price_within_bound_and_covered(self, c1, r, tau, bound, strike):
        quote = sigma_zero_quote(c1, r, tau, strike)
        error = abs(quote.price - inverse_bessel_call(100.0, c1, r, tau, strike))
        assert error <= bound
        # errors up to 1e-9 are exempt, as in TestQnvOracle: the march's rounding (3.5e-12
        # on the zero-strike call at r = 0.2), which no coarser grid measures
        assert quote.diagnostics["law_error_estimate"] >= error or error <= 1e-9


#: (c1, tau) at sigma 0.2, s0 100, r 0: zero-strike defects of 0.0 %, 2.0 %, 10.9 % and 39.6 %
QNV_SETS = [(5e-4, 1.0), (2e-3, 2.0), (5e-3, 1.0), (1e-2, 1.0)]
#: the cells whose error a uniform grid with a top at s0 e^{2 depth} left uncovered: it cut
#: -1.9e-6 and -3.3e-7 to -3.7e-7 off every strike, against estimates down to 1.1e-9
QNV_TOP_CUT = [(1e-2, 0.05), (5e-3, 0.25)]


class TestQnvOracle:
    """``price_formula`` at r = 0 against the exact quadratic-normal-volatility call price.

    At r = 0 the discounted price solves dX = X (sigma + c1 X) dB, whose call
    has a closed form in four normal CDFs (``tests/oracles.qnv_call``): an
    oracle at sigma > 0 that shares nothing with the law route, its grid top
    included.
    """

    @staticmethod
    def error_and_estimate(c1, tau, strike):
        rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.0)
        quote = price_formula(rn, OptionSpec(strike=strike, maturity=tau, rate=0.0))
        error = abs(quote.price - qnv_call(100.0, 0.2, c1, tau, strike))
        return error, quote.diagnostics["law_error_estimate"]

    @pytest.mark.parametrize("c1, tau", QNV_SETS + QNV_TOP_CUT, ids=lambda v: f"{v:g}")
    @pytest.mark.parametrize("strike", [0.0, 70.0, 100.0, 130.0])
    def test_price_within_1e6_of_exact(self, c1, tau, strike):
        error, estimate = self.error_and_estimate(c1, tau, strike)
        assert error <= 1e-6
        # errors up to 1e-9 are exempt: there the march's rounding (~1e-11 on the
        # zero-strike call), which no coarser grid measures, is no longer negligible
        assert estimate >= error or error <= 1e-9

    @pytest.mark.parametrize("c1, tau", QNV_TOP_CUT, ids=lambda v: f"{v:g}")
    def test_estimate_covers_the_top_cut_cells(self, c1, tau):
        for strike in (0.0, 70.0, 100.0, 130.0):
            error, estimate = self.error_and_estimate(c1, tau, strike)
            assert estimate >= error

    @pytest.mark.parametrize("c1, tau", QNV_SETS, ids=lambda v: f"{v:g}")
    def test_martingale_defect_is_the_exact_one(self, c1, tau):
        # s0 less the extrapolated discounted mean: the value the strict local martingale
        # loses, S0 - C(0), up to 39.6 % of the spot
        rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.0)
        quote = price_formula(rn, OptionSpec(strike=100.0, maturity=tau, rate=0.0))
        exact = 100.0 - qnv_call(100.0, 0.2, c1, tau, 0.0)
        assert abs(quote.diagnostics["martingale_defect"] - exact) <= 1e-6

    def test_defect_above_ten_percent(self):
        assert qnv_call(100.0, 0.2, 5e-3, 1.0, 0.0) == pytest.approx(89.0933, abs=5e-5)
        assert qnv_call(100.0, 0.2, 5e-3, 2.0, 0.0) == pytest.approx(72.4499, abs=5e-5)

    @pytest.mark.parametrize("c1, tau", QNV_SETS[:3] + QNV_TOP_CUT[:1], ids=lambda v: f"{v:g}")
    def test_swept_greeks_match_the_closed_form(self, c1, tau):
        # central differences of the closed form, whose truncation and rounding errors at
        # ds = 0.01 and dsig = 1e-4 are far below these bounds
        rn = RiskNeutralParams(sigma=0.2, c1=c1, s0=100.0, r=0.0)
        ds, dsig = 1e-2, 1e-4
        for k in (90.0, 100.0, 110.0):
            greeks = _law_greeks(rn, OptionSpec(strike=k, maturity=tau, rate=0.0))[1]
            p0, p_up, p_dn = (qnv_call(100.0 + d, 0.2, c1, tau, k) for d in (0.0, ds, -ds))
            v_up, v_dn = (qnv_call(100.0, 0.2 + d, c1, tau, k) for d in (dsig, -dsig))
            assert abs(greeks["delta"] - (p_up - p_dn) / (2.0 * ds)) <= 1e-6
            assert abs(greeks["gamma"] - (p_up - 2.0 * p0 + p_dn) / ds ** 2) <= 1e-6
            assert abs(greeks["vega"] - (v_up - v_dn) / (2.0 * dsig)) <= 1e-5


REF_CASES = {
    "c1>0": (RN_VVE, 1.0),
    "r=0": (RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.0), 0.5),
    # the top, ~1e30 x s0, at the largest jump rates of the three
    "top_capped": (RiskNeutralParams(sigma=0.2, c1=0.01, s0=1000.0, r=0.05), 1.0),
    # the CVE model with the drift dominant (|r| tau = 5.7 alpha): a segment at the spot's
    # gap above the spot, or below it, and one-sided drift rates in the lower tail
    "drift_up": (RiskNeutralParams(sigma=0.0, c1=5e-4, s0=100.0, r=0.2), 2.0),
    "drift_down": (RiskNeutralParams(sigma=0.0, c1=5e-4, s0=100.0, r=-0.2), 2.0),
}


def next_top(rn, tau, x_top):
    """The node one step of the grid 4x coarser than the default above ``x_top``, both
    in units of s0."""
    alpha = (rn.sigma + rn.c1 * rn.s0) * math.sqrt(tau)
    xi_b = math.asinh((_LAW_DEPTH_SD * alpha + 0.5 * alpha ** 2) / alpha)
    xi = math.asinh(math.log(x_top) / alpha) + xi_b / (LAW_NODES_BELOW // 4)
    return math.exp(alpha * math.sinh(xi))


class TestLawSolve:
    @pytest.mark.parametrize("case", REF_CASES)
    @pytest.mark.parametrize("grid", [(LAW_NODES_BELOW, LAW_STEPS),
                                      (LAW_NODES_BELOW // 2, LAW_STEPS // 2)],
                             ids=["fine", "coarse"])
    def test_matches_reference_bit_for_bit(self, case, grid):
        rn, tau = REF_CASES[case]
        chain, p, march = _solve_law(rn, tau, *grid)
        x_ref, p_ref, h_ref = solve_law_reference(rn, tau, *grid)
        x = chain.x
        assert chain.h == h_ref
        assert x.tobytes() == x_ref.tobytes()
        assert p.tobytes() == p_ref.tobytes()
        # row n of the march is y_n on an implicit-Euler step and 2 y_n on a
        # Crank-Nicolson one, so the rows alone replay p: p <- row or row - p
        assert march.shape == (len(chain.steps), x.size)
        replay = np.zeros(x.size)
        replay[chain.spot] = 1.0
        for theta, row in zip(chain.steps, march):
            replay = row.copy() if theta == 1.0 else row - replay
        assert replay.tobytes() == p.tobytes()
        # the top is the last node at or below s0 e^{_LAW_TOP_LOG} of the grid 4x
        # coarser than the default, whose nodes every grid of the family shares (the
        # nodes are in units of s0 over the chain's growth rho)
        top = x[-1] * chain.rho
        assert top <= math.exp(_LAW_TOP_LOG) * (1 + 1e-15) < next_top(rn, tau, top)

    def test_overflow_raises_as_reference(self):
        # with the top moved out to ~1e299 x s0 the top node's diffusion rate, (c1 x)^2
        # over its gaps, overflows: the one system is not finite
        import vve.law

        rn = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vve.law, "_LAW_TOP_LOG", 690.0)
            grid = (LAW_NODES_BELOW // 4, LAW_STEPS // 4)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OutOfRange, match="overflowed: the grid top .* inf"):
                    _solve_law(rn, 1.0, *grid)
            with np.errstate(all="ignore"), pytest.raises(OutOfRange, match="overflowed"):
                solve_law_reference(rn, 1.0, *grid)

    def test_drift_past_the_grid_raises_as_reference(self):
        # r tau - alpha = 599.7 against a reach of 3.65 (the grid's depth)
        rn = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=600.0)
        for solve in (_solve_law, solve_law_reference):
            with pytest.raises(OutOfRange, match="cannot follow the drift"):
                solve(rn, 1.0, 50, 7)

    def test_rate_times_half_step_raises_as_reference(self):
        # on 2 steps of a 1-year law a = 1/4: the chain needs |r| a < 1, here r < 4; the
        # drift (r tau - alpha = 2.8) is inside the grid's reach (15.1)
        rn = RiskNeutralParams(sigma=0.2, c1=1e-2, s0=100.0, r=4.0)
        for solve in (_solve_law, solve_law_reference):
            with pytest.raises(OutOfRange, match="dt/2 < 1"):
                solve(rn, 1.0, 50, 2)
        rn = replace(rn, r=3.9)
        chain, p, _ = _solve_law(rn, 1.0, 50, 2)
        x_ref, p_ref, _ = solve_law_reference(rn, 1.0, 50, 2)
        assert chain.x.tobytes() == x_ref.tobytes()
        assert p.tobytes() == p_ref.tobytes()

    def test_two_solves_at_once_match_reference(self):
        # two threads solving at once must not share any state
        cases = [REF_CASES["c1>0"], REF_CASES["r=0"]]
        start, results = threading.Barrier(len(cases)), {}

        def solve(i):
            start.wait(timeout=60)
            results[i] = _solve_law(*cases[i], LAW_NODES_BELOW, LAW_STEPS)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for i, (rn, tau) in enumerate(cases):
            x_ref, p_ref, _ = solve_law_reference(rn, tau, LAW_NODES_BELOW, LAW_STEPS)
            assert results[i][0].x.tobytes() == x_ref.tobytes()
            assert results[i][1].tobytes() == p_ref.tobytes()


#: the sweep's sets: REF_CASES, a deep in-the-money short one, one at r < 0 and one at
#: sigma = 0, each with its strikes
SWEEP_CASES = {
    **{case: (rn, tau, [f * rn.s0 for f in (0.9, 1.0, 1.1)])
       for case, (rn, tau) in REF_CASES.items()},
    "itm_tau0.25": (replace(RN_VVE, r=0.0), 0.25, [60.0]),
    "r<0": (RiskNeutralParams(sigma=0.2, c1=2e-3, s0=100.0, r=-0.02), 1.0, [95.0, 140.0]),
    # the CVE model: the vega divides by vol = c1 e^{rt} x alone
    "sigma=0": (RiskNeutralParams(sigma=0.0, c1=5e-3, s0=100.0, r=0.05), 1.0,
                [90.0, 100.0, 110.0]),
}


class TestLawSweep:
    @pytest.mark.parametrize("case", SWEEP_CASES)
    @pytest.mark.parametrize("grid", [(LAW_NODES_BELOW, LAW_STEPS),
                                      (LAW_NODES_BELOW // 2, LAW_STEPS // 2)],
                             ids=["fine", "coarse"])
    def test_matches_reference(self, case, grid):
        # price, delta, gamma and s0 h bit for bit; the vega is the sweep paired with
        # the forward march here and a tangent carried through the sweep there
        rn, tau, strikes = SWEEP_CASES[case]
        for strike in strikes:
            swept = _sweep_law(rn, tau, strike, *grid)
            ref = sweep_law_reference(rn, tau, strike, *grid)
            assert [swept[i] for i in (0, 1, 2, 4)] == [ref[i] for i in (0, 1, 2, 4)]
            assert abs(swept[3] - ref[3]) <= 1e-10


class TestPriceMc:
    def test_near_riskless_limit_is_the_euler_forward(self):
        # sigma = c1 = 0 is refused; as sigma -> 0 every Euler path tends to the riskless
        # one, s0 (1 + r dt)^steps, with no spread
        rn = RiskNeutralParams(sigma=1e-12, c1=0.0, s0=100.0, r=0.05)
        quote = price_mc(rn, OptionSpec(strike=90.0, maturity=1.0, rate=0.05), 10, 10, 0)
        expected = math.exp(-0.05) * (100.0 * (1.0 + 0.05 / 10) ** 10 - 90.0)
        assert quote.price == pytest.approx(expected, rel=1e-9)
        assert quote.error_estimate < 1e-8
        assert quote.diagnostics["exploded_fraction"] == 0.0

    def test_bump_onto_riskless_refused(self):
        # at sigma = dsig and c1 = 0 the down bump is the riskless asset
        rn = replace(RN_GBM, sigma=1e-4)
        with pytest.raises(DegenerateDiffusion):
            greeks_bump(price_mc, rn, ATM, n_paths=10, steps=10, seed=0)

    def test_huge_spots_price_as_1e153(self):
        # the cached terminal values are in units of a power of two near s0, so the
        # payoffs' squares stay in float range where the spot's square does not
        def quote(s0):
            rn = RiskNeutralParams(sigma=0.2, c1=0.05 / s0, s0=s0, r=0.05)
            mc = price_mc(rn, OptionSpec(strike=0.9 * s0, maturity=1.0, rate=0.05), 2048, 64, 11)
            return np.array([mc.price, mc.error_estimate]) / s0

        base = quote(1e153)
        for s0 in (1e154, 1e200, 1e300):
            assert np.all(np.abs(quote(s0) / base - 1.0) <= 1e-12), s0

    def test_single_path_rejected(self):
        """One payoff has no standard error; the quote would carry NaN."""
        for n_paths in (1, 0):
            with pytest.raises(InvalidGrid):
                price_mc(RN_VVE, ATM, n_paths, 10, 0)

    def test_non_integer_counts_refused(self):
        # a float count reached numpy as a shape or a slice bound: a bare TypeError.
        # The path-set cache's key takes 100.0 == 100, so each is refused warm too
        cases = [((100.0, 10, 0), "n_paths must be an integer, got 100.0"),
                 ((100, 10.0, 0), "steps must be an integer, got 10.0"),
                 ((100, 10.5, 0), "steps must be an integer, got 10.5"),
                 ((100, 10, 0.0), r"seed must be an integer in \[0, 2\^63\), got 0.0")]
        _terminal_values.cache_clear()
        for args, match in cases:
            with pytest.raises(InvalidGrid, match=match):
                price_mc(RN_VVE, ATM, *args)
        price_mc(RN_VVE, ATM, 100, 10, 0)
        for args, match in cases:
            with pytest.raises(InvalidGrid, match=match):
                price_mc(RN_VVE, ATM, *args)

    def test_intrinsic_at_expiry(self):
        quote = price_mc(RN_VVE, OptionSpec(strike=80.0, maturity=1.0, rate=0.05, t=1.0),
                         10, 10, 0)
        assert quote.price == 20.0

    def test_zero_strike_martingale_identity(self):
        quote = price_mc(RN_GBM, OptionSpec(strike=0.0, maturity=1.0, rate=0.05),
                         100_000, 100, 5)
        assert abs(quote.price - 100.0) < 3 * quote.error_estimate

    def test_gbm_matches_black_scholes(self):
        quote = price_mc(RN_GBM, ATM, 100_000, 250, 3)
        bs = price_bs(RN_GBM, ATM).price
        assert abs(quote.price - bs) < 3 * quote.error_estimate

    def test_discounted_martingale_small_c1_short_t(self):
        rn = RiskNeutralParams(sigma=0.2, c1=1e-5, s0=100.0, r=0.05)
        quote = price_mc(rn, OptionSpec(strike=0.0, maturity=0.5, rate=0.05),
                         100_000, 125, 9)
        assert abs(quote.price - 100.0) < 4 * quote.error_estimate

    def test_determinism(self):
        a = price_mc(RN_VVE, ATM, 5000, 50, 42)
        b = price_mc(RN_VVE, ATM, 5000, 50, 42)
        assert a.price == b.price and a.error_estimate == b.error_estimate


class TestPriceMcCache:
    STRIP = [OptionSpec(strike=k, maturity=1.0, rate=0.05) for k in (90.0, 100.0, 110.0)]
    BASE = {"sigma": 0.2, "c1": 5e-4, "s0": 100.0, "r": 0.05, "maturity": 1.0,
            "steps": 50, "n_paths": 2000, "seed": 42}

    @staticmethod
    def count_simulations(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return euler_terminal(*args)

        _terminal_values.cache_clear()
        monkeypatch.setattr("vve.pricing.euler_terminal", counted)
        return calls

    @staticmethod
    def quote(a):
        rn = RiskNeutralParams(sigma=a["sigma"], c1=a["c1"], s0=a["s0"], r=a["r"])
        return price_mc(rn, OptionSpec(strike=100.0, maturity=a["maturity"], rate=a["r"]),
                        a["n_paths"], a["steps"], a["seed"])

    def test_strip_matches_cold_calls(self):
        _terminal_values.cache_clear()
        strip = [price_mc(RN_VVE, opt, 5000, 50, 42) for opt in self.STRIP]
        for opt, quote in zip(self.STRIP, strip):
            _terminal_values.cache_clear()
            assert price_mc(RN_VVE, opt, 5000, 50, 42).to_dict() == quote.to_dict()

    def test_repeated_key_simulates_once(self, monkeypatch):
        calls = self.count_simulations(monkeypatch)
        for opt in self.STRIP:
            price_mc(RN_VVE, opt, 2000, 50, 42)
        assert len(calls) == 1

    @pytest.mark.parametrize("change", [
        {"sigma": 0.25}, {"c1": 1e-4}, {"s0": 101.0}, {"r": 0.04}, {"maturity": 0.5},
        {"steps": 40}, {"n_paths": 1999}, {"seed": 43}], ids=lambda change: [*change][0])
    def test_any_changed_argument_misses(self, monkeypatch, change):
        calls = self.count_simulations(monkeypatch)
        self.quote(self.BASE)
        self.quote({**self.BASE, **change})
        assert len(calls) == 2

    def test_cached_terminal_values_read_only(self):
        params = ModelParams(mu=0.05, sigma=0.2, c1=5e-4, s0=100.0)
        terminal = _terminal_values(params, 1.0, 50, 2000, 42)[0]
        assert not terminal.flags.writeable
        with pytest.raises(ValueError):
            terminal[0] = 0.0


class TestPriceBs:
    def test_zero_strike(self):
        assert price_bs(RN_GBM, OptionSpec(strike=0.0, maturity=1.0, rate=0.05)).price == 100.0

    def test_deep_otm(self):
        assert price_bs(RN_GBM, OptionSpec(strike=1e9, maturity=1.0, rate=0.05)).price < 1e-8

    def test_atm_against_high_precision_oracle(self):
        oracle = bs_call_mp(100, 100, 1, 0.05, 0.2)
        assert price_bs(RN_GBM, ATM).price == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(10.4506, abs=5e-5)

    def test_bounds(self):
        for k in (50.0, 100.0, 150.0):
            p = price_bs(RN_GBM, OptionSpec(strike=k, maturity=1.0, rate=0.05)).price
            assert max(100.0 - k * math.exp(-0.05), 0.0) <= p <= 100.0

    def test_validation(self):
        with pytest.raises(NonPositiveSpot):
            price_bs(replace(RN_GBM, s0=0.0), ATM)
        assert price_bs(RN_GBM, OptionSpec(strike=100.0, maturity=0.0, rate=0.05)) == \
            OptionQuote(price=0.0, method="black_scholes", error_estimate=0.0,
                        diagnostics={"intrinsic": True})
        with pytest.raises(NegativeCoefficient):
            price_bs(replace(RN_VVE, sigma=0.0), ATM)
        with pytest.raises(NegativeCoefficient):
            price_bs(replace(RN_GBM, r=math.nan), ATM)
        with pytest.raises(NegativeCoefficient, match="strike must be >= 0"):
            price_bs(RN_GBM, OptionSpec(strike=-1.0, maturity=1.0, rate=0.05))

    def test_reads_neither_c1_nor_rate(self):
        quote = price_bs(RN_GBM, ATM)
        assert price_bs(RN_VVE, replace(ATM, rate=0.5)) == quote


class TestAtExpiry:
    """At t = maturity every pricer returns the intrinsic value."""

    @pytest.mark.parametrize("strike", [0.0, 90.0, 100.0, 110.0])
    def test_three_pricers_agree(self, strike):
        opt = OptionSpec(strike=strike, maturity=1.0, rate=0.05, t=1.0)
        quotes = [price_formula(RN_VVE, opt), price_mc(RN_VVE, opt, 100, 10, 0),
                  price_bs(RN_VVE, opt)]
        assert [q.price for q in quotes] == [max(100.0 - strike, 0.0)] * 3
        assert [q.method for q in quotes] == ["formula", "monte_carlo", "black_scholes"]
        assert all(q.error_estimate == 0.0 and q.diagnostics == {"intrinsic": True}
                   for q in quotes)


def clear_law_caches():
    """Clear the law maps and the marches they and the Greek sweeps read."""
    law_map.cache_clear()
    _law_solves.cache_clear()


class TestGreeks:
    def test_delta_bounds_across_strikes(self):
        rn = RiskNeutralParams(sigma=0.2, c1=1e-4, s0=100.0, r=0.05)
        for k in (80.0, 100.0, 120.0):
            g = greeks_bump(price_formula, rn,
                            OptionSpec(strike=k, maturity=1.0, rate=0.05))
            assert 0.0 <= g["delta"] <= 1.0 + 1e-6
            assert g["gamma"] > 0.0

    def test_gbm_delta_matches_analytic(self):
        g = greeks_bump(price_formula, RN_GBM, ATM, ds=0.1)
        assert g["delta"] == pytest.approx(bs_delta_mp(100.0, 100.0, 1.0, 0.05, 0.2), abs=1e-4)

    def test_bs_greeks_match_closed_forms(self):
        # the default vega bump (2e-4) leaves an O(dsig^2) error of 1.2e-6; 1e-4 leaves 3e-7
        g = greeks_bump(price_bs, RN_GBM, ATM, dsig=1e-4)
        args = (100.0, 100.0, 1.0, 0.05, 0.2)
        assert g["delta"] == pytest.approx(bs_delta_mp(*args), abs=1e-6)
        assert g["gamma"] == pytest.approx(bs_gamma_mp(*args), abs=1e-6)
        assert g["vega"] == pytest.approx(bs_vega_mp(*args), abs=1e-6)

    def test_bump_halving_second_order(self):
        d_true = bs_delta_mp(100.0, 100.0, 1.0, 0.05, 0.2)
        e1 = abs(greeks_bump(price_formula, RN_GBM, ATM, ds=0.1)["delta"] - d_true)
        e2 = abs(greeks_bump(price_formula, RN_GBM, ATM, ds=0.05)["delta"] - d_true)
        assert 2.0 < e1 / e2 < 8.0  # ~4x shrink for a second-order scheme

    @pytest.mark.parametrize("rn, pricer", [(RN_GBM, price_formula), (RN_VVE, BUMPED_FORMULA)],
                             ids=["c1=0", "c1>0"])
    def test_formula_greeks_from_bumped_prices(self, rn, pricer):
        # the bumps reprice price_formula, to the same bits.  At c1 > 0
        # price_formula's set is swept: BUMPED_FORMULA is its bump oracle
        def price(**over):
            return price_formula(replace(rn, **over), ATM).price

        ds, dsig = 1e-3 * rn.s0, 1e-3 * max(rn.sigma, 0.1)
        p0, p_up, p_dn = price(), price(s0=rn.s0 + ds), price(s0=rn.s0 - ds)
        v_up, v_dn = price(sigma=rn.sigma + dsig), price(sigma=rn.sigma - dsig)
        assert greeks_bump(pricer, rn, ATM) == {
            "delta": (p_up - p_dn) / (2.0 * ds),
            "gamma": (p_up - 2.0 * p0 + p_dn) / ds / ds,
            "vega": (v_up - v_dn) / (2.0 * dsig),
            "ds": ds, "dsig": dsig}

    @pytest.mark.parametrize("sigma", [0.0, 5e-5])
    def test_bump_below_dsig_takes_a_forward_vega(self, sigma):
        # sigma - dsig < 0 has no price: the set prices the base and three bumps, three
        # law grids each (the estimate's among them), and its vega is one-sided, as the
        # swept vega is at sigma = 0
        rn = RiskNeutralParams(sigma=sigma, c1=1e-3, s0=100.0, r=0.05)
        law_map.cache_clear()
        bumped = greeks_bump(BUMPED_FORMULA, rn, ATM)
        assert law_map.cache_info().misses == 12
        mc = greeks_bump(price_mc, rn, ATM, n_paths=2048, steps=64, seed=11)
        for greeks in (bumped, mc):
            assert greeks["dsig"] == 1e-4 and all(map(math.isfinite, greeks.values()))
        up, base = (BUMPED_FORMULA(replace(rn, sigma=v), ATM).price for v in (sigma + 1e-4, sigma))
        assert bumped["vega"] == (up - base) / 1e-4
        if sigma == 0.0:  # 34.34245 bumped against 34.33818 swept
            swept = greeks_bump(price_formula, rn, ATM)["vega"]
            assert bumped["vega"] == pytest.approx(swept, rel=1e-3)

    def test_cold_formula_set_runs_two_sweeps(self, monkeypatch):
        # a strip pays three law solves (the price's two grids and the estimate's);
        # after it, a set solves no law and sweeps each grid of the price once
        rn = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05)
        law_map.cache_clear()
        for k in (90.0, 100.0, 110.0):
            price_formula(rn, OptionSpec(strike=k, maturity=0.5, rate=0.05))
        misses = law_map.cache_info().misses
        assert misses == 3
        grids = []

        def sweep(rn, tau, strike, nodes_below, steps):
            grids.append((nodes_below, steps))
            return _sweep_law(rn, tau, strike, nodes_below, steps)

        monkeypatch.setattr("vve.pricing._sweep_law", sweep)
        greeks_bump(price_formula, rn, OptionSpec(strike=100.0, maturity=0.5, rate=0.05))
        assert law_map.cache_info().misses == misses
        assert grids == [(LAW_NODES_BELOW, LAW_STEPS), (LAW_NODES_BELOW // 2, LAW_STEPS // 2)]

    def test_set_after_a_strip_solves_once_per_sweep_step(self, monkeypatch):
        # the strip runs the marches of its three grids; the set after it pairs each
        # sweep with its grid's march: one transposed solve per step and no forward one
        rn, tau = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05), 0.5
        clear_law_caches()
        for k in (90.0, 100.0, 110.0):
            price_formula(rn, OptionSpec(strike=k, maturity=tau, rate=0.05))
        calls, solve = [], _LawChain.solve

        def counted(chain, b, transposed=False):
            calls.append(transposed)
            solve(chain, b, transposed)

        monkeypatch.setattr(_LawChain, "solve", counted)
        greeks_bump(price_formula, rn, OptionSpec(strike=100.0, maturity=tau, rate=0.05))
        steps = sum(len(_LawChain(rn, tau, LAW_NODES_BELOW // m, LAW_STEPS // m).steps)
                    for m in (1, 2))
        assert calls == [True] * steps

    @staticmethod
    def count_lapack(monkeypatch):
        """Wrap LAPACK's dgttrf and dgttrs on the module vve.law reads, which chains
        built from now on call; returns the calls, ("dgttrf",) or ("dgttrs", trans), in
        order."""
        lapack = _lapack()
        calls, dgttrf, dgttrs = [], lapack.dgttrf, lapack.dgttrs

        def factor(*args, **kwargs):
            calls.append(("dgttrf",))
            return dgttrf(*args, **kwargs)

        def solve(*args, **kwargs):
            calls.append(("dgttrs", args[6]))
            return dgttrs(*args, **kwargs)

        monkeypatch.setattr(lapack, "dgttrf", factor)
        monkeypatch.setattr(lapack, "dgttrs", solve)
        return calls

    def test_cold_quote_factors_once_per_grid(self, monkeypatch):
        # the chain's generator does not depend on time: one factorization per grid, then
        # one forward solve on its factors per step
        rn, tau = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05), 0.5
        clear_law_caches()
        calls = self.count_lapack(monkeypatch)
        price_formula(rn, OptionSpec(strike=100.0, maturity=tau, rate=0.05))
        steps = [len(_solve_law(rn, tau, LAW_NODES_BELOW // m, LAW_STEPS // m)[0].steps)
                 for m in (1, 2, 4)]  # cached: no more factorizations
        assert calls.count(("dgttrf",)) == 3
        # each grid's 4 implicit-Euler half steps and LAW_STEPS // m - 2 Crank-Nicolson ones
        assert calls.count(("dgttrs", "N")) == sum(steps) == 242 + 122 + 62
        assert len(calls) == 3 + sum(steps)

    def test_set_after_a_strip_factors_nothing(self, monkeypatch):
        # the set sweeps on the factors its strip's chains hold: no factorization, one
        # transposed solve per sweep step
        rn, tau = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05), 0.5
        clear_law_caches()
        calls = self.count_lapack(monkeypatch)
        for k in (90.0, 100.0, 110.0):
            price_formula(rn, OptionSpec(strike=k, maturity=tau, rate=0.05))
        steps = [len(chain.steps) for chain, _, _ in (
            _solve_law(rn, tau, LAW_NODES_BELOW // m, LAW_STEPS // m) for m in (1, 2))]
        calls.clear()
        greeks_bump(price_formula, rn, OptionSpec(strike=100.0, maturity=tau, rate=0.05))
        assert calls == [("dgttrs", "T")] * sum(steps)

    def test_a_new_law_frees_the_last_marches(self):
        # the cache holds one (rn, tau)'s marches: the next law's quote frees them
        clear_law_caches()
        price_formula(RN_VVE, ATM)
        march = weakref.ref(_solve_law(RN_VVE, 1.0, LAW_NODES_BELOW, LAW_STEPS)[2])
        assert sorted(_law_solves(RN_VVE, 1.0)) == [
            (LAW_NODES_BELOW // m, LAW_STEPS // m) for m in (4, 2, 1)]
        price_formula(replace(RN_VVE, c1=1e-3), ATM)
        gc.collect()
        assert march() is None

    def test_cold_set_is_the_set_after_its_strip(self):
        # with no march cached the sweep runs its own: the same bits
        rn, opt = replace(RN_VVE, c1=2e-3), OptionSpec(strike=95.0, maturity=0.25, rate=0.05)
        clear_law_caches()
        cold = greeks_bump(price_formula, rn, opt)
        clear_law_caches()
        price_formula(rn, opt)
        after = greeks_bump(price_formula, rn, opt)
        assert {k: v.hex() for k, v in after.items()} == {k: v.hex() for k, v in cold.items()}

    def test_parallel_solves_keep_serial_bits(self):
        # four user threads: a bump set twice on one key of the law-map cache, a
        # swept set, and quotes on that key and another, against the same calls in
        # sequence
        rn_b = replace(RN_VVE, c1=1e-3)
        short = OptionSpec(strike=95.0, maturity=0.25, rate=0.05)
        calls = [lambda: greeks_bump(BUMPED_FORMULA, RN_VVE, short),
                 lambda: greeks_bump(BUMPED_FORMULA, RN_VVE, short),
                 lambda: greeks_bump(price_formula, rn_b, short),
                 lambda: (price_formula(RN_VVE, short).to_dict(),
                          price_formula(rn_b, short).to_dict())]
        law_map.cache_clear()
        expected = [call() for call in calls]
        law_map.cache_clear()
        results = {}

        def run(i):
            results[i] = calls[i]()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [results[i] for i in range(len(calls))] == expected

    def test_mc_common_random_numbers(self):
        g = greeks_bump(price_mc, RN_GBM, ATM, n_paths=50_000, steps=100, seed=7)
        assert g["delta"] == pytest.approx(bs_delta_mp(100.0, 100.0, 1.0, 0.05, 0.2), abs=0.02)


class TestLawSolveErrors:
    """Errors and warnings of formula quotes and Greek sets at c1 > 0.

    Where the drift would carry the law past the grid, |r| tau - alpha beyond
    the grid's depth below the spot (or beyond its top), the chain raises
    OutOfRange before its first step, so a quote or a Greek set stops with
    no numpy warning in any numpy error state.  At r = 600, tau = 1 the drift
    is ~2000 deviations alpha.  At c1 = 0.01, tau = 0.25 (alpha = 0.6, a
    depth of 7.38) the edge is at r = 31.92; at r = 1345 the drift is 336.
    """

    RN = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=600.0)
    OPT = OptionSpec(strike=100.0, maturity=1.0, rate=600.0)
    RN_DRIFT = RiskNeutralParams(sigma=0.2, c1=0.01, s0=100.0, r=1345.0)
    OPT_DRIFT = OptionSpec(strike=100.0, maturity=0.25, rate=1345.0)
    PAST = "cannot follow the drift: .* carries the law past the grid"

    @pytest.fixture(autouse=True)
    def cold(self):
        law_map.cache_clear()

    def test_drift_past_the_grid_raises_out_of_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (price_formula, functools.partial(greeks_bump, price_formula)):
                with pytest.raises(OutOfRange, match=self.PAST):
                    call(self.RN, self.OPT)

    def test_refusal_records_no_warning(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(OutOfRange, match=self.PAST):
                price_formula(self.RN_DRIFT, self.OPT_DRIFT)
        assert record == []

    def test_ignored_errors_stay_silent(self):
        with warnings.catch_warnings(record=True) as record, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(OutOfRange, match=self.PAST):
                greeks_bump(price_formula, self.RN_DRIFT, self.OPT_DRIFT)
        assert record == []

    def test_raise_mode_raises(self):
        with np.errstate(all="raise"), pytest.raises(OutOfRange, match=self.PAST):
            price_formula(self.RN_DRIFT, self.OPT_DRIFT)

    def test_rate_band_prices_or_refuses_silently(self):
        # r steps across the edge where the drift leaves the grid's reach (r = 31.92):
        # below it the law's segment at the spot's gap is at its longest
        outcomes = []
        for r in np.arange(29.5, 34.625, 0.125).tolist():
            rn, opt = replace(self.RN_DRIFT, r=r), replace(self.OPT_DRIFT, rate=r)
            for call in (price_formula, functools.partial(greeks_bump, price_formula)):
                clear_law_caches()
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    try:
                        call(rn, opt)
                        outcomes.append("priced")
                    except OutOfRange:
                        outcomes.append("refused")
                assert [w for w in record if w.category is RuntimeWarning] == [], (r, call)
        assert (outcomes.count("priced"), outcomes.count("refused")) == (40, 42)

    @pytest.mark.parametrize("rn, opt", [
        (RN, OPT),
        (replace(RN, r=300.0), OptionSpec(strike=100.0, maturity=2.0, rate=300.0)),
        (RN_DRIFT, OPT_DRIFT),
        (RN_VVE, OptionSpec(strike=100.0, maturity=1e-100, rate=0.05)),
        (replace(RN_VVE, sigma=1e-300, c1=1e-300), ATM),
    ], ids=["r600", "r300_tau2", "r1345", "tau1e-100", "sigma_c1_1e-300"])
    def test_refused_before_any_step(self, rn, opt, monkeypatch):
        # every step solves the step's system at least once
        calls, solve = [], _LawChain.solve

        def counted(chain, *args, **kwargs):
            calls.append(args)
            solve(chain, *args, **kwargs)

        monkeypatch.setattr(_LawChain, "solve", counted)
        for call in (price_formula, functools.partial(greeks_bump, price_formula)):
            with pytest.raises(OutOfRange):
                call(rn, opt)
        assert calls == []

    @pytest.mark.parametrize("rn", [RN_GBM, RN_VVE], ids=["c1=0", "c1>0"])
    def test_tol_keyword_is_refused_before_any_solve(self, rn, monkeypatch):
        # price_formula takes no keyword: a stale tol= is a TypeError on the
        # quote, the swept set (c1 > 0) and the bumped set (c1 = 0), before any law solve
        clear_law_caches()
        calls = []
        monkeypatch.setattr(_LawChain, "solve", lambda chain, *args, **kwargs: calls.append(args))
        for call in (price_formula, functools.partial(greeks_bump, price_formula)):
            with pytest.raises(TypeError, match="tol"):
                call(rn, ATM, tol=1e-10)
        assert calls == [] and law_map.cache_info().currsize == 0

    @pytest.mark.parametrize("rn, grid, error, match", [
        (RN_VVE, {"nodes_below": 1}, InvalidGrid, "at least 2 nodes below the spot and 2 steps"),
        (RN_VVE, {"steps": 1}, InvalidGrid, "at least 2 nodes below the spot and 2 steps"),
        # the CVE model at c1 s0 = 1e-308: top / alpha = 6.9e309 leaves the float range
        (RiskNeutralParams(sigma=0.0, c1=1e-310, s0=100.0, r=0.05), {}, OutOfRange,
         r"alpha in float range, got alpha = 1e-308 and top = 69"),
        # |r| dt/2 = 1 - 1.25e-9: the march's growth (1 + a r) / (1 - a r) per step
        # overflows over 38 Crank-Nicolson steps
        (RiskNeutralParams(sigma=0.2, c1=0.12, s0=100.0, r=79.9999999),
         {"nodes_below": 16, "steps": 40}, OutOfRange,
         "over the march's growth rho = inf leave the float range"),
    ], ids=["nodes_below_1", "steps_1", "alpha_tiny", "rho_overflow"])
    def test_chain_refused_before_any_step(self, rn, grid, error, match, monkeypatch):
        calls, solve = [], _LawChain.solve

        def counted(chain, *args, **kwargs):
            calls.append(args)
            solve(chain, *args, **kwargs)

        monkeypatch.setattr(_LawChain, "solve", counted)
        clear_law_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                law_map(rn, 1.0, **grid)
        assert calls == []


#: the c1 > 0 cells of the benchmark's formula surface (sigma 0.2, s0 100, r 0.05)
SURFACE = [(c1, tau) for c1 in (5e-4, 1e-3, 2e-3) for tau in (0.25, 0.5, 1.0, 2.0)]


@functools.cache
def swept(c1, tau, strike):
    rn = replace(RN_VVE, c1=c1)
    return _law_greeks(rn, OptionSpec(strike=strike, maturity=tau, rate=0.05))


class TestLawGreeks:
    """``price_formula``'s c1 > 0 Greeks from a backward sweep of the law solve's chain."""

    @pytest.mark.parametrize("c1, tau", SURFACE, ids=lambda v: f"{v:g}")
    def test_swept_price_is_the_formula_price(self, c1, tau):
        rn = replace(RN_VVE, c1=c1)
        for k in (90.0, 100.0, 110.0):
            price = price_formula(rn, OptionSpec(strike=k, maturity=tau, rate=0.05)).price
            assert abs(swept(c1, tau, k)[0] - price) <= 1e-12

    @pytest.mark.parametrize("c1, tau", SURFACE, ids=lambda v: f"{v:g}")
    def test_greeks_within_1e5_of_bumped(self, c1, tau):
        rn = replace(RN_VVE, c1=c1)
        for k in (90.0, 100.0, 110.0):
            opt = OptionSpec(strike=k, maturity=tau, rate=0.05)
            bumped = greeks_bump(BUMPED_FORMULA, rn, opt)
            greeks = swept(c1, tau, k)[1]
            for name in ("delta", "gamma", "vega"):
                assert abs(greeks[name] - bumped[name]) <= 1e-5, name

    @pytest.mark.parametrize("strike", [90.0, 100.0, 110.0])
    def test_c1_zero_matches_black_scholes(self, strike):
        greeks = _law_greeks(RN_GBM, replace(ATM, strike=strike))[1]
        args = (100.0, strike, 1.0, 0.05, 0.2)
        assert abs(greeks["delta"] - bs_delta_mp(*args)) <= 1e-6
        assert abs(greeks["gamma"] - bs_gamma_mp(*args)) <= 1e-6
        assert abs(greeks["vega"] - bs_vega_mp(*args)) <= 1e-6

    def test_default_grids_within_1e5_of_finer_pair(self):
        rn, tau, strike = replace(RN_VVE, c1=1e-3), 1.0, 100.0
        finer = [_sweep_law(rn, tau, strike, 2 * LAW_NODES_BELOW // m, 2 * LAW_STEPS // m)
                 for m in (1, 2)]
        greeks = swept(1e-3, tau, 100.0)[1]
        for i, name in enumerate(("delta", "gamma", "vega"), start=1):
            assert abs(greeks[name] - _richardson(finer[0][i], finer[1][i])) <= 1e-5, name

    def test_set_keys(self):
        greeks = greeks_bump(price_formula, replace(RN_VVE, c1=1e-3), ATM)
        assert greeks == swept(1e-3, 1.0, 100.0)[1]
        assert greeks["dsig"] == 0.0
        assert greeks["ds"] == _sweep_law(replace(RN_VVE, c1=1e-3), 1.0, 100.0, LAW_NODES_BELOW,
                                          LAW_STEPS)[4]

    def test_small_sigma_quotes(self):
        # the sweep has no sigma bump; the bump route takes a forward vega here
        # (TestGreeks)
        rn = RiskNeutralParams(sigma=5e-5, c1=1e-3, s0=100.0, r=0.05)
        greeks = greeks_bump(price_formula, rn, OptionSpec(strike=100.0, maturity=0.25, rate=0.05))
        assert all(math.isfinite(v) for v in greeks.values())
        assert 0.0 < greeks["delta"] < 1.0

    @pytest.mark.parametrize("tau", [1e-20, 1e-16, 1e-12, 1e-8, 1e-4])
    @pytest.mark.parametrize("strike", [90.0, 100.0, 110.0])
    def test_tiny_maturity_sound_or_out_of_range(self, strike, tau):
        # at a grid step s0 h tiny against the option's value, the gamma's second
        # difference rounds to noise (gamma -2.5e6 at K = 90, tau = 1e-20): the set raises
        try:
            greeks = greeks_bump(price_formula, RN_VVE, OptionSpec(strike, tau, 0.05))
        except OutOfRange as exc:
            assert "rounding" in str(exc)
            return
        assert 0.0 <= greeks["delta"] <= 1.0
        assert greeks["gamma"] >= -1e-6

    @pytest.mark.parametrize("bump", [{"ds": 0.1}, {"dsig": 1e-3}])
    def test_explicit_bump_rejected(self, bump):
        with pytest.raises(InvalidGrid, match="ds"):
            greeks_bump(price_formula, RN_VVE, ATM, **bump)


#: (sigma, c1, r, tau) at s0 = 100 of the symmetry checks, with their strikes and factors
SYMMETRY_SETS = [(0.2, 5e-4, 0.05, 1.0), (0.1, 2e-3, 0.0, 0.5), (0.0, 1e-3, 0.03, 2.0),
                 (0.3, 1e-4, -0.02, 4.0)]
SYMMETRY_STRIKES = (50.0, 90.0, 100.0, 130.0)
SYMMETRY_FACTORS = (0.37, 3.0, 1000.0)


def rescaled(sigma, c1, r, tau, lam, kind):
    """(rn, tau, strike factor, vega factor) of a set at s0 = 100 under a symmetry of
    the SDE: in space (lam s0, lam K, c1 / lam), where C scales by lam, or in time
    (tau / lam, sigma sqrt(lam), c1 sqrt(lam), r lam), where C keeps its value and
    the vega, a derivative in sigma sqrt(lam), scales by 1 / sqrt(lam)."""
    if kind == "space":
        return RiskNeutralParams(sigma=sigma, c1=c1 / lam, s0=100.0 * lam, r=r), tau, lam, 1.0
    root = math.sqrt(lam)
    return (RiskNeutralParams(sigma=sigma * root, c1=c1 * root, s0=100.0, r=r * lam),
            tau / lam, 1.0, root)


def scale_free_quote(rn, tau, strike, vega_factor):
    """A formula quote and its swept set in units of s0: price, error_estimate,
    martingale_defect, delta, gamma s0 and vega (times ``vega_factor``) over s0."""
    opt = OptionSpec(strike=strike, maturity=tau, rate=rn.r)
    quote, greeks = price_formula(rn, opt), greeks_bump(price_formula, rn, opt)
    return np.array([quote.price / rn.s0, quote.error_estimate / rn.s0,
                     quote.diagnostics["martingale_defect"] / rn.s0, greeks["delta"],
                     greeks["gamma"] * rn.s0, greeks["vega"] * vega_factor / rn.s0])


class TestScaleSymmetry:
    """The SDE's two exact symmetries, which the law route keeps to rounding.

    In space, if S solves it with (sigma, c1) then lam S solves it with
    (sigma, c1 / lam), so C(lam s0, lam K; sigma, c1 / lam) = lam C(s0, K;
    sigma, c1).  In time, rescaling the clock by lam gives C(tau / lam;
    sigma sqrt(lam), c1 sqrt(lam), r lam) = C(tau; sigma, c1, r).  The law
    chain depends only on sigma sqrt(tau), c1 s0 sqrt(tau) and r tau, so a
    quote and its swept set, in units of s0, agree to 1e-11 (1e-9 for gamma
    s0, a second difference over h^2).  The bounds are absolute: near-zero
    deep out-of-the-money gammas and estimates break relative ones.
    """

    #: bounds on price, error_estimate, martingale_defect, delta, gamma s0 and vega / s0
    BOUNDS = np.array([1e-11, 1e-11, 1e-11, 1e-11, 1e-9, 1e-11])

    @pytest.mark.parametrize("kind", ["space", "time"])
    @pytest.mark.parametrize("params", SYMMETRY_SETS, ids=lambda p: "-".join(map(str, p)))
    def test_law_route_keeps_the_symmetry(self, params, kind):
        sigma, c1, r, tau = params
        rn = RiskNeutralParams(sigma=sigma, c1=c1, s0=100.0, r=r)
        base = {k: scale_free_quote(rn, tau, k, 1.0) for k in SYMMETRY_STRIKES}
        for lam in SYMMETRY_FACTORS:
            rn_lam, tau_lam, strike_factor, vega_factor = rescaled(*params, lam, kind)
            for k in SYMMETRY_STRIKES:
                mapped = scale_free_quote(rn_lam, tau_lam, k * strike_factor, vega_factor)
                assert np.all(np.abs(mapped - base[k]) <= self.BOUNDS), (lam, k, mapped - base[k])

    @pytest.mark.parametrize("s0", [1e-300, 1e-200, 1e-158, 1e200, 1e300, 5e307])
    def test_any_spot_prices_as_s0_100(self, s0):
        # the law chain is solved in units of s0, so a spot anywhere in the float range
        # prices on the grid of s0 = 100, at sigma 0.2, c1 s0 0.01 (subnormal c1 at 5e307),
        # r 0.05, tau 1 and K = s0.  Each set is (delta, gamma s0, vega / s0): swept, to
        # 1e-11 relative, and bumped (a second difference of prices over (1e-3 s0)^2 for
        # the gamma), where s0 = 1e-158 once read the Black-Scholes gamma 1.2 % off on
        # subnormal squares.  Euler MC sets use one seed
        def priced(s0):
            rn = RiskNeutralParams(sigma=0.2, c1=0.01 / s0, s0=s0, r=0.05)
            opt = OptionSpec(strike=s0, maturity=1.0, rate=0.05)
            quote = price_formula(rn, opt)
            pricers = {"swept": price_formula, "formula": BUMPED_FORMULA, "bs": price_bs,
                       "mc": functools.partial(price_mc, n_paths=2048, steps=64, seed=11)}
            sets = {name: greeks_bump(pricer, rn, opt) for name, pricer in pricers.items()}
            return quote, {name: np.array([g["delta"], g["gamma"] * s0, g["vega"] / s0])
                           for name, g in sets.items()}

        (base, base_sets), (quote, sets) = priced(100.0), priced(s0)
        assert quote.diagnostics["law_nodes"] == base.diagnostics["law_nodes"] == 1129
        assert quote.price / s0 == pytest.approx(base.price / 100.0, rel=1e-11)
        assert np.all(np.abs(sets.pop("swept") / base_sets["swept"] - 1.0) <= 1e-11)
        for name, greeks in sets.items():
            assert np.all(np.abs(greeks - base_sets[name]) <= [1e-9, 1e-7, 1e-9]), name

    @pytest.mark.parametrize("params", SYMMETRY_SETS, ids=lambda p: "-".join(map(str, p)))
    def test_monte_carlo_keeps_the_space_symmetry(self, params):
        # the same seed draws the same increments: Euler's arithmetic rescales to rounding
        sigma, c1, r, tau = params

        def quote(rn, strike):
            mc = price_mc(rn, OptionSpec(strike=strike, maturity=tau, rate=r), 2048, 64, 11)
            return np.array([mc.price, mc.error_estimate]) / rn.s0

        rn = RiskNeutralParams(sigma=sigma, c1=c1, s0=100.0, r=r)
        base = {k: quote(rn, k) for k in SYMMETRY_STRIKES}
        for lam in SYMMETRY_FACTORS:
            rn_lam = rescaled(*params, lam, "space")[0]
            for k in SYMMETRY_STRIKES:
                assert np.all(np.abs(quote(rn_lam, lam * k) - base[k]) <= 1e-11), (lam, k)


class TestRichardsonTable:
    """The law-map price against the committed limits of ``tools/law_richardson_table.py``.

    The limit is the Richardson extrapolation from the graded grids
    1600 x 800 and 3200 x 1600, far finer than the default ones, with the
    default top; the table is read, not recomputed.
    """

    TABLE = json.loads((Path(__file__).parent / "data" / "law_richardson_limits.json").read_text())

    @pytest.mark.parametrize("case", TABLE["cases"],
                             ids=lambda c: f"c1={c['c1']:g}-tau={c['tau']:g}-K={c['strike']:g}")
    def test_price_within_1e6_of_limit_and_estimate_covers_error(self, case):
        t = self.TABLE
        rn = RiskNeutralParams(sigma=t["sigma"], c1=case["c1"], s0=t["s0"], r=t["r"])
        quote = price_formula(rn, OptionSpec(strike=case["strike"], maturity=case["tau"],
                                             rate=t["r"]))
        error = abs(quote.price - case["limit"])
        assert error <= 1e-6
        assert quote.diagnostics["law_error_estimate"] >= error

    @pytest.mark.parametrize("case", TABLE["black_scholes"], ids=lambda c: f"K={c['strike']:g}")
    def test_law_route_at_c1_zero_matches_black_scholes(self, case):
        t = self.TABLE
        rn = RiskNeutralParams(sigma=t["sigma"], c1=0.0, s0=t["s0"], r=t["r"])
        opt = OptionSpec(strike=case["strike"], maturity=case["tau"], rate=t["r"])
        assert abs(_law_quote(rn, opt).price - case["price"]) <= 1e-7
