"""Unit tests for vve.pricing: solution map, inverse, and the three pricers."""

import json
import math
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import bs_call_mp, bs_delta_mp, solve_law_reference
from vve.errors import (
    ExplosionRegion,
    InvalidGrid,
    NegativeCoefficient,
    NonPositiveSpot,
    OutOfRange,
    SigmaZeroUnsupported,
    SingularDelta,
)
from vve.model import ModelParams
from vve.pricing import (
    LAW_NODES_BELOW,
    LAW_STEPS,
    _LAW_TOP_LOG,
    OptionQuote,
    OptionSpec,
    RiskNeutralParams,
    _CandidateMap,
    _formula_quote,
    _law_quote,
    _map_coefficients,
    _solve_law,
    _terminal_values,
    forward_map,
    greeks_bump,
    inverse_map,
    law_map,
    norm_cdf,
    price_bs,
    price_formula,
    price_mc,
)
from vve.sde import euler_terminal

RN_GBM = RiskNeutralParams(sigma=0.2, c1=0.0, s0=100.0, r=0.05)
RN_VVE = RiskNeutralParams(sigma=0.2, c1=5e-4, s0=100.0, r=0.05)
ATM = OptionSpec(strike=100.0, maturity=1.0, rate=0.05)


class TestSpecsAndParams:
    def test_option_spec_validation(self):
        with pytest.raises(NegativeCoefficient):
            OptionSpec(strike=-1.0, maturity=1.0, rate=0.05)
        with pytest.raises(NegativeCoefficient):
            OptionSpec(strike=100.0, maturity=1.0, rate=0.05, t=1.5)
        for bad in ({"strike": math.nan}, {"maturity": math.inf}, {"rate": math.nan}):
            with pytest.raises(NegativeCoefficient):
                OptionSpec(**{"strike": 100.0, "maturity": 1.0, "rate": 0.05, **bad})

    def test_singular_delta_rejected(self):
        """Only the closed-form map divides by r - sigma^2/2."""
        gbm = RiskNeutralParams(sigma=0.2, c1=0.0, s0=100.0, r=0.02)  # r = sigma^2/2
        vve = RiskNeutralParams(sigma=0.2, c1=1e-4, s0=100.0, r=0.02)
        for rn in (gbm, vve):
            with pytest.raises(SingularDelta):
                _map_coefficients(rn, 1.0)
            assert price_mc(rn, ATM, 100, 10, 0).price > 0.0
        with pytest.raises(SingularDelta):
            price_formula(gbm, ATM)  # the closed form at c1 = 0
        assert price_formula(vve, ATM).price > 0.0  # the law map at c1 > 0

    def test_non_positive_spot(self):
        with pytest.raises(NonPositiveSpot):
            RiskNeutralParams(sigma=0.2, c1=0.0, s0=0.0, r=0.05)

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

    def test_norm_cdf(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(3.0) + norm_cdf(-3.0) == pytest.approx(1.0, abs=1e-15)


class TestForwardMap:
    def test_initial_condition(self):
        assert forward_map(RN_VVE, 0.0, 0.0) == pytest.approx(100.0, rel=1e-12)

    def test_gbm_collapse(self):
        w = np.linspace(-2, 2, 9)
        expected = 100.0 * np.exp(RN_GBM.gamma * 0.7 + RN_GBM.sigma * w)
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

    def test_sigma_zero_unsupported(self):
        rn = RiskNeutralParams(sigma=0.0, c1=0.001, s0=100.0, r=0.05)
        with pytest.raises(SigmaZeroUnsupported):
            forward_map(rn, 0.5, 0.0)


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
        for t, x in ((0.0, 80.0), (0.5, 100.0), (1.0, 125.0), (2.0, 40.0)):
            w = (math.log(x / RN_GBM.s0) - RN_GBM.gamma * t) / RN_GBM.sigma
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


class TestPriceFormula:
    def test_intrinsic_at_expiry(self):
        itm = price_formula(RN_VVE, OptionSpec(strike=80.0, maturity=1.0, rate=0.05, t=1.0))
        otm = price_formula(RN_VVE, OptionSpec(strike=120.0, maturity=1.0, rate=0.05, t=1.0))
        assert itm.price == 20.0 and otm.price == 0.0

    def test_tolerance_refinement(self):
        p1 = price_formula(RN_VVE, ATM, tol=1e-10).price
        p2 = price_formula(RN_VVE, ATM, tol=5e-11).price
        assert abs(p1 - p2) < 1e-8

    def test_gbm_matches_black_scholes(self):
        formula = price_formula(RN_GBM, ATM).price
        bs = price_bs(100.0, 100.0, 1.0, 0.05, 0.2).price
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

    def test_diagnostics_contract(self):
        quote = price_formula(RN_VVE, ATM)
        for key in ("d", "fT_inv_K", "ft_inv_x", "nodes_or_paths",
                    "z_cut", "truncation_bound", "exploded_fraction"):
            assert key in quote.diagnostics
        assert quote.method == "formula"
        assert quote.error_estimate == 1e-10
        # the divergent-tail cut is beyond d and its bounded mass is tiny
        assert quote.diagnostics["z_cut"] > quote.diagnostics["d"]
        assert quote.diagnostics["truncation_bound"] < 1e-9
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

        assert candidate(RN_GBM, ATM) == price_formula(RN_GBM, ATM)
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
                # the grid top is capped near 1e30 x s0 (one node may overshoot)
                assert quote.diagnostics["law_s_max"] <= 1000.0 * 2e30


class TestLawMap:
    def test_lognormal_law_at_c1_zero(self):
        # the law solve itself (price_formula uses the closed form at c1 = 0), on one
        # grid 2000 x 400 and its 2x coarser one, not on the default grids: this bounds
        # a single grid's price, which a Richardson pair refines (TestRichardsonTable)
        law = law_map(RN_GBM, 1.0, nodes_below=2000, steps=400)
        log_mean = math.log(100.0) + RN_GBM.gamma
        for x in np.geomspace(20.0, 500.0, 50):
            cdf = norm_cdf(law.inverse(x))  # w = z at tau = 1
            assert abs(cdf - norm_cdf((math.log(x) - log_mean) / 0.2)) < 1e-5
        coarse = law_map(RN_GBM, 1.0, nodes_below=1000, steps=200)
        for k in (0.0, 60.0, 100.0, 120.0, 160.0):
            opt = OptionSpec(strike=k, maturity=1.0, rate=0.05)
            price = _formula_quote(RN_GBM, opt, 1e-10, law).price
            error = abs(price - price_bs(100.0, k, 1.0, 0.05, 0.2).price)
            assert error < 1e-4
            # the coarse grid's change covers the true error
            if k > 0:
                assert error <= abs(price - _formula_quote(RN_GBM, opt, 1e-10, coarse).price)

    def test_grid_top_insensitive(self):
        prices = [_formula_quote(RN_VVE, ATM, 1e-10, law_map(RN_VVE, 1.0, s_max)).price
                  for s_max in (3000.0, 10000.0)]
        assert abs(prices[1] - prices[0]) < 1e-4


REF_CASES = {
    "c1>0": (RN_VVE, 1.0, None),
    "r=0": (RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.0), 0.5, None),
    "s_max": (RN_VVE, 1.0, 3000.0),
    # 2 x depth is beyond _LAW_TOP_LOG, so the top is capped near 1e30 x s0
    "top_capped": (RiskNeutralParams(sigma=0.2, c1=0.01, s0=1000.0, r=0.05), 1.0, None),
}


class TestLawSolve:
    @pytest.mark.parametrize("case", REF_CASES)
    @pytest.mark.parametrize("grid", [(LAW_NODES_BELOW, LAW_STEPS),
                                      (LAW_NODES_BELOW // 2, LAW_STEPS // 2)],
                             ids=["fine", "coarse"])
    def test_matches_reference_bit_for_bit(self, case, grid):
        rn, tau, s_max = REF_CASES[case]
        x, p, h = _solve_law(rn, tau, s_max, *grid)
        x_ref, p_ref, h_ref = solve_law_reference(rn, tau, s_max, *grid)
        assert h == h_ref
        assert x.tobytes() == x_ref.tobytes()
        assert p.tobytes() == p_ref.tobytes()
        if s_max is not None:
            assert x[-2] < s_max <= x[-1]
        if case == "top_capped":
            assert x[-1] / rn.s0 < math.exp(_LAW_TOP_LOG + h)

    def test_overflow_raises_as_reference(self):
        rn = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05)
        for solve in (_solve_law, solve_law_reference):
            with np.errstate(all="ignore"), pytest.raises(OutOfRange, match="overflowed"):
                solve(rn, 1.0, 1e160, 50, 7)  # the variance at the top node overflows

    def test_rate_beyond_float_range_raises(self):
        # exp(r t) overflows near t = tau; the reference dies with an OverflowError
        rn = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=800.0)
        with pytest.raises(OutOfRange, match="exp"):
            _solve_law(rn, 1.0, None, 50, 7)
        with np.errstate(all="ignore"), pytest.raises(OverflowError):
            solve_law_reference(rn, 1.0, None, 50, 7)

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
        for i, (rn, tau, s_max) in enumerate(cases):
            x_ref, p_ref, _ = solve_law_reference(rn, tau, s_max, LAW_NODES_BELOW, LAW_STEPS)
            assert results[i][0].tobytes() == x_ref.tobytes()
            assert results[i][1].tobytes() == p_ref.tobytes()


class TestPriceMc:
    def test_deterministic_degenerate_case(self):
        rn = RiskNeutralParams(sigma=0.0, c1=0.0, s0=100.0, r=0.05)
        quote = price_mc(rn, OptionSpec(strike=90.0, maturity=1.0, rate=0.05), 10, 10, 0)
        expected = math.exp(-0.05) * (100.0 * math.exp(0.05) - 90.0)
        assert quote.price == pytest.approx(expected, rel=1e-15)
        assert quote.error_estimate == 0.0

    def test_single_path_rejected(self):
        """One payoff has no standard error; the quote would carry NaN."""
        for n_paths in (1, 0):
            with pytest.raises(InvalidGrid):
                price_mc(RN_VVE, ATM, n_paths, 10, 0)

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
        bs = price_bs(100.0, 100.0, 1.0, 0.05, 0.2).price
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
        terminal, _ = _terminal_values(params, 1.0, 50, 2000, 42)
        assert not terminal.flags.writeable
        with pytest.raises(ValueError):
            terminal[0] = 0.0


class TestPriceBs:
    def test_zero_strike(self):
        assert price_bs(100.0, 0.0, 1.0, 0.05, 0.2).price == 100.0

    def test_deep_otm(self):
        assert price_bs(100.0, 1e9, 1.0, 0.05, 0.2).price < 1e-8

    def test_atm_against_high_precision_oracle(self):
        oracle = bs_call_mp(100, 100, 1, 0.05, 0.2)
        assert price_bs(100.0, 100.0, 1.0, 0.05, 0.2).price == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(10.4506, abs=5e-5)

    def test_bounds(self):
        for k in (50.0, 100.0, 150.0):
            p = price_bs(100.0, k, 1.0, 0.05, 0.2).price
            assert max(100.0 - k * math.exp(-0.05), 0.0) <= p <= 100.0

    def test_validation(self):
        with pytest.raises(NonPositiveSpot):
            price_bs(0.0, 100.0, 1.0, 0.05, 0.2)
        with pytest.raises(NegativeCoefficient):
            price_bs(100.0, 100.0, 0.0, 0.05, 0.2)
        with pytest.raises(NegativeCoefficient):
            price_bs(100.0, 100.0, 1.0, 0.05, 0.0)
        with pytest.raises(NegativeCoefficient):
            price_bs(100.0, 100.0, 1.0, math.nan, 0.2)


class TestGreeks:
    def test_delta_bounds_across_strikes(self):
        rn = RiskNeutralParams(sigma=0.2, c1=1e-4, s0=100.0, r=0.05)
        for k in (80.0, 100.0, 120.0):
            g = greeks_bump(price_formula, rn,
                            OptionSpec(strike=k, maturity=1.0, rate=0.05), tol=1e-11)
            assert 0.0 <= g["delta"] <= 1.0 + 1e-6
            assert g["gamma"] > 0.0

    def test_gbm_delta_matches_analytic(self):
        g = greeks_bump(price_formula, RN_GBM, ATM, ds=0.1, tol=1e-12)
        assert g["delta"] == pytest.approx(bs_delta_mp(100.0, 100.0, 1.0, 0.05, 0.2), abs=1e-4)

    def test_bump_halving_second_order(self):
        d_true = bs_delta_mp(100.0, 100.0, 1.0, 0.05, 0.2)
        e1 = abs(greeks_bump(price_formula, RN_GBM, ATM, ds=0.1, tol=1e-12)["delta"] - d_true)
        e2 = abs(greeks_bump(price_formula, RN_GBM, ATM, ds=0.05, tol=1e-12)["delta"] - d_true)
        assert 2.0 < e1 / e2 < 8.0  # ~4x shrink for a second-order scheme

    @pytest.mark.parametrize("rn", [RN_GBM, RN_VVE], ids=["c1=0", "c1>0"])
    @pytest.mark.parametrize("tol", [None, 1e-6])
    def test_formula_greeks_from_bumped_prices(self, rn, tol):
        # the bumps reprice without the estimate's grid, to the same bits; tol = 1e-6
        # moves the last bits of these prices, so a dropped tol shows
        kwargs = {} if tol is None else {"tol": tol}

        def price(**over):
            return price_formula(replace(rn, **over), ATM, **kwargs).price

        ds, dsig = 1e-3 * rn.s0, 1e-3 * max(rn.sigma, 0.1)
        p0, p_up, p_dn = price(), price(s0=rn.s0 + ds), price(s0=rn.s0 - ds)
        v_up, v_dn = price(sigma=rn.sigma + dsig), price(sigma=rn.sigma - dsig)
        assert greeks_bump(price_formula, rn, ATM, **kwargs) == {
            "delta": (p_up - p_dn) / (2.0 * ds),
            "gamma": (p_up - 2.0 * p0 + p_dn) / ds ** 2,
            "vega": (v_up - v_dn) / (2.0 * dsig),
            "ds": ds, "dsig": dsig}

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_formula_greeks_invalid_tol(self, tol):
        for rn in (RN_GBM, RN_VVE):
            with pytest.raises(InvalidGrid):
                greeks_bump(price_formula, rn, ATM, tol=tol)

    def test_cold_formula_set_solves_four_laws(self):
        # a strip pays three law solves (the price's two grids and the estimate's);
        # after it, a set pays the price's two per bump, and none for the estimate
        rn = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=0.05)
        law_map.cache_clear()
        for k in (90.0, 100.0, 110.0):
            price_formula(rn, OptionSpec(strike=k, maturity=0.5, rate=0.05))
        misses = law_map.cache_info().misses
        assert misses == 3
        greeks_bump(price_formula, rn, OptionSpec(strike=100.0, maturity=0.5, rate=0.05))
        assert law_map.cache_info().misses - misses == 8

    def test_parallel_solves_keep_serial_bits(self):
        # three user threads sharing the law-map cache: a Greek set twice on one key,
        # and quotes on that key and another, against the same calls in sequence
        rn_b = replace(RN_VVE, c1=1e-3)
        short = OptionSpec(strike=95.0, maturity=0.25, rate=0.05)
        calls = [lambda: greeks_bump(price_formula, RN_VVE, short),
                 lambda: greeks_bump(price_formula, RN_VVE, short),
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

    At r = 600, tau = 1 the law solve overflows: the Greek set stops at its
    first price with OutOfRange.
    """

    RN = RiskNeutralParams(sigma=0.2, c1=1e-3, s0=100.0, r=600.0)
    OPT = OptionSpec(strike=100.0, maturity=1.0, rate=600.0)

    @pytest.fixture(autouse=True)
    def cold(self):
        law_map.cache_clear()

    def test_overflow_raises_out_of_range(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(OutOfRange, match="overflowed"):
                greeks_bump(price_formula, self.RN, self.OPT)
        assert record and all(w.category is RuntimeWarning for w in record)

    def test_ignored_errors_stay_silent(self):
        with warnings.catch_warnings(record=True) as record, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(OutOfRange, match="overflowed"):
                greeks_bump(price_formula, self.RN, self.OPT)
        assert record == []

    def test_raise_mode_raises(self):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            price_formula(self.RN, self.OPT)

    def test_invalid_tol_starts_no_solve(self):
        before = law_map.cache_info()
        for call in (lambda: price_formula(RN_VVE, ATM, tol=0.0),
                     lambda: greeks_bump(price_formula, RN_VVE, ATM, tol=math.nan)):
            with pytest.raises(InvalidGrid):
                call()
        assert law_map.cache_info() == before

    def test_invalid_bump_raises(self):
        # sigma - dsig < 0: the set prices three bumps, then raises
        rn = RiskNeutralParams(sigma=5e-5, c1=1e-3, s0=100.0, r=0.05)
        with pytest.raises(NegativeCoefficient, match="sigma and c1 must be >= 0"):
            greeks_bump(price_formula, rn, OptionSpec(strike=100.0, maturity=0.25, rate=0.05))
        assert law_map.cache_info().misses == 8


class TestRichardsonTable:
    """The law-map price against the committed limits of ``tools/law_richardson_table.py``.

    The limit is the Richardson extrapolation from grids 2000 x 400 and
    4000 x 800, far finer than the default ones; the table is read, not
    recomputed.
    """

    TABLE = json.loads((Path(__file__).parent / "data" / "law_richardson_limits.json").read_text())

    @pytest.mark.parametrize("case", TABLE["cases"],
                             ids=lambda c: f"c1={c['c1']:g}-tau={c['tau']:g}-K={c['strike']:g}")
    def test_price_within_1e6_of_limit_and_estimate_covers_error(self, case):
        t = self.TABLE
        rn = RiskNeutralParams(sigma=t["sigma"], c1=case["c1"], s0=t["s0"], r=t["r"])
        quote = price_formula(rn, OptionSpec(strike=case["strike"], maturity=case["tau"],
                                             rate=t["r"]), tol=t["tol"])
        error = abs(quote.price - case["limit"])
        assert error <= 1e-6
        assert quote.diagnostics["law_error_estimate"] >= error

    @pytest.mark.parametrize("case", TABLE["black_scholes"], ids=lambda c: f"K={c['strike']:g}")
    def test_law_route_at_c1_zero_matches_black_scholes(self, case):
        t = self.TABLE
        rn = RiskNeutralParams(sigma=t["sigma"], c1=0.0, s0=t["s0"], r=t["r"])
        opt = OptionSpec(strike=case["strike"], maturity=case["tau"], rate=t["r"])
        assert abs(_law_quote(rn, opt, t["tol"], estimate=True).price - case["price"]) <= 1e-7
