"""Unit tests for vve.calibration: returns, rolling volatility, OLS, round trip."""

import datetime as dt
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_ols
from vve.calibration import (
    MarketSeries,
    calibrate_vve,
    estimate_drift,
    log_returns,
    ols_fit,
    rolling_hv,
)
from vve.errors import (
    DegenerateX,
    InvalidGrid,
    NegativeSlope,
    NonPositivePrice,
    SeriesTooShort,
    TooFewPoints,
)
from vve.io import ingest_csv
from vve.model import ModelParams
from vve.sde import TimeGrid, simulate_euler

BASE = dt.date(2000, 1, 1)
DATA = Path(__file__).parent / "data"


def make_series(closes):
    closes = np.asarray(closes, dtype=float)
    dates = tuple(BASE + dt.timedelta(days=k) for k in range(len(closes)))
    return MarketSeries(dates=dates, closes=closes)


def gbm_series(n_steps, seed, params=ModelParams(0.05, 0.2, 0.0, 100.0)):
    grid = TimeGrid(n_steps / 252, n_steps)
    return make_series(simulate_euler(params, grid, 1, seed).paths[0])


class TestMarketSeries:
    def test_validation(self):
        with pytest.raises(SeriesTooShort):
            make_series([100.0])
        with pytest.raises(NonPositivePrice):
            make_series([100.0, -5.0])
        with pytest.raises(SeriesTooShort):
            MarketSeries(dates=(BASE, BASE), closes=np.array([100.0, 101.0]))
        with pytest.raises(SeriesTooShort):
            MarketSeries(dates=(BASE,), closes=np.array([100.0, 101.0]))


class TestLogReturns:
    def test_constant_series(self):
        assert np.all(log_returns(make_series([50.0] * 10)) == 0.0)

    def test_direct_evaluation(self):
        r = log_returns(make_series([100.0, 110.0]))
        assert r[0] == pytest.approx(math.log(1.1), rel=1e-15)

    def test_round_trip_sums_to_zero(self):
        r = log_returns(make_series([100.0, 50.0, 100.0]))
        np.testing.assert_allclose(r, [math.log(0.5), math.log(2.0)], rtol=1e-15)
        assert r.sum() == pytest.approx(0.0, abs=1e-15)


class TestRollingHv:
    def test_constant_series_zero_vols(self):
        vols = rolling_hv(make_series([50.0] * 40), 30)
        assert np.all(vols.vols == 0.0)

    def test_alternating_returns_hand_oracle(self):
        # returns alternate +x, -x: each 2-window has sample sd x*sqrt(2)
        x = 0.01
        closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(
            [x if k % 2 == 0 else -x for k in range(20)])]))
        vols = rolling_hv(make_series(closes), 2)
        expected = x * math.sqrt(2.0) * math.sqrt(252)
        np.testing.assert_allclose(vols.vols, expected, rtol=1e-10)

    def test_length_and_alignment(self):
        series = gbm_series(262, seed=0)  # 263 closes
        vols = rolling_hv(series, 30)
        assert len(vols.vols) == 263 - 30
        assert vols.dates == series.dates[30:]

    def test_scale_invariance(self):
        series = gbm_series(100, seed=1)
        scaled = make_series(series.closes * 3.0)
        np.testing.assert_allclose(rolling_hv(series, 30).vols,
                                   rolling_hv(scaled, 30).vols, rtol=1e-12)

    def test_annualization_factor_configurable(self):
        series = gbm_series(100, seed=1)
        v252 = rolling_hv(series, 30, trading_days_per_year=252).vols
        v365 = rolling_hv(series, 30, trading_days_per_year=365).vols
        np.testing.assert_allclose(v365, v252 * math.sqrt(365 / 252), rtol=1e-12)

    def test_preconditions(self):
        series = gbm_series(100, seed=0)
        with pytest.raises(SeriesTooShort):
            rolling_hv(series, 1)
        with pytest.raises(SeriesTooShort):
            rolling_hv(gbm_series(29, seed=0), 30)  # 30 closes = window exactly

    @pytest.mark.parametrize("days", [0, -252, 0.5, math.nan, math.inf])
    def test_trading_days_must_be_at_least_one(self, days):
        # 0 would annualize every volatility to 0; a negative count has no sqrt
        series = gbm_series(100, seed=0)
        with pytest.raises(InvalidGrid):
            rolling_hv(series, 30, days)
        with pytest.raises(InvalidGrid):
            estimate_drift(series, days)
        with pytest.raises(InvalidGrid):
            calibrate_vve(series, 30, days)


def linregress_figures(x, y) -> dict:
    """The fitted figures of ``ols_fit`` as scipy.stats computes them."""
    from scipy import stats

    res = stats.linregress(x, y)
    t_int = float(res.intercept) / float(res.intercept_stderr)
    return {"slope": float(res.slope), "intercept": float(res.intercept),
            "p_slope": float(res.pvalue),
            "p_intercept": float(2.0 * stats.t.sf(abs(t_int), len(x) - 2)),
            "pearson_corr": float(res.rvalue)}


class TestOlsFit:
    def test_bit_identical_to_scipy_stats(self):
        series = ingest_csv(DATA / "vve_synthetic.csv")
        ten_point = np.loadtxt(DATA / "ols_ten_point.csv", delimiter=",", skiprows=1)
        cases = [(series.closes[30:], rolling_hv(series, 30).vols),
                 (ten_point[:, 0], ten_point[:, 1])]
        rng = np.random.Generator(np.random.Philox(key=[80, 0]))
        for _ in range(1000):
            n = int(rng.integers(3, 300))
            x = rng.normal(100.0, 10.0 ** rng.uniform(-2, 2), n)
            y = rng.uniform(-1, 1) * x + rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), n)
            cases.append((x, y))
        for x, y in cases:
            rep = ols_fit(x, y)
            assert not rep.exact_fit
            for key, want in linregress_figures(x, y).items():
                got = rep.to_dict()[key]
                assert struct.pack("<d", got) == struct.pack("<d", want), (key, got, want)

    def test_perfect_line(self):
        x = np.arange(5, dtype=float)
        rep = ols_fit(x, 2.0 * x + 1.0)
        assert rep.slope == pytest.approx(2.0, abs=1e-12)
        assert rep.intercept == pytest.approx(1.0, abs=1e-12)
        assert rep.r_squared == 1.0
        assert rep.pearson_corr == 1.0
        assert rep.p_slope == 0.0 and rep.p_intercept == 0.0
        assert rep.exact_fit

    def test_constant_response(self):
        rep = ols_fit(np.arange(5, dtype=float), np.full(5, 3.0))
        assert rep.slope == pytest.approx(0.0, abs=1e-12)
        assert rep.pearson_corr == 0.0 and rep.r_squared == 0.0
        assert rep.exact_fit

    def test_against_brute_force_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=[77, 0]))
        x = np.linspace(50, 150, 40) + rng.normal(0, 5, 40)
        y = 0.003 * x - 0.1 + rng.normal(0, 0.02, 40)
        rep = ols_fit(x, y).to_dict()
        oracle = brute_force_ols(x.tolist(), y.tolist())
        for key, val in oracle.items():
            assert rep[key] == pytest.approx(val, abs=1e-10), key

    def test_affine_equivariance(self):
        rng = np.random.Generator(np.random.Philox(key=[78, 0]))
        x = np.linspace(10, 20, 25)
        y = 0.5 * x + rng.normal(0, 0.3, 25)
        a, b = ols_fit(x, y), ols_fit(4.0 * x, y)
        assert b.slope == pytest.approx(a.slope / 4.0, abs=1e-10)
        for attr in ("r_squared", "pearson_corr", "p_slope"):
            assert getattr(b, attr) == pytest.approx(getattr(a, attr), abs=1e-10)

    def test_r_squared_equals_corr_squared(self):
        rng = np.random.Generator(np.random.Philox(key=[79, 0]))
        x = rng.normal(100, 10, 30)
        y = -0.2 * x + rng.normal(0, 1.0, 30)
        rep = ols_fit(x, y)
        assert rep.r_squared == pytest.approx(rep.pearson_corr ** 2, abs=1e-12)
        assert np.sign(rep.pearson_corr) == np.sign(rep.slope)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateX):
            ols_fit(np.full(5, 2.0), np.arange(5, dtype=float))
        # x spread ~1e-200: its variance, which the slope divides by, underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateX):
                ols_fit(np.tile([1e-200, 2e-200, 3e-200], 20), np.arange(60, dtype=float))
        with pytest.raises(TooFewPoints):
            ols_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(TooFewPoints):
            ols_fit(np.arange(4, dtype=float), np.arange(5, dtype=float))


class TestEstimateDrift:
    def test_constant_series(self):
        assert estimate_drift(make_series([80.0] * 10)) == 0.0

    def test_deterministic_exponential(self):
        g = 0.07
        closes = 100.0 * np.exp(g * np.arange(60) / 252.0)
        assert estimate_drift(make_series(closes)) == pytest.approx(g, rel=1e-9)

    def test_gbm_within_three_standard_errors(self):
        series = gbm_series(5000, seed=0)
        se = 0.2 / math.sqrt(5000 / 252)  # sd of the mean-return term
        assert abs(estimate_drift(series) - 0.05) < 3 * se


class TestCalibrateVve:
    def test_round_trip_on_generated_data(self):
        truth = ModelParams(0.05, 0.1, 0.001, 100.0)
        series = gbm_series(5000, seed=16, params=truth)
        result = calibrate_vve(series, 30)
        assert abs(result.params.sigma - truth.sigma) / truth.sigma < 0.20
        assert abs(result.params.c1 - truth.c1) / truth.c1 < 0.20
        assert result.report.p_slope < 0.01
        assert result.params.s0 == series.closes[-1]
        assert result.warnings == []

    def test_gbm_series_flat_slope_outcome(self):
        # On GBM data the true slope is 0; for this seed the fitted slope is
        # positive but statistically indistinguishable from zero.
        result = calibrate_vve(gbm_series(2000, seed=0), 30)
        assert result.report.p_slope > 0.01

    def test_gbm_series_negative_slope_rejected(self):
        # For this seed the fitted slope comes out negative: hard error.
        with pytest.raises(NegativeSlope):
            calibrate_vve(gbm_series(2000, seed=2), 30)

    def test_negative_intercept_clamped_with_warning(self):
        # engineered series whose volatility grows steeply with price, so the
        # fitted intercept is negative (inconsistent with sigma > 0)
        closes = [100.0]
        for k in range(1, 400):
            s = closes[-1]
            m = 0.03 * (s - 90.0) / 100.0
            closes.append(s * math.exp(0.0015 + (m if k % 2 else -m)))
        result = calibrate_vve(make_series(closes), 30)
        assert result.report.intercept < 0  # raw value preserved
        assert result.params.sigma == 1e-6  # clamped
        assert any("ModelInconsistency" in w for w in result.warnings)

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShort):
            calibrate_vve(gbm_series(20, seed=0), 30)
