"""Tests of the benchmark's oracles and correctness checks.

Each check must pass on right outputs and reject a deliberately wrong one.
Run with ``python -m pytest bench``.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


# --------------------------------------------------------------------------
# Oracles against known values
# --------------------------------------------------------------------------

def test_black_scholes_known_values():
    assert checks.bs_call(100.0, 100.0, 1.0, 0.05, 0.2) == pytest.approx(10.450583572185565,
                                                                         abs=1e-12)
    assert checks.bs_delta(100.0, 100.0, 1.0, 0.05, 0.2) == pytest.approx(0.6368306511756191,
                                                                          abs=1e-14)
    assert checks.bs_call(100.0, 0.0, 1.0, 0.05, 0.2) == 100.0


def test_ols_ten_point_known_values():
    # textbook OLS of the fixture in 40-digit arithmetic
    closes = [row.split(",") for row in (DATA / "ols_ten_point.csv").read_text().split()[1:]]
    fit = checks.ols([float(x) for x, _ in closes], [float(y) for _, y in closes])
    known = {"slope": 0.0020736266206292, "intercept": -0.0514731213796442,
             "p_slope": 1.60878545885123e-5, "p_intercept": 0.0548099589296648,
             "r_squared": 0.913205145941301, "pearson_corr": 0.955617677704479}
    for key, value in known.items():
        assert fit[key] == pytest.approx(value, rel=1e-12), key
    assert fit["n_points"] == 10


def test_rolling_hv_hand_oracle():
    # returns alternate +x, -x: each 2-return window has sample sd x*sqrt(2)
    x = 0.01
    closes = [100.0 * math.exp(x * (k % 2)) for k in range(21)]
    vols = checks.rolling_hv(closes, 2)
    assert len(vols) == 19
    assert vols == pytest.approx([x * math.sqrt(2.0) * math.sqrt(252)] * 19, rel=1e-10)


def test_read_closes_sorts_by_date(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,close\n2000-01-03,3\n2000-01-01,1\n2000-01-02,2\n")
    assert checks.read_closes(path) == [1.0, 2.0, 3.0]


# --------------------------------------------------------------------------
# Each check rejects a wrong output
# --------------------------------------------------------------------------

def test_mc_pooled_rejects_price_moved_by_5_se():
    means, ses, ref = [10.45, 10.46, 10.44, 10.45], [0.1] * 4, 10.45
    checks.check_mc_pooled(means, ses, ref, 0.0, "mc")
    shift = 5 * math.sqrt(sum(s * s for s in ses)) / len(ses)
    with pytest.raises(CheckFailed, match="SE"):
        checks.check_mc_pooled([m + shift for m in means], ses, ref, 0.0, "mc")
    checks.check_mc_pooled([m + shift for m in means], ses, ref, shift, "mc")


def test_strip_shape_rejects_non_convex_and_increasing_rows():
    strikes = [70.0, 80.0, 90.0, 100.0]
    prices = [checks.bs_call(100.0, k, 1.0, 0.05, 0.2) for k in strikes]
    checks.check_strip_shape(strikes, prices, 0.0, "row")
    dented = prices[:2] + [prices[2] + 1.5] + prices[3:]
    with pytest.raises(CheckFailed, match="not convex"):
        checks.check_strip_shape(strikes, dented, 1e-6, "row")
    with pytest.raises(CheckFailed, match=r"C\(80\)"):
        checks.check_strip_shape(strikes, [prices[0], prices[0] + 1.0] + prices[2:], 0.0, "row")


def _formula_strip(strikes, prices, err=1e-4):
    return [{"price": p, "diagnostics": {"law_error_estimate": err}} for p in prices]


def test_formula_strip_checks():
    strikes = [100.0, 0.0, 70.0, 130.0]
    bs = [checks.bs_call(100.0, k, 1.0, 0.05, 0.2) for k in strikes]
    checks.check_formula_strip(strikes, [{"price": p} for p in bs], 100.0, 1.0, 0.05, 0.2, 0.0, "s")
    with pytest.raises(CheckFailed, match="Black-Scholes"):
        checks.check_formula_strip(strikes, [{"price": p + 1e-6} for p in bs],
                                   100.0, 1.0, 0.05, 0.2, 0.0, "s")
    # c1 > 0: above Black-Scholes, less the zero-strike defect
    vve = [p + 1.0 for p in bs[:1]] + [99.0] + [p + 0.5 for p in bs[2:]]
    checks.check_formula_strip(strikes, _formula_strip(strikes, vve), 100.0, 1.0, 0.05, 0.2,
                               1e-3, "s")
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_formula_strip(strikes, _formula_strip(strikes, [vve[0], 100.01] + vve[2:]),
                                   100.0, 1.0, 0.05, 0.2, 1e-3, "s")
    with pytest.raises(CheckFailed, match="below Black-Scholes"):
        low = [bs[0] - 2.0, 99.0] + vve[2:]
        checks.check_formula_strip(strikes, _formula_strip(strikes, low), 100.0, 1.0, 0.05, 0.2,
                                   1e-3, "s")
    with pytest.raises(CheckFailed, match="one cent"):
        checks.check_formula_strip(strikes, _formula_strip(strikes, vve, err=0.02),
                                   100.0, 1.0, 0.05, 0.2, 1e-3, "s")


def test_greeks_signs():
    checks.check_greeks({"delta": 0.6, "gamma": 0.02, "vega": 37.0}, "g")
    for bad in ({"delta": 1.2, "gamma": 0.02, "vega": 37.0},
                {"delta": 0.6, "gamma": -1e-9, "vega": 37.0},
                {"delta": 0.6, "gamma": 0.02, "vega": 0.0}):
        with pytest.raises(CheckFailed):
            checks.check_greeks(bad, "g")


def test_convergence_slopes():
    report = {"euler": {"fitted_slope": 0.5, "reference": "refined"},
              "milstein": {"fitted_slope": 1.0, "reference": "refined"}}
    checks.check_euler_slope(report)
    assert checks.milstein_slope_ok(report)
    report["milstein"]["fitted_slope"] = 0.05
    assert not checks.milstein_slope_ok(report)
    report["euler"]["fitted_slope"] = 0.05
    with pytest.raises(CheckFailed, match="Euler slope"):
        checks.check_euler_slope(report)


def test_regression_rejects_slope_off_in_6th_digit():
    closes = checks.read_closes(DATA / "vve_synthetic.csv")
    hv = checks.rolling_hv(closes, 30)
    oracle = checks.ols(closes[30:], hv)
    checks.check_regression(dict(oracle), oracle)
    with pytest.raises(CheckFailed, match="slope"):
        checks.check_regression({**oracle, "slope": oracle["slope"] * (1 + 1e-6)}, oracle)
    with pytest.raises(CheckFailed, match="n_points"):
        checks.check_regression({**oracle, "n_points": oracle["n_points"] - 1}, oracle)


def test_calibration_and_series():
    checks.check_calibration({"params": {"sigma": 0.0997, "c1": 0.001003}})
    with pytest.raises(CheckFailed, match="c1"):
        checks.check_calibration({"params": {"sigma": 0.0997, "c1": 0.0013}})
    checks.check_series([1.0, 2.0], [1.0, 2.0 + 1e-12], 1e-9, "s")
    with pytest.raises(CheckFailed, match="row 1"):
        checks.check_series([1.0, 2.0], [1.0, 2.0001], 1e-9, "s")


def test_euler_mean():
    terminal = [105.127 + (1.0 if k % 2 else -1.0) for k in range(1000)]
    checks.check_euler_mean(terminal, 100.0, 0.05, 1.0, 252)
    with pytest.raises(CheckFailed, match="simulate"):
        checks.check_euler_mean([t + 0.2 for t in terminal], 100.0, 0.05, 1.0, 252)


def test_price_report():
    bs = checks.bs_call(100.0, 100.0, 1.0, 0.05, 0.2)
    report = {"spec": {"s0": 100.0, "strike": 100.0, "maturity": 1.0, "t": 0.0, "r": 0.05,
                       "sigma": 0.2},
              "quotes": {"bs": {"price": round(bs, 10)},
                         "formula": {"price": 12.34, "diagnostics": {"law_error_estimate": 1e-4}}}}
    checks.check_price(report)
    report["quotes"]["formula"]["price"] = bs - 0.01
    with pytest.raises(CheckFailed, match="formula"):
        checks.check_price(report)


def test_schema_checker_rejects_missing_key(tmp_path):
    schemas = checks.SchemaChecker(Path(__file__).resolve().parents[1] / "src" / "vve" / "schemas")
    path = tmp_path / "regress.json"
    path.write_text('{"slope": 1.0}')
    with pytest.raises(CheckFailed, match="fails schema"):
        schemas.load(path, "regression.json")


def test_tracer_self_time_and_restore():
    import types

    module = types.SimpleNamespace(inner=lambda: sum(range(1000)))
    tracer = Tracer()
    with tracer.patched([(module, "inner", "inner", None)]):
        with tracer.span("outer"):
            module.inner()
            module.inner()
    assert not hasattr(module.inner, "__wrapped__")
    totals = tracer.totals()
    assert totals["inner"][2] == 2
    outer_inclusive, outer_self, _ = totals["outer"]
    assert outer_self == pytest.approx(outer_inclusive - totals["inner"][0], abs=1e-12)
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
