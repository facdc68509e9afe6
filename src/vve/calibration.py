"""Calibration of (sigma, c1) from a close-price series.

Pipeline: rolling annualized historical volatility of log returns, then a
simple OLS regression of volatility on the contemporaneous close.  Under the
model the volatility level is ``sigma + c1 * S``, so the regression intercept
estimates sigma and the slope estimates c1.  The drift mu is estimated
separately from the log returns.

The module needs numpy only at import; ``ols_fit`` imports ``scipy.special``
at first use, for the Student-t tail of its p-values.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateX,
    InvalidGrid,
    NegativeSlope,
    NonPositivePrice,
    SeriesTooShort,
    TooFewPoints,
)
from .model import ModelParams, validate_params

TRADING_DAYS_PER_YEAR = 252

#: sigma substituted when the regression intercept is not positive
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class MarketSeries:
    """Dated close-price series: strictly increasing dates, closes > 0."""

    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", closes)
        if len(self.dates) != len(closes):
            raise SeriesTooShort("dates and closes must have equal length")
        if len(closes) < 2:
            raise SeriesTooShort(f"need at least 2 observations, got {len(closes)}")
        if np.any(closes <= 0):
            raise NonPositivePrice("all closes must be > 0")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise SeriesTooShort("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.closes)


@dataclass(frozen=True)
class VolSeries:
    """Annualized rolling volatilities aligned with their end dates."""

    dates: tuple[dt.date, ...]
    vols: np.ndarray


@dataclass(frozen=True)
class RegressionReport:
    """Simple-OLS summary: the seven regression statistics."""

    slope: float
    intercept: float
    p_slope: float
    p_intercept: float
    r_squared: float
    pearson_corr: float
    n_points: int

    def to_dict(self) -> dict:
        """The seven statistics by field name."""
        return asdict(self)


@dataclass
class CalibrationResult:
    params: ModelParams
    report: RegressionReport
    vols: VolSeries
    warnings: list[str] = field(default_factory=list)


def log_returns(series: MarketSeries) -> np.ndarray:
    """Log returns r_k = ln(close_{k+1} / close_k); length n - 1."""
    return np.diff(np.log(series.closes))


def _check_trading_days(trading_days_per_year) -> None:
    if not 1 <= trading_days_per_year < math.inf:
        raise InvalidGrid(f"trading_days_per_year must be a finite number >= 1, "
                          f"got {trading_days_per_year}")


def rolling_hv(series: MarketSeries, window: int,
               trading_days_per_year: int = TRADING_DAYS_PER_YEAR) -> VolSeries:
    """Rolling annualized historical volatility of log returns.

    The volatility at date index k (k >= window) is the sample standard
    deviation (n-1 denominator) of the ``window`` returns ending at date k,
    times sqrt(trading_days_per_year), which must be >= 1.  Output length is
    len(series) - window and is aligned with the closes at dates[window:] for
    contemporaneous regression.
    """
    _check_trading_days(trading_days_per_year)
    if window < 2:
        raise SeriesTooShort(f"window must be >= 2, got {window}")
    if len(series) <= window:
        raise SeriesTooShort(
            f"need more than window={window} observations, got {len(series)}")
    r = log_returns(series)
    sd = sliding_window_view(r, window).std(axis=1, ddof=1)
    vols = sd * math.sqrt(trading_days_per_year)
    return VolSeries(dates=series.dates[window:], vols=vols)


def ols_fit(x, y) -> RegressionReport:
    """Simple OLS of y on x with two-sided t-test p-values (n-2 dof).

    The slope, intercept, correlation and slope p-value are computed as
    ``scipy.stats.linregress`` computes them, operation for operation, so
    they are the same bits; the intercept's p-value is ``2 * stats.t.sf``
    of its t statistic, also bit for bit.

    A perfect linear fit (zero residual variance) reports both p-values as 0.
    Raises DegenerateX where x's variance, which the slope divides by, is 0
    in floating point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if len(y) != n:
        raise TooFewPoints("x and y must have equal length")
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    xmean, ymean = np.mean(x), np.mean(y)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if np.ptp(x) == 0 or ssxm == 0:  # a constant x, or a spread whose square underflows
        raise DegenerateX("x has zero variance in floating point; slope undefined")
    slope = float(ssxym / ssxm)
    intercept = float(ymean - slope * xmean)
    resid = y - intercept - slope * x
    sse = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))

    if sst == 0.0:
        # constant response: slope 0 fits exactly, correlation undefined -> 0
        return RegressionReport(slope=slope, intercept=intercept, p_slope=0.0,
                                p_intercept=0.0, r_squared=0.0, pearson_corr=0.0,
                                n_points=n)
    if sse <= 1e-24 * sst:
        return RegressionReport(slope=slope, intercept=intercept, p_slope=0.0,
                                p_intercept=0.0, r_squared=1.0,
                                pearson_corr=float(np.sign(slope)) if slope else 0.0,
                                n_points=n)

    from scipy import special

    if ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    df = n - 2
    t_slope = r * np.sqrt(df / ((1.0 - r + 1e-20) * (1.0 + r + 1e-20)))
    slope_stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / df)
    t_int = intercept / float(slope_stderr * np.sqrt(ssxm + xmean ** 2))
    r_squared = 1.0 - sse / sst
    return RegressionReport(slope=slope, intercept=intercept,
                            p_slope=float(2.0 * special.stdtr(df, -abs(t_slope))),
                            p_intercept=float(2.0 * special.stdtr(df, -abs(t_int))),
                            r_squared=r_squared, pearson_corr=float(r), n_points=n)


def estimate_drift(series: MarketSeries,
                   trading_days_per_year: int = TRADING_DAYS_PER_YEAR) -> float:
    """Annualized drift of the arithmetic SDE from daily log returns.

    mu = mean(r)*tdpy + var(r, ddof=1)*tdpy/2 (geometric mean plus the Ito
    variance correction).  A constant series gives 0.
    """
    _check_trading_days(trading_days_per_year)
    r = log_returns(series)
    var = float(np.var(r, ddof=1)) if len(r) > 1 else 0.0
    return float(np.mean(r)) * trading_days_per_year + 0.5 * var * trading_days_per_year


def calibrate_vve(series: MarketSeries, window: int = 30,
                  trading_days_per_year: int = TRADING_DAYS_PER_YEAR) -> CalibrationResult:
    """Full calibration: rolling volatility, regression on closes, drift.

    sigma <- intercept, c1 <- slope, mu <- estimate_drift.  A non-positive
    intercept is inconsistent with the model's sigma > 0; sigma is then
    clamped to SIGMA_FLOOR with a ModelInconsistency warning, the raw
    intercept staying available in the report.  A non-positive slope is an
    error (the model requires c1 > 0).
    """
    vol = rolling_hv(series, window, trading_days_per_year)
    x = series.closes[window:]
    report = ols_fit(x, vol.vols)
    if report.slope <= 0:
        raise NegativeSlope(
            f"regression slope {report.slope:.6g} <= 0; the model requires c1 > 0")
    warnings = []
    sigma = report.intercept
    if sigma <= 0:
        warnings.append(
            "ModelInconsistency: regression intercept "
            f"{report.intercept:.6g} <= 0 contradicts sigma > 0; sigma clamped "
            f"to {SIGMA_FLOOR}")
        sigma = SIGMA_FLOOR
    mu = estimate_drift(series, trading_days_per_year)
    params = validate_params(mu, sigma, report.slope, float(series.closes[-1]))
    return CalibrationResult(params=params, report=report, vols=vol, warnings=warnings)
