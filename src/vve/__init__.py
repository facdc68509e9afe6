"""Variable-volatility-elasticity (VVE) asset-price model.

The price process follows dS_t = S_t [mu dt + (sigma + c1 S_t) dB_t], so
volatility is an affine, increasing function of price (the positive
price-volatility coupling seen in commodity markets).  The package provides
path simulation, calibration of (sigma, c1) from close-price series, and
European call pricing with independent Monte Carlo and Black-Scholes checks.
"""

from .calibration import (
    CalibrationResult,
    MarketSeries,
    RegressionReport,
    VolSeries,
    calibrate_vve,
    estimate_drift,
    log_returns,
    ols_fit,
    rolling_hv,
)
from .io import ensemble_summary, ensemble_to_csv, ingest_csv
from .model import (
    ModelParams,
    elasticity,
    elasticity_derivative,
    validate_params,
    volatility,
)
from .pricing import (
    OptionQuote,
    OptionSpec,
    RiskNeutralParams,
    forward_map,
    greeks_bump,
    inverse_map,
    price_bs,
    price_formula,
    price_mc,
)
from .sde import (
    ConvergenceReport,
    PathEnsemble,
    TimeGrid,
    simulate_euler,
    simulate_exact,
    simulate_milstein,
    strong_convergence,
)

__version__ = "0.1.0"
