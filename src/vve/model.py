"""Core model parameters and the pure volatility/elasticity primitives.

The asset price follows

    dS_t = S_t [ mu dt + (sigma + c1 S_t) dB_t ]

so its volatility level is the affine function ``sigma + c1 * s`` and its
volatility elasticity is ``c1 * s / (sigma + c1 * s)``.  Setting c1 = 0
recovers geometric Brownian motion (constant volatility, zero elasticity);
setting sigma = 0 recovers the quadratic-diffusion model with elasticity
identically 1.  All rates and volatilities are annualized; time is in years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDiffusion,
    NegativeCoefficient,
    NegativePrice,
    NonFinite,
    NonPositiveSpot,
    OutOfRange,
)

@dataclass(frozen=True)
class ModelParams:
    """Parameters of the variable-volatility-elasticity price process.

    Attributes
    ----------
    mu : float
        Instantaneous expected return, per year.
    sigma : float
        Base volatility level, per sqrt(year).
    c1 : float
        Volatility-per-price coefficient, per price unit per sqrt(year).
    s0 : float
        Initial price, > 0.
    """

    mu: float
    sigma: float
    c1: float
    s0: float

    def __post_init__(self):
        check_coefficients(self.mu, self.sigma, self.c1, self.s0)


def require_finite(*values) -> None:
    """Raise NonFinite unless every value is a finite number."""
    if not np.isfinite(values).all():
        raise NonFinite("parameters must be finite numbers")


def check_coefficients(drift, sigma, c1, s0) -> None:
    """Raise unless all four are finite, s0 > 0, sigma, c1 >= 0 and not both 0."""
    require_finite(drift, sigma, c1, s0)
    if s0 <= 0:
        raise NonPositiveSpot(f"s0 must be > 0, got {s0}")
    if sigma < 0 or c1 < 0:
        raise NegativeCoefficient(f"sigma and c1 must be >= 0, got sigma={sigma}, c1={c1}")
    if sigma == 0 and c1 == 0:
        raise DegenerateDiffusion("sigma = c1 = 0 leaves a risk-free asset, not a risk asset")


def _exp(x: float, what: str, name: str) -> float:
    """exp(x); raises OutOfRange, naming the exponent ``name``, where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise OutOfRange(f"{what} needs exp({name}) in float range, got {name} = "
                         f"{x:.6g}") from None


def validate_params(mu: float, sigma: float, c1: float, s0: float) -> ModelParams:
    """Validate raw numeric inputs and build a ModelParams.

    Raises NonPositiveSpot, NegativeCoefficient, or DegenerateDiffusion on
    invalid input; never constructs an invalid instance.
    """
    return ModelParams(float(mu), float(sigma), float(c1), float(s0))


def _prices(s) -> np.ndarray:
    """``s`` as a float array; raises NegativePrice if any price is below 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise NegativePrice("price must be >= 0")
    return s


def volatility(params: ModelParams, s):
    """Volatility level sigma + c1 * s.  Accepts scalar or array s >= 0."""
    s = _prices(s)
    out = params.sigma + params.c1 * s
    return float(out) if out.ndim == 0 else out


def elasticity(params: ModelParams, s):
    """Volatility elasticity c1*s / (sigma + c1*s), in [0, 1].

    Equals 0 identically when c1 = 0 and 1 identically when sigma = 0.
    """
    s = _prices(s)
    num = params.c1 * s
    den = params.sigma + num
    if np.any(den <= 0):
        raise NegativePrice("sigma + c1*s must be > 0")
    out = num / den
    return float(out) if out.ndim == 0 else out


def elasticity_derivative(params: ModelParams, s):
    """d/ds of the elasticity: c1*sigma / (sigma + c1*s)**2."""
    s = _prices(s)
    out = params.c1 * params.sigma / (params.sigma + params.c1 * s) ** 2
    return float(out) if out.ndim == 0 else out

