"""Unit tests for vve.model: parameter validation and the pure primitives."""

import math

import numpy as np
import pytest

from vve.errors import (
    DegenerateDiffusion,
    NegativeCoefficient,
    NegativePrice,
    NonPositiveSpot,
)
from vve.model import (
    ModelParams,
    elasticity,
    elasticity_derivative,
    validate_params,
    volatility,
)


class TestValidateParams:
    def test_valid_vve_params(self):
        p = validate_params(0.05, 0.2, 0.001, 100)
        assert p == ModelParams(0.05, 0.2, 0.001, 100.0)

    def test_degenerate_diffusion(self):
        with pytest.raises(DegenerateDiffusion):
            validate_params(0.05, 0.0, 0.0, 100)

    def test_non_positive_spot(self):
        with pytest.raises(NonPositiveSpot):
            validate_params(0.05, 0.2, 0.001, -1)
        with pytest.raises(NonPositiveSpot):
            validate_params(0.05, 0.2, 0.001, 0)

    def test_negative_coefficients(self):
        with pytest.raises(NegativeCoefficient):
            validate_params(0.05, -0.2, 0.001, 100)
        with pytest.raises(NegativeCoefficient):
            validate_params(0.05, 0.2, -0.001, 100)

    def test_non_finite_rejected(self):
        with pytest.raises(NegativeCoefficient):
            validate_params(math.nan, 0.2, 0.001, 100)

    def test_degenerate_cases_allowed(self):
        validate_params(0.05, 0.0, 0.001, 100)  # CVE
        validate_params(0.05, 0.2, 0.0, 100)    # GBM


class TestVolatility:
    def test_constant_case(self):
        assert volatility(ModelParams(0.0, 0.2, 0.0, 100), 100) == 0.2

    def test_linear_form(self):
        assert volatility(ModelParams(0.0, 0.1, 0.001, 100), 100) == pytest.approx(0.2, abs=1e-15)

    def test_zero_price_limit(self):
        assert volatility(ModelParams(0.0, 0.1, 0.001, 100), 0) == 0.1

    def test_affine_in_s(self):
        p = ModelParams(0.0, 0.13, 0.002, 50)
        s = np.linspace(0, 500, 11)
        np.testing.assert_allclose(volatility(p, s) - volatility(p, 0.0),
                                   p.c1 * s, rtol=0, atol=1e-15)

    def test_negative_price_rejected(self):
        with pytest.raises(NegativePrice):
            volatility(ModelParams(0.0, 0.2, 0.0, 100), -1)

    def test_array_input(self):
        out = volatility(ModelParams(0.0, 0.1, 0.001, 100), np.array([0.0, 100.0]))
        np.testing.assert_allclose(out, [0.1, 0.2])


class TestElasticity:
    def test_gbm_case_zero(self):
        assert elasticity(ModelParams(0.0, 0.2, 0.0, 100), 100) == 0.0

    def test_half(self):
        assert elasticity(ModelParams(0.0, 0.1, 0.001, 100), 100) == pytest.approx(0.5, abs=1e-15)

    def test_large_s_asymptote(self):
        val = elasticity(ModelParams(0.0, 0.01, 1.0, 100), 1000)
        assert val == pytest.approx(1000.0 / 1000.01, rel=1e-14)
        assert val < 1.0

    def test_cve_case_one(self):
        p = ModelParams(0.0, 0.0, 0.5, 100)
        for s in (1.0, 10.0, 1e4):
            assert elasticity(p, s) == 1.0

    def test_monotone_nondecreasing(self):
        p = ModelParams(0.0, 0.15, 0.003, 100)
        s = np.logspace(-3, 6, 200)
        vals = elasticity(p, s)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals < 1))

    def test_negative_price_rejected(self):
        with pytest.raises(NegativePrice):
            elasticity(ModelParams(0.0, 0.2, 0.001, 100), -0.5)
        with pytest.raises(NegativePrice, match="price must be >= 0"):
            elasticity_derivative(ModelParams(0.0, 0.2, 0.001, 100), np.array([1.0, -0.5]))

    def test_zero_volatility_level_rejected(self):
        # sigma = 0 and s = 0: the elasticity's denominator sigma + c1*s is 0
        with pytest.raises(NegativePrice, match=r"sigma \+ c1\*s must be > 0"):
            elasticity(ModelParams(0.0, 0.0, 0.5, 100), 0.0)

    def test_derivative_closed_form(self):
        p = ModelParams(0.0, 0.1, 0.001, 100)
        s = 100.0
        expected = p.c1 * p.sigma / (p.sigma + p.c1 * s) ** 2
        assert elasticity_derivative(p, s) == pytest.approx(expected, rel=1e-15)
        # finite-difference cross-check
        h = 1e-6
        fd = (elasticity(p, s + h) - elasticity(p, s - h)) / (2 * h)
        assert elasticity_derivative(p, s) == pytest.approx(fd, rel=1e-6)


class TestElasticityIdentities:
    """The two identities behind the variable-elasticity construction."""

    def test_ode_identity(self):
        # theta'(s)*s - alpha(s)*theta(s) = 0 with theta = sigma + c1*s
        p = ModelParams(0.0, 0.2, 5e-4, 100)
        s = np.logspace(-3, 6, 100)
        resid = p.c1 * s - elasticity(p, s) * volatility(p, s)
        assert np.max(np.abs(resid)) < 1e-12

    def test_riccati_identity(self):
        # alpha^2 + alpha'(s)*s - alpha = 0
        p = ModelParams(0.0, 0.2, 5e-4, 100)
        s = np.logspace(-3, 6, 100)
        alpha = elasticity(p, s)
        resid = alpha ** 2 + elasticity_derivative(p, s) * s - alpha
        assert np.max(np.abs(resid)) < 1e-12

