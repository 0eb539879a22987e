"""Closed-form moment structure against hand values and the quadrature oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from supou import (
    DomainError,
    ModelKind,
    ParameterError,
    ParamVector,
    annualize,
    intsupou_acov,
    intsupou_mean,
    intsupou_var,
    quadrature_moments,
    supou_acf,
    supou_acov,
    supou_mean,
    supou_var,
    sv_sqret_acov,
    sv_sqret_mean,
    sv_sqret_var,
)

BETA_SHORT = ParamVector(0.015, 0.003, 4.0, -0.1)
BETA_LONG = ParamVector(0.015, 0.003, 1.95, -0.1)

betas = st.builds(
    ParamVector,
    mu=st.floats(0.001, 10.0),
    sigma2=st.floats(1e-4, 10.0),
    alpha_pi=st.floats(1.05, 8.0),
    B=st.floats(-2.0, -0.01),
)


class TestSupouMoments:
    def test_mean_hand_values(self):
        assert_allclose(supou_mean(BETA_SHORT), 0.05, rtol=1e-12)
        assert_allclose(supou_mean(BETA_LONG), 0.015 / (0.1 * 0.95), rtol=1e-12)

    def test_mean_zero_mu(self):
        beta = ParamVector(0.0, 0.003, 4.0, -0.1)
        assert supou_mean(beta) == 0.0

    def test_var_hand_values(self):
        assert_allclose(supou_var(BETA_SHORT), 0.005, rtol=1e-12)
        assert_allclose(supou_var(BETA_LONG), 0.003 / (0.2 * 0.95), rtol=1e-12)

    def test_var_independent_of_mu(self):
        for mu in (0.001, 0.015, 3.0):
            beta = ParamVector(mu, 0.003, 4.0, -0.1)
            assert supou_var(beta) == supou_var(BETA_SHORT)

    def test_acov_hand_values(self):
        assert_allclose(supou_acov(BETA_SHORT, 1.0), 0.005 / 1.1**3, rtol=1e-12)
        assert_allclose(supou_acov(BETA_LONG, 1.0), 0.0144226, rtol=1e-4)

    def test_acov_at_zero_is_var(self):
        assert supou_acov(BETA_SHORT, 0.0) == supou_var(BETA_SHORT)

    def test_acf_hand_values(self):
        assert supou_acf(BETA_SHORT, 0.0) == 1.0
        assert_allclose(supou_acf(BETA_SHORT, 1.0), 1.1**-3, rtol=1e-12)
        assert_allclose(supou_acf(BETA_LONG, 1.0), 1.1**-0.95, rtol=1e-12)

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            supou_acf(BETA_SHORT, -0.5)
        with pytest.raises(DomainError):
            supou_acov(BETA_SHORT, -1.0)

    @given(betas, st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_acov_equals_var_times_acf(self, beta, h):
        assert_allclose(
            supou_acov(beta, h), supou_var(beta) * supou_acf(beta, h), rtol=1e-13
        )

    @given(betas)
    @settings(max_examples=100, deadline=None)
    def test_acf_strictly_decreasing(self, beta):
        hs = np.linspace(0.0, 20.0, 40)
        values = supou_acf(beta, hs)
        assert np.all(np.diff(values) < 0.0)
        assert np.all(values <= 1.0) and np.all(values > 0.0)

    def test_asymptotic_decay_slope(self):
        # log-log slope of the acf over [1e3, 1e4] approaches 1 - alpha_pi
        for beta in (BETA_SHORT, BETA_LONG):
            slope = (
                math.log(supou_acf(beta, 1e4)) - math.log(supou_acf(beta, 1e3))
            ) / (math.log(1e4) - math.log(1e3))
            assert abs(slope / (1.0 - beta.alpha_pi) - 1.0) < 0.02


class TestAnnualize:
    def test_paper_scaling(self):
        scaled = annualize(BETA_SHORT, 250.0)
        assert_allclose(
            scaled.as_array(), [3.75, 0.75, 4.0, -25.0], rtol=1e-12
        )

    def test_identity_and_inverse(self):
        assert annualize(BETA_SHORT, 1.0) == BETA_SHORT
        back = annualize(annualize(BETA_SHORT, 5.0), 1.0 / 5.0)
        assert_allclose(back.as_array(), BETA_SHORT.as_array(), rtol=1e-12)

    def test_acf_invariance_under_rescaled_lags(self):
        scaled = annualize(BETA_SHORT, 250.0)
        for h in (0.5, 1.0, 7.0):
            assert_allclose(
                supou_acf(scaled, h / 250.0), supou_acf(BETA_SHORT, h), rtol=1e-12
            )

    def test_bad_factor(self):
        with pytest.raises(DomainError):
            annualize(BETA_SHORT, 0.0)


class TestIntegratedMoments:
    def test_mean_hand_values(self):
        assert_allclose(intsupou_mean(BETA_SHORT, 1.0), 0.05, rtol=1e-12)
        assert_allclose(intsupou_mean(BETA_SHORT, 2.0), 0.10, rtol=1e-12)
        assert_allclose(intsupou_mean(BETA_LONG, 1.0), 0.015 / 0.095, rtol=1e-12)

    def test_var_hand_value(self):
        assert_allclose(intsupou_var(BETA_SHORT, 1.0), 1.0 / 220.0, rtol=1e-12)

    def test_var_linear_in_sigma2(self):
        tiny = ParamVector(0.015, 1e-12, 4.0, -0.1)
        ref = intsupou_var(BETA_SHORT, 1.0)
        assert_allclose(intsupou_var(tiny, 1.0), ref * 1e-12 / 0.003, rtol=1e-12)

    def test_acov_hand_value(self):
        # exact second difference of (1 + 0.1 h)^-1 at h=1 is 1/66
        assert_allclose(intsupou_acov(BETA_SHORT, 1.0, 1), 0.003 / 0.792, rtol=1e-12)

    def test_acov_below_var(self):
        for beta in (BETA_SHORT, BETA_LONG):
            v = intsupou_var(beta, 1.0)
            prev = v
            for h in range(1, 8):
                c = intsupou_acov(beta, 1.0, h)
                assert 0.0 < c < prev
                prev = c

    def test_acov_asymptotic_slope(self):
        for beta in (BETA_SHORT, BETA_LONG):
            slope = (
                math.log(intsupou_acov(beta, 1.0, 10_000))
                - math.log(intsupou_acov(beta, 1.0, 1_000))
            ) / (math.log(1e4) - math.log(1e3))
            assert abs(slope / (1.0 - beta.alpha_pi) - 1.0) < 0.02

    @pytest.mark.parametrize("acov", [intsupou_acov, sv_sqret_acov])
    def test_acov_takes_an_array_of_lags(self, acov):
        hs = np.array([[1.0, 2.5], [7.0, 40.0]])
        got = acov(BETA_LONG, 0.5, hs)
        assert got.shape == hs.shape
        for h, value in zip(hs.ravel(), got.ravel()):
            assert_allclose(value, acov(BETA_LONG, 0.5, float(h)), rtol=1e-15)
        assert isinstance(acov(BETA_LONG, 0.5, 3), float)
        with pytest.raises(DomainError):
            acov(BETA_LONG, 0.5, np.array([1.0, 0.5]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            intsupou_var(BETA_SHORT, 0.0)
        with pytest.raises(DomainError):
            intsupou_acov(BETA_SHORT, 1.0, 0)
        negative_mean = ParamVector(-0.01, 0.003, 4.0, -0.1)
        with pytest.raises(ParameterError):
            intsupou_mean(negative_mean, 1.0)
        with pytest.raises(ParameterError):
            intsupou_var(negative_mean, 1.0)
        with pytest.raises(ParameterError):
            intsupou_acov(negative_mean, 1.0, 1)


class TestLimitHandling:
    """The integrated formulas at and near alpha_pi in {2, 3}, where the
    second-difference closed forms are 0/0: the tent form has no such
    point, and these tests keep it continuous and on the oracle there."""

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    @pytest.mark.parametrize("B,delta", [(-0.1, 1.0), (-0.5, 0.5), (-2.0, 1.0), (-0.01, 1.0)])
    def test_limit_agrees_with_nearby_evaluation(self, alpha, B, delta):
        at = ParamVector(0.015, 0.003, alpha, B)
        up = ParamVector(0.015, 0.003, alpha + 1e-5, B)
        dn = ParamVector(0.015, 0.003, alpha - 1e-5, B)
        v = intsupou_var(at, delta)
        assert abs(v / intsupou_var(up, delta) - 1.0) < 1e-3
        assert abs(v / intsupou_var(dn, delta) - 1.0) < 1e-3
        for h in (1, 3):
            c = intsupou_acov(at, delta, h)
            assert abs(c / intsupou_acov(up, delta, h) - 1.0) < 1e-3
            assert abs(c / intsupou_acov(dn, delta, h) - 1.0) < 1e-3

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_limit_agrees_with_oracle(self, alpha):
        beta = ParamVector(0.015, 0.003, alpha, -0.1)
        oracle = quadrature_moments(beta, ModelKind.INTEGRATED, 1.0, lags=[1, 4])
        assert_allclose(oracle.var, intsupou_var(beta, 1.0), rtol=1e-6)
        for h, value in oracle.acov.items():
            assert_allclose(value, intsupou_acov(beta, 1.0, h), rtol=1e-6)


    @pytest.mark.parametrize("alpha", [2.0 - 1e-6, 2.0 + 1e-4, 3.0 - 1e-6, 3.0 + 1e-3])
    @pytest.mark.parametrize("B,delta", [(-0.01, 0.5), (-2.0, 1.0)])
    def test_near_limit_agrees_with_oracle(self, alpha, B, delta):
        # the closed forms cancel here: at 1e-6 from 2 they lost 5 digits
        beta = ParamVector(0.015, 0.003, alpha, B)
        oracle = quadrature_moments(beta, ModelKind.INTEGRATED, delta, lags=[1, 5, 40])
        assert_allclose(intsupou_var(beta, delta), oracle.var, rtol=1e-9)
        for h, value in oracle.acov.items():
            assert_allclose(intsupou_acov(beta, delta, h), value, rtol=1e-9)


class TestSvMoments:
    def test_identities(self):
        assert sv_sqret_mean(BETA_SHORT, 1.0) == intsupou_mean(BETA_SHORT, 1.0)
        assert_allclose(sv_sqret_var(BETA_SHORT, 1.0), 3.0 / 220.0 + 0.005, rtol=1e-12)
        # acov is the integrated acov by construction, bitwise
        for h in range(1, 6):
            assert sv_sqret_acov(BETA_SHORT, 1.0, h) == intsupou_acov(BETA_SHORT, 1.0, h)

    def test_sqret_acov_hand_value(self):
        assert_allclose(sv_sqret_acov(BETA_SHORT, 1.0, 1), 0.00378788, rtol=1e-5)


class TestQuadratureOracle:
    def test_supou_oracle_hand_value(self):
        oracle = quadrature_moments(BETA_SHORT, ModelKind.SUPOU, lags=[1.0])
        assert_allclose(oracle.mean, 0.05, rtol=1e-8)
        assert_allclose(oracle.var, 0.005, rtol=1e-8)

    def test_integrated_oracle_hand_value(self):
        oracle = quadrature_moments(BETA_SHORT, ModelKind.INTEGRATED, 1.0, lags=[1])
        assert_allclose(oracle.var, 1.0 / 220.0, rtol=1e-8)
        assert_allclose(oracle.acov[1.0], 0.003 / 0.792, rtol=1e-8)

    def test_var_dominates_acov(self):
        for beta in (BETA_SHORT, BETA_LONG):
            oracle = quadrature_moments(beta, ModelKind.SUPOU, lags=[0.5, 2.0, 9.0])
            for value in oracle.acov.values():
                assert value < oracle.var

    def test_closed_forms_match_oracle_on_grid(self):
        alphas = [1.1, 1.5, 1.95, 2.5, 3.5, 8.0]
        Bs = [-2.0, -0.3, -0.01]
        for alpha, B, delta in itertools.product(alphas, Bs, (0.5, 1.0)):
            beta = ParamVector(0.015, 0.003, alpha, B)
            supou = quadrature_moments(beta, ModelKind.SUPOU, lags=[1.0, 5.0])
            assert_allclose(supou.mean, supou_mean(beta), rtol=1e-8)
            assert_allclose(supou.var, supou_var(beta), rtol=1e-8)
            for h, value in supou.acov.items():
                assert_allclose(value, supou_acov(beta, h), rtol=1e-8)
            integrated = quadrature_moments(beta, ModelKind.INTEGRATED, delta, lags=[1, 7])
            assert_allclose(integrated.mean, intsupou_mean(beta, delta), rtol=1e-8)
            assert_allclose(integrated.var, intsupou_var(beta, delta), rtol=1e-8)
            for h, value in integrated.acov.items():
                assert_allclose(value, intsupou_acov(beta, delta, h), rtol=1e-8)

    @pytest.mark.parametrize("alpha", [1.5, 4.0, 6.8])
    @pytest.mark.parametrize("B,delta", [(-0.0086, 1 / 78), (-0.0086, 1 / 390),
                                         (-2.5e-4, 1.0), (-1e-4, 0.5)])
    def test_small_B_delta_agrees_with_oracle(self, alpha, B, delta):
        # intraday spacing at a daily B, and the lower face of the fit box:
        # log(1 - B delta) without log1p lost up to 3.6e-7 here
        beta = ParamVector(0.015, 0.003, alpha, B)
        oracle = quadrature_moments(beta, ModelKind.INTEGRATED, delta, lags=[1, 5, 40])
        assert_allclose(intsupou_var(beta, delta), oracle.var, rtol=1e-8)
        for h, value in oracle.acov.items():
            assert_allclose(intsupou_acov(beta, delta, h), value, rtol=1e-8)

    @pytest.mark.parametrize("alpha,B,delta,lags", [
        (30.0, -1.0, 1.0, [1, 2, 5, 10, 20]),
        (10.81, -0.519, 5.0, [1, 2, 5, 10, 20, 40]),
    ])
    def test_fast_decay_agrees_with_oracle_at_long_lags(self, alpha, B, delta, lags):
        # the autocovariances fall by 35 and 17 decades from lag 1; second
        # differences of (1 - B delta h)^(3 - alpha) were off by a relative
        # 1.0 here from lag 5, and by 15 at lag 40
        beta = ParamVector(0.015, 0.003, alpha, B)
        oracle = quadrature_moments(beta, ModelKind.SV, delta, lags=lags)
        expected = [oracle.acov[float(h)] for h in lags]
        assert_allclose(intsupou_acov(beta, delta, np.array(lags, float)), expected, rtol=1e-10)
        assert_allclose(sv_sqret_acov(beta, delta, np.array(lags, float)), expected, rtol=1e-10)
        assert_allclose(sv_sqret_var(beta, delta), oracle.var, rtol=1e-10)

    @pytest.mark.parametrize("alpha", [208.0, 500.0, 1000.0])
    def test_large_alpha_finds_the_gamma_peak(self, alpha):
        # the Gamma(alpha, 1) mass sits in a narrow peak near r = alpha, far
        # out in the tail; daily-return scale parameters on the OU-limit ridge
        beta = ParamVector(6.1e-6, 1.4e-9, alpha, -2.5e-4)
        oracle = quadrature_moments(beta, ModelKind.INTEGRATED, 1.0, lags=[1, 5])
        assert_allclose(oracle.mean, intsupou_mean(beta, 1.0), rtol=1e-9)
        assert_allclose(oracle.var, intsupou_var(beta, 1.0), rtol=1e-9)
        for h, value in oracle.acov.items():
            assert_allclose(value, intsupou_acov(beta, 1.0, h), rtol=1e-9)


class TestParamVector:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(mu=0.015, sigma2=0.0, alpha_pi=4.0, B=-0.1),
            dict(mu=0.015, sigma2=-1.0, alpha_pi=4.0, B=-0.1),
            dict(mu=0.015, sigma2=0.003, alpha_pi=1.0, B=-0.1),
            dict(mu=0.015, sigma2=0.003, alpha_pi=4.0, B=0.0),
            dict(mu=0.015, sigma2=0.003, alpha_pi=4.0, B=0.2),
            dict(mu=float("nan"), sigma2=0.003, alpha_pi=4.0, B=-0.1),
        ],
    )
    def test_invariants_rejected(self, bad):
        with pytest.raises(ParameterError):
            ParamVector(**bad)
