"""Moment functions, weighting, the minimizer, the initializer and the two-step procedure."""

import math
import sys
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from supou import (
    DataError,
    DomainError,
    InitializationError,
    LevySpec,
    ModelKind,
    MomentConditionSet,
    ObservationSchedule,
    ParamVector,
    PiSpec,
    SimulationConfig,
    SingularWeightingError,
    closed_form_init,
    default_conditions,
    demean,
    estimate_weighting,
    minimize,
    objective,
    quadrature_moments,
    simulate_path,
    supou_acf,
    supou_mean,
    supou_var,
    transform,
    two_step_gmm,
    untransform,
)
from supou import gmm
from supou.gmm import (
    PARAMETER_BOX, _WINDOW_BLOCK, _model_columns, _moment_targets, _profile, initial_estimate,
)
from supou.moments import (
    _int_unit_slopes,
    _supou_unit_slopes,
    intsupou_acov,
    intsupou_var,
    supou_acov,
)

BETA = ParamVector(0.015, 0.003, 4.0, -0.1)
BETA_LONG = ParamVector(0.015, 0.003, 1.95, -0.1)
SUPOU_CONDS = default_conditions(ModelKind.SUPOU)
INT_CONDS = default_conditions(ModelKind.INTEGRATED)
SV_CONDS = default_conditions(ModelKind.SV)


def shape_model(conditions):
    """`_model_columns` at `conditions`, as a function of the shape (alpha_pi, B)."""
    return partial(_model_columns, conditions=conditions)


def targets(beta, conditions):
    return _moment_targets(beta, shape_model(conditions))


def mean_moments(data, beta, conditions):
    """The sample moments of `objective`: the moment function averaged over
    all N-m sliding windows, which on a window of m+1 observations is the
    moment function itself."""
    z = gmm._estimation_series(data, conditions.kind)
    return gmm._window_moments(z, conditions).mean - targets(beta, conditions)


def simulated_supou(seed=42, n_obs=10_000):
    spec = LevySpec(0.1, 3.0, 20.0)
    pi = PiSpec.from_params(BETA)
    sched = ObservationSchedule(1.0, n_obs)
    return simulate_path(ModelKind.SUPOU, spec, pi, sched, SimulationConfig(seed=seed)).values


class TestMomentConditionSet:
    def test_dimensions(self):
        conds = MomentConditionSet(ModelKind.SUPOU, (1, 2, 4, 5))
        assert conds.m == 5 and conds.d == 6
        assert default_conditions(ModelKind.SV).lags == (1, 2, 3, 4, 5, 10, 20, 40)
        assert default_conditions(ModelKind.INTEGRATED).lags == (1, 2, 3, 4, 5)
        assert MomentConditionSet(ModelKind.SUPOU, (1.0, 2.0)).lags == (1, 2)

    def test_bad_lags(self):
        for lags in [(), (2, 1), (0, 1), (1,), (5,), (1, 2.5)]:
            with pytest.raises(DomainError):
                MomentConditionSet(ModelKind.SUPOU, lags)


class TestMomentFunctions:
    """The sample moments on one window of m+1 observations are the moment function."""

    def test_supou_at_stationary_mean(self):
        window = np.full(6, 0.05)
        f = mean_moments(window, BETA, SUPOU_CONDS)
        assert_allclose(f[0], 0.0, atol=1e-15)
        assert_allclose(f[1], -0.005, rtol=1e-12)

    def test_supou_mean_component(self):
        window = np.full(6, 0.06)
        f = mean_moments(window, BETA, SUPOU_CONDS)
        assert_allclose(f[0], 0.01, rtol=1e-12)

    def test_int_lag_component(self):
        window = np.full(6, 0.05)
        f = mean_moments(window, BETA, INT_CONDS)
        assert_allclose(f[2], 0.0025 - 0.0025 - 0.003 / 0.792, rtol=1e-10)

    def test_int_var_without_sigma(self):
        # covariance terms vanish linearly with sigma2
        tiny = ParamVector(0.015, 1e-14, 4.0, -0.1)
        window = np.full(6, 0.07)
        f = mean_moments(window, tiny, INT_CONDS)
        assert_allclose(f[1], 0.07**2 - 0.05**2, rtol=1e-9)

    def test_sv_mean_component_sign(self):
        window = np.zeros(SV_CONDS.m + 1)
        f = mean_moments(window, BETA, SV_CONDS)
        assert_allclose(f[0], -0.05, rtol=1e-12)

    def test_sv_zero_at_matching_square(self):
        window = np.full(SV_CONDS.m + 1, np.sqrt(0.05))
        f = mean_moments(window, BETA, SV_CONDS)
        assert_allclose(f[0], 0.0, atol=1e-15)

    def test_window_length_enforced(self):
        with pytest.raises(DataError):
            mean_moments(np.zeros(4), BETA, SUPOU_CONDS)

    @pytest.mark.parametrize(
        "conds,kind",
        [(SUPOU_CONDS, ModelKind.SUPOU), (INT_CONDS, ModelKind.INTEGRATED),
         (SV_CONDS, ModelKind.SV)],
    )
    def test_expectation_zero_at_truth(self, conds, kind):
        # E g(window, beta) = 0 at the truth: the subtracted targets equal the
        # expected products, computed here by the independent quadrature
        # oracle, with E z^2 = var z + (E z)^2 (for SV, E Y^4 = var Y^2 + (E Y^2)^2)
        for beta in (BETA, BETA_LONG, ParamVector(6.1e-6, 1.4e-9, 6.8, -0.0086)):
            q = quadrature_moments(beta, kind, conds.delta, lags=conds.lags)
            expected = [q.mean, q.var + q.mean**2]
            expected += [q.mean**2 + q.acov[float(h)] for h in conds.lags]
            assert_allclose(targets(beta, conds), expected, rtol=1e-10)


# the criterion-1 grid, plus alpha_pi at and around the removable
# singularities of the integrated formulas
JACOBIAN_ALPHAS = sorted(
    {1.1, 1.45, 1.8, 1.95, 2.2, 2.6, 3.4, 4.7, 6.2, 8.0}
    | {k + s * e for k in (2.0, 3.0) for e in (0.0, 1e-9, 1e-6, 1e-4, 1e-2) for s in (-1, 1)}
)
JACOBIAN_BS = np.linspace(-2.0, -0.01, 10)


class TestMomentJacobian:
    @pytest.mark.parametrize("delta", [0.5, 1.0])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_five_point_differences(self, kind, delta):
        # the two shape columns: the slopes of sigma2 w in (log(alpha_pi - 1),
        # log(-B)), which are those of the targets at fixed m and sigma2
        conds = default_conditions(kind, delta)
        step = 1e-3
        worst = 0.0
        for alpha in JACOBIAN_ALPHAS:
            for B in JACOBIAN_BS:
                beta = ParamVector(0.015, 0.003, alpha, float(B))
                target = targets(beta, conds)
                slopes = beta.sigma2 * _model_columns(alpha, float(B), conds)[1][:, 3:]
                assert np.all(np.isfinite(slopes)), (alpha, B)
                shape = np.log([alpha - 1.0, -B])
                for j in range(2):
                    def at(k):
                        a, b = np.exp(shape + k * step * np.eye(2)[j])
                        return beta.sigma2 * _model_columns(1.0 + a, -b, conds)[1][:, 2]
                    fd = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)
                    worst = max(worst, float(np.max(np.abs(slopes[:, j] - fd) / np.abs(target))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_unit_slopes_match_five_point_differences(self, delta):
        # relative to each unit value: the test above divides by the target,
        # about mean^2, so a wrong slope of a small autocovariance passes it;
        # alpha_pi = 30 puts lag 40 up to 54 decades below the variance
        lags = np.array(default_conditions(ModelKind.SV, delta).lags, dtype=float)
        step = 1e-4

        def supou_units(beta):
            return supou_acov(beta, np.concatenate(([0.0], lags * delta)))

        def int_units(beta):
            return np.concatenate([[intsupou_var(beta, delta)], intsupou_acov(beta, delta, lags)])

        # each unit function and the public closed forms it gives at sigma2 = 1
        for slopes, public in (
            (lambda alpha, B: _supou_unit_slopes(alpha, B, lags * delta), supou_units),
            (lambda alpha, B: _int_unit_slopes(alpha, B, delta, lags), int_units),
        ):
            worst = 0.0
            for alpha in JACOBIAN_ALPHAS + [30.0]:
                for B in JACOBIAN_BS:
                    u, d_alpha, d_B = slopes(alpha, float(B))
                    assert_allclose(u, public(ParamVector(1.0, 1.0, alpha, float(B))), rtol=1e-12)
                    for slope, at in (
                        (d_alpha, lambda k: slopes(1.0 + (alpha - 1.0) * np.exp(k * step),
                                                   float(B))[0]),
                        (d_B, lambda k: slopes(alpha, float(B) * np.exp(k * step))[0]),
                    ):
                        fd = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)
                        worst = max(worst, float(np.max(np.abs(slope - fd) / u)))
            assert worst <= 1e-6, public.__name__


def profile_fixture(kind):
    """A simulated path of `kind` (demeaned for SV), its window means b and
    the default conditions."""
    x = simulate_path(kind, LevySpec(0.1, 3.0, 20.0), PiSpec.from_params(BETA),
                      ObservationSchedule(1.0, 3000), SimulationConfig(seed=11)).values
    x = demean(x) if kind is ModelKind.SV else x
    conds = default_conditions(kind)
    return x, gmm._window_moments(gmm._estimation_series(x, kind), conds).mean, conds


def random_profiles(base, conds, rng, n=15):
    """(W, theta, profiled estimate, residuals, Jacobian, residual function)
    at random shapes and random SPD W scaled to the moments."""
    for _ in range(n):
        A = rng.standard_normal((conds.d, conds.d))
        W = (A @ A.T + conds.d * np.eye(conds.d)) / np.outer(base, base)
        theta = np.log([rng.uniform(0.5, 5.0), rng.uniform(0.03, 0.3)])
        evaluate, fn, _ = _profile(base, W, shape_model(conds))
        beta, r, J, on_face = evaluate(theta)
        assert beta is not None and not on_face, theta
        yield W, theta, beta, r, J, fn


class TestProfile:
    """mu and sigma2 are profiled out in closed form at each shape."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_profiled_scale_is_the_minimum(self, kind):
        # the criterion at the profiled estimate is `objective` there, and
        # moving m (through mu) or sigma2 by 1e-6 relative never lowers it
        x, base, conds = profile_fixture(kind)
        for W, _, beta, r, _, _ in random_profiles(base, conds, np.random.default_rng(1)):
            value = objective(x, beta, W, conds)
            assert r @ r == pytest.approx(value, rel=1e-12)
            for name in ("mu", "sigma2"):
                for factor in (1.0 - 1e-6, 1.0 + 1e-6):
                    moved = replace(beta, **{name: factor * getattr(beta, name)})
                    assert objective(x, moved, W, conds) >= value

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_gradient_matches_five_point_differences(self, kind):
        # Kaufman's Jacobian gives the exact gradient J'r of the profiled
        # criterion |r|^2 / 2
        _, base, conds = profile_fixture(kind)
        step = 1e-4
        for _, theta, _, r, J, fn in random_profiles(base, conds, np.random.default_rng(2)):
            def half_sum(t):
                res = fn(t)
                return 0.5 * res @ res

            fd = [(half_sum(theta - 2 * e) - 8 * half_sum(theta - e) + 8 * half_sum(theta + e)
                   - half_sum(theta + 2 * e)) / (12 * step) for e in step * np.eye(2)]
            gradient = J.T @ r
            assert np.max(np.abs(gradient - fd)) <= 1e-7 * np.max(np.abs(gradient))

    @pytest.mark.parametrize("base", [
        [1.0, 0.5, 0.5, 0.5, 0.5, 0.5],  # second moments below the squared mean
        [-1.0, 2.0, 1.0, 1.0, 1.0, 1.0],  # a negative mean
        [1.05, 1.09, 1.03, 1.0, 1.01, 1.04],
    ])
    def test_profile_is_the_least_criterion_over_positive_scales(self, base):
        # at each shape and W the profiled criterion is no more than that
        # of any m > 0 on a grid, each with its best sigma2 > 0, also where
        # the best fit is on a face and the stationary points inside are not
        base = np.array(base)
        rng = np.random.default_rng(3)
        for W in [np.eye(6)] + [A @ A.T + np.eye(6) for A in rng.standard_normal((4, 6, 6))]:
            for theta in np.log([[3.0, 0.1], [0.95, 0.1], [0.5, 1.0], [5.0, 0.01]]):
                evaluate, fn, _ = _profile(base, W, shape_model(SUPOU_CONDS))
                beta, r, _, on_face = evaluate(theta)
                assert np.all(np.isfinite(r))
                k, columns = _model_columns(beta.alpha_pi, beta.B, SUPOU_CONDS)
                Lt = np.linalg.cholesky(W).T
                v = Lt @ columns[:, 2]
                for m in np.geomspace(1e-4, 1e2, 2001):
                    p = Lt @ (base - columns[:, :2] @ (m, m * m))
                    fit = p - max(v @ p / (v @ v), 0.0) * v
                    assert r @ r <= fit @ fit * (1.0 + 1e-12)
                # a face stands at the least normal float (mu = m / k may be subnormal)
                assert on_face == (min(beta.mu * k, beta.sigma2) < 2.0 * sys.float_info.min)

    def test_gradient_on_the_face_m_0(self):
        # a negative mean puts the best m on its face, with sigma2 inside:
        # there J'r is still the gradient of the profiled criterion
        A = np.random.default_rng(5).standard_normal((6, 6))
        evaluate, fn, _ = _profile(np.array([-1.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
                                   A @ A.T + np.eye(6), shape_model(SUPOU_CONDS))
        step = 1e-4
        for theta in np.log([[3.0, 0.1], [0.95, 0.1], [0.5, 1.0], [5.0, 0.01]]):
            beta, r, J, on_face = evaluate(theta)
            assert on_face and beta.sigma2 > 0.1

            def half_sum(t):
                res = fn(t)
                return 0.5 * res @ res

            fd = [(half_sum(theta - 2 * e) - 8 * half_sum(theta - e) + 8 * half_sum(theta + e)
                   - half_sum(theta + 2 * e)) / (12 * step) for e in step * np.eye(2)]
            assert np.max(np.abs(J.T @ r - fd)) <= 1e-7 * np.max(np.abs(J.T @ r))

    def test_no_positive_scale_is_a_flat_face(self):
        # no sigma2 > 0 fits at any shape: the fit is on the face sigma2 = 0,
        # where the targets and so the criterion do not depend on the shape
        evaluate, fn, jac = _profile(np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5]), np.eye(6),
                                     shape_model(SUPOU_CONDS))
        beta, r, J, on_face = evaluate(np.log([3.0, 0.1]))
        assert on_face and beta.sigma2 == sys.float_info.min
        assert np.all(np.abs(J) <= 1e-300)
        assert fn(np.log([0.5, 1.0])) @ fn(np.log([0.5, 1.0])) == pytest.approx(r @ r)

    def test_an_infeasible_step_2_start_is_a_boundary_fit(self):
        # with W = I the best sigma2 at the start shape is > 0, with this W
        # it is not, as can happen when step 2 starts at the step-1 shape:
        # its residuals are finite, and the fit from there ends on the face
        base = np.array([1.05, 1.09, 1.03, 1.0, 1.01, 1.04])
        W2 = np.diag([4.5, 0.4, 0.05, 5.9, 1.2, 0.2])
        theta = np.log([3.0, 0.1])
        assert not _profile(base, np.eye(6), shape_model(SUPOU_CONDS))[0](theta)[3]
        evaluate, *fit = _profile(base, W2, shape_model(SUPOU_CONDS))
        assert evaluate(theta)[3]
        theta2, _ = minimize(*fit, theta, theta)
        beta, r, _, on_face = evaluate(theta2)
        assert on_face and np.all(np.isfinite(r))


class TestSampleMoments:
    def test_matches_window_average(self):
        x = simulated_supou(seed=7, n_obs=400)
        g = mean_moments(x, BETA, SUPOU_CONDS)
        m = SUPOU_CONDS.m
        products = [
            [w[0], w[0] ** 2] + [w[0] * w[h] for h in SUPOU_CONDS.lags]
            for w in (x[i:i + m + 1] for i in range(len(x) - m))
        ]
        explicit = np.mean(products, axis=0) - targets(BETA, SUPOU_CONDS)
        assert_allclose(g, explicit, rtol=1e-10, atol=1e-14)

    def test_single_window(self):
        x = np.arange(6.0) / 10.0 + 0.01
        g = mean_moments(x, BETA, SUPOU_CONDS)
        products = [x[0], x[0] ** 2, x[0] * x[1], x[0] * x[2], x[0] * x[4], x[0] * x[5]]
        assert_allclose(g, np.subtract(products, targets(BETA, SUPOU_CONDS)),
                        rtol=1e-12)

    def test_small_at_truth_on_simulated_path(self):
        g = mean_moments(simulated_supou(), BETA, SUPOU_CONDS)
        assert np.abs(g).max() < 5e-3

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            mean_moments(np.ones(5), BETA, SUPOU_CONDS)


def sv_returns(n_obs, seed=3):
    return demean(simulate_path(ModelKind.SV, LevySpec.from_moments(0.015, 0.003),
                                PiSpec.from_params(BETA), ObservationSchedule(1.0, n_obs),
                                SimulationConfig(seed=seed)).values)


def window_matrix(x, conditions):
    """The (N-m) x d matrix F of the products of every window."""
    z = x * x if conditions.kind is ModelKind.SV else x
    n = z.size - conditions.m
    lead = z[:n]
    return np.stack([lead, lead * lead, *(lead * z[h:h + n] for h in conditions.lags)]).T


def one_matrix_sums(x, beta, conditions):
    """Column means b of the window products, and their S at the targets t of
    `beta` as (F-b)'(F-b)/n + (b-t)(b-t)', from one matrix of every window."""
    F = window_matrix(x, conditions)
    b = F.mean(axis=0)
    F_centred = F - b
    deviation = b - targets(beta, conditions)
    return b, (F_centred.T @ F_centred) / F.shape[0] + np.outer(deviation, deviation)


def weighting_from(S, d):
    """`estimate_weighting`'s ridge, symmetrization and Cholesky inverse of S."""
    S = S + (gmm._RIDGE_SCALE * np.trace(S) / d) * np.eye(d)
    S = 0.5 * (S + S.T)
    W = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), np.eye(d))
    return 0.5 * (W + W.T)


class TestWindowBlocks:
    """The moment sums walk the windows in blocks of _WINDOW_BLOCK."""

    @pytest.mark.parametrize("n_windows", [1000, _WINDOW_BLOCK])
    @pytest.mark.parametrize("conditions", [SUPOU_CONDS, SV_CONDS], ids=["supou", "sv"])
    def test_one_block_is_the_one_matrix_arithmetic(self, conditions, n_windows):
        x = sv_returns(n_windows + conditions.m)
        if conditions.kind is ModelKind.SUPOU:
            x = x + 0.05
        means, S = one_matrix_sums(x, BETA, conditions)
        assert_array_equal(mean_moments(x, BETA, conditions),
                           means - targets(BETA, conditions))
        assert_array_equal(estimate_weighting(x, BETA, conditions),
                           weighting_from(S, conditions.d))

    @pytest.mark.parametrize("remainder", [7, 0])
    def test_blocks_and_a_remainder_agree_to_rounding(self, remainder):
        # two whole blocks, then a third of `remainder` windows if any
        x = sv_returns(2 * _WINDOW_BLOCK + remainder + SV_CONDS.m)
        res = two_step_gmm(x, ModelKind.SV)
        means, S = one_matrix_sums(x, res.step1_estimate, SV_CONDS)
        assert_allclose(gmm._window_moments(x * x, SV_CONDS).mean, means, rtol=1e-12)
        g2 = means - targets(res.step2_estimate, SV_CONDS)
        W = weighting_from(S, SV_CONDS.d)
        assert_allclose(res.step2_objective, float(g2 @ W @ g2), rtol=1e-10)

    # a remainder of 1 is a last block of one window: its scatter is zero and
    # only its between-block term remains; ids without one are a remainder of 7
    @pytest.mark.parametrize("conditions, remainder", [
        (SUPOU_CONDS, 7), (SV_CONDS, 7), (SUPOU_CONDS, 0), (SV_CONDS, 0),
        (SUPOU_CONDS, 1), (SV_CONDS, 1),
    ], ids=["supou", "sv", "supou-0", "sv-0", "supou-1", "sv-1"])
    def test_merged_blocks_give_the_direct_weighting(self, conditions, remainder):
        # three whole blocks and a remainder: the covariance merged over the
        # blocks, plus (b-t)(b-t)', against the direct sum of (F-t)(F-t)'
        x = sv_returns(3 * _WINDOW_BLOCK + remainder + conditions.m)
        if conditions.kind is ModelKind.SUPOU:
            x = x + 0.05
        W = estimate_weighting(x, BETA, conditions)
        F_centred = window_matrix(x, conditions) - targets(BETA, conditions)
        direct = weighting_from(F_centred.T @ F_centred / F_centred.shape[0], conditions.d)
        assert np.abs(W - direct).max() <= 1e-13 * np.abs(direct).max()
        z = gmm._estimation_series(x, conditions.kind)
        summary = gmm._window_moments(z, conditions)
        assert summary.n == F_centred.shape[0]
        assert_array_equal(estimate_weighting(summary, BETA, conditions), W)

    def test_gmm_holds_a_few_copies_of_a_long_series(self):
        x = sv_returns(400_000)
        tracemalloc.start()
        try:
            two_step_gmm(x, ModelKind.SV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one matrix of all windows is d = 10 copies of the series by itself
        assert peak < 5 * x.nbytes


class TestObjective:
    def test_zero_and_identity(self):
        x = simulated_supou(seed=3, n_obs=200)
        g = mean_moments(x, BETA, SUPOU_CONDS)
        value = objective(x, BETA, np.eye(6), SUPOU_CONDS)
        assert_allclose(value, float(g @ g), rtol=1e-14)
        assert value >= 0.0

    def test_scale_equivariance(self):
        x = simulated_supou(seed=3, n_obs=500)
        v1 = objective(x, BETA, np.eye(6), SUPOU_CONDS)
        v3 = objective(x, BETA, 3.0 * np.eye(6), SUPOU_CONDS)
        assert_allclose(v3, 3.0 * v1, rtol=1e-14)

    def test_non_pd_rejected(self):
        x = simulated_supou(seed=3, n_obs=200)
        with pytest.raises(DomainError, match="positive definite"):
            objective(x, BETA, -np.eye(6), SUPOU_CONDS)
        asym = np.eye(6)
        asym[0, 1] = 0.5
        with pytest.raises(DomainError, match="symmetric"):
            objective(x, BETA, asym, SUPOU_CONDS)


class TestEstimateWeighting:
    def test_rank_one_needs_ridge(self):
        x = np.arange(6.0) + 1.0  # exactly one window
        with pytest.raises(DataError):
            estimate_weighting(x, BETA, SUPOU_CONDS)

    def test_pd_inverse_on_simulated_path(self):
        x = simulated_supou()
        W = estimate_weighting(x, BETA, SUPOU_CONDS)
        assert_allclose(W, W.T, rtol=1e-12)
        np.linalg.cholesky(W)
        # rebuild S and check W is its inverse to 1e-8
        m = SUPOU_CONDS.m
        n = len(x) - m
        lead = x[:n]
        cols = [lead, lead**2] + [lead * x[h:h + n] for h in SUPOU_CONDS.lags]
        F = np.column_stack(cols) - targets(BETA, SUPOU_CONDS)
        S = F.T @ F / n
        S += 1e-10 * np.trace(S) / 6 * np.eye(6)
        assert np.abs(S @ W - np.eye(6)).max() < 1e-8

    def test_constant_windows_outer_product(self, monkeypatch):
        # constant data makes every window's moment vector identical, so S is
        # the rank-one outer product and inversion relies on the ridge
        monkeypatch.setattr(gmm, "_RIDGE_SCALE", 1e-6)
        x = np.full(50, 0.05)
        W = estimate_weighting(x, BETA, SUPOU_CONDS)
        f = mean_moments(x, BETA, SUPOU_CONDS)
        S = np.outer(f, f) + 1e-6 * (f @ f) / 6 * np.eye(6)
        assert_allclose(np.linalg.inv(S), W, rtol=1e-6)

    def test_singular_without_ridge(self, monkeypatch):
        monkeypatch.setattr(gmm, "_RIDGE_SCALE", 0.0)
        x = np.full(50, 0.05)
        with pytest.raises(SingularWeightingError):
            estimate_weighting(x, BETA, SUPOU_CONDS)


class TestTransform:
    def test_hand_values(self):
        theta = transform(BETA)
        assert_allclose(theta, np.log([0.015, 0.003, 3.0, 0.1]) * [1, 1, 1, 1])
        assert untransform(np.zeros(4)) == ParamVector(1.0, 1.0, 2.0, -1.0)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            transform(ParamVector(0.0, 0.003, 4.0, -0.1))

    @given(st.tuples(*[st.floats(-20.0, 20.0) for _ in range(4)]))
    @settings(max_examples=200, deadline=None)
    def test_untransform_always_valid_and_roundtrips(self, theta):
        beta = untransform(np.array(theta))
        assert beta.sigma2 > 0.0 and beta.alpha_pi > 1.0 and beta.B < 0.0
        # the alpha_pi coordinate passes through 1 + exp(.), which rounds
        assert_allclose(transform(beta), theta, rtol=1e-9, atol=1e-6)


BOX_CENTER = np.zeros(4)


def identity_jac(th):
    return np.eye(4)


class TestMinimize:
    def test_exact_quadratic(self):
        target = np.array([0.3, -1.2, 2.0, 0.7])
        theta, stop = minimize(lambda th: th - target, identity_jac,
                               np.array([5.0, 5.0, -5.0, 0.0]), BOX_CENTER)
        assert stop == "converged"
        assert np.abs(theta - target).max() < 1e-8

    def test_rosenbrock_embedded(self):
        def rosen(th):
            return np.array([10.0 * (th[1] - th[0] ** 2), 1.0 - th[0], th[2], th[3]])

        def rosen_jac(th):
            jac = np.eye(4)
            jac[0, :2] = -20.0 * th[0], 10.0
            jac[1, :2] = -1.0, 0.0
            return jac

        theta, stop = minimize(rosen, rosen_jac, np.array([-1.2, 1.0, 0.5, -0.5]), BOX_CENTER)
        assert stop == "converged"
        assert np.abs(theta[:2] - 1.0).max() < 1e-6

    def test_constant_objective(self):
        start = np.array([1.0, 2.0, 3.0, 4.0])
        theta, stop = minimize(lambda th: np.full(3, 3.14), lambda th: np.zeros((3, 4)),
                               start, BOX_CENTER)
        assert stop == "converged"
        assert_array_equal(theta, start)

    def test_non_finite_start_rejected(self):
        with pytest.raises(DomainError):
            minimize(lambda th: np.full(4, np.inf), identity_jac, np.zeros(4), BOX_CENTER)

    def test_finite_difference_scheme_rejected(self):
        with pytest.raises(TypeError):
            minimize(lambda th: th, "3-point", np.zeros(4), BOX_CENTER)

    def test_non_finite_region_handled_by_shrinkage(self):
        # residuals blow up away from the origin; the trust region must cope
        def fenced(th):
            if np.abs(th).max() > 2.0:
                return np.full(4, np.inf)
            return th.copy()

        theta, stop = minimize(fenced, identity_jac, np.full(4, 1.9), BOX_CENTER)
        assert stop == "converged"
        assert np.abs(theta).max() < 1e-6

    def test_minimum_outside_box_stops_at_edge(self):
        target = np.array([0.3, PARAMETER_BOX + 4.0, -1.0, 0.0])
        theta, stop = minimize(lambda th: th - target, identity_jac, np.zeros(4), BOX_CENTER)
        assert stop == "at_box_edge"
        assert theta[1] == pytest.approx(PARAMETER_BOX)
        assert np.abs(np.delete(theta - target, 1)).max() < 1e-8

    def test_flat_ridge_toward_face_stops_at_edge(self):
        # the criterion keeps falling toward the lower face of coordinate 0 but
        # flattens, as along the OU-limit ridge in B, so trf stops just short
        # of the face, outside its active-bound tolerance
        def ridge(th):
            return np.array([1.0 + 1e-2 * np.exp(th[0]), th[1], th[2], th[3]])

        def ridge_jac(th):
            jac = np.eye(4)
            jac[0, 0] = 1e-2 * np.exp(th[0])
            return jac

        theta, stop = minimize(ridge, ridge_jac, np.zeros(4), BOX_CENTER)
        assert theta[0] + PARAMETER_BOX < 1e-3
        assert stop == "at_box_edge"

    def test_minimum_just_inside_box_converges(self):
        target = np.array([0.0, 0.01 - PARAMETER_BOX, 0.0, 0.0])
        theta, stop = minimize(lambda th: th - target, identity_jac, np.zeros(4), BOX_CENTER)
        assert stop == "converged"
        assert_allclose(theta, target, atol=1e-8)


class TestClosedFormInit:
    @pytest.mark.parametrize("beta", [BETA, BETA_LONG, ParamVector(6.1e-6, 1.4e-9, 6.8, -0.0086)])
    def test_exact_recovery(self, beta):
        recovered = closed_form_init(
            supou_mean(beta),
            supou_var(beta),
            float(supou_acf(beta, 1.0)),
            float(supou_acf(beta, 2.0)),
            1.0,
            2.0,
        )
        assert np.abs(recovered.as_array() - beta.as_array()).max() < 1e-10

    def test_equal_rhos_rejected(self):
        with pytest.raises(InitializationError):
            closed_form_init(0.05, 0.005, 0.7, 0.7, 1.0, 2.0)

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(InitializationError):
            closed_form_init(0.05, 0.005, 1.2, 0.5, 1.0, 2.0)
        with pytest.raises(InitializationError):
            closed_form_init(0.05, 0.005, 0.5, 0.7, 1.0, 2.0)

    def test_inconsistent_decay_rejected(self):
        # acf dropping faster than any power of (1 - B h) has no solution
        with pytest.raises(InitializationError):
            closed_form_init(0.05, 0.005, 0.9, 0.1, 1.0, 2.0)


class TestInitialEstimate:
    def test_matches_first_two_moments_on_simulated_path(self):
        # the (alpha, B) pair from a two-lag acf inversion is noisy by nature;
        # the mean and variance equations are matched tightly at whatever
        # shape it picked
        x = simulated_supou()
        start = initial_estimate(x, SUPOU_CONDS)
        assert_allclose(supou_mean(start), x.mean(), rtol=1e-9)
        assert_allclose(supou_var(start), x.var(), rtol=1e-9)

    def test_degenerate_data_raises(self):
        with pytest.raises(InitializationError):
            initial_estimate(np.full(100, 0.05), SUPOU_CONDS)


class TestTwoStepGmm:
    def test_monotone_versus_truth_start(self):
        x = simulated_supou(seed=99, n_obs=2000)
        res = two_step_gmm(x, ModelKind.SUPOU, start=BETA)
        start_value = objective(x, BETA, np.eye(6), SUPOU_CONDS)
        assert res.step1_objective <= start_value
        assert res.step2_objective >= 0.0
        assert res.n_used == 1995

    def test_recovery_on_one_path(self):
        x = simulated_supou(seed=1234)
        res = two_step_gmm(x, ModelKind.SUPOU)
        assert res.converged_step2
        est = res.step2_estimate
        assert abs(est.mu / BETA.mu - 1.0) < 0.25
        assert abs(est.sigma2 / BETA.sigma2 - 1.0) < 0.25
        assert abs(est.B / BETA.B - 1.0) < 0.6
        assert abs(est.alpha_pi / BETA.alpha_pi - 1.0) < 0.6

    def test_determinism(self):
        x = simulated_supou(seed=5, n_obs=3000)
        a = two_step_gmm(x, ModelKind.SUPOU)
        b = two_step_gmm(x, ModelKind.SUPOU)
        assert a.step2_estimate == b.step2_estimate
        assert a.step1_objective == b.step1_objective
        # the reported criteria are the public objective at the estimates
        assert a.step1_objective == objective(x, a.step1_estimate, np.eye(6), a.conditions)
        W = estimate_weighting(x, a.step1_estimate, a.conditions)
        assert a.step2_objective == objective(x, a.step2_estimate, W, a.conditions)

    def test_weighting_scale_leaves_argmin(self):
        # scaling W leaves the minimizing shape unchanged on a fixed fixture
        x = simulated_supou(seed=17, n_obs=3000)
        res = two_step_gmm(x, ModelKind.SUPOU)
        W = estimate_weighting(x, res.step1_estimate, res.conditions)
        from supou.gmm import _estimation_series

        base = gmm._window_moments(_estimation_series(x, ModelKind.SUPOU), SUPOU_CONDS).mean
        theta0 = np.log([res.step1_estimate.alpha_pi - 1.0, -res.step1_estimate.B])
        for lam in (1.0, 7.0):
            _, *fit = _profile(base, lam * W, shape_model(SUPOU_CONDS))
            theta, stop = minimize(*fit, theta0, theta0)
            assert theta.shape == (2,) and stop == "converged"
            if lam == 1.0:
                ref = theta
            else:
                assert_allclose(theta, ref, atol=1e-4)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_model_evaluation_per_theta(self, kind, monkeypatch):
        # trf asks for the Jacobian at the theta of its last residuals, and
        # that call reuses their evaluation; step 2 starts at the step-1 shape
        # and the objectives are at both estimates, which reuse theirs too.
        # Counted where the benchmark counts evaluations, no shape reaches the
        # moments twice in a call, but for `estimate_weighting`'s public
        # recomputation at the step-1 estimate.
        x = simulate_path(kind, LevySpec(0.1, 3.0, 20.0), PiSpec.from_params(BETA),
                          ObservationSchedule(1.0, 3000), SimulationConfig(seed=11)).values
        shapes, weighed, starts, jac_calls = [], [], [], []
        weighting, fit = gmm.estimate_weighting, gmm.minimize

        def counted(mean):
            def counted_mean(unit, *args):
                shapes.append((unit.alpha_pi, unit.B))
                return mean(unit, *args)
            return counted_mean

        def counted_weighting(data, beta1, conditions):
            before = len(shapes)
            result = weighting(data, beta1, conditions)
            weighed.extend(shapes[before:])
            del shapes[before:]
            return result

        def counted_fit(residuals, jac, theta0, center):
            def counted_jac(theta):
                before = len(shapes)
                result = jac(theta)
                jac_calls.append(len(shapes) - before)  # model evaluations in this call
                return result

            starts.append(theta0)
            return fit(residuals, counted_jac, theta0, center)

        monkeypatch.setattr(gmm, "supou_mean", counted(gmm.supou_mean))
        monkeypatch.setattr(gmm, "intsupou_mean", counted(gmm.intsupou_mean))
        monkeypatch.setattr(gmm, "estimate_weighting", counted_weighting)
        monkeypatch.setattr(gmm, "minimize", counted_fit)
        res = two_step_gmm(demean(x) if kind is ModelKind.SV else x, kind)
        assert len(starts) == 2 and len(jac_calls) >= 2 and not any(jac_calls)
        assert weighed == [(res.step1_estimate.alpha_pi, res.step1_estimate.B)]
        assert shapes and len(set(shapes)) == len(shapes)
        # the start is checked at the shape that step 1 evaluates first, not
        # at the cold-start shape an ulp away from it
        assert shapes[0] == (1.0 + math.exp(starts[0][0]), -math.exp(starts[0][1]))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_pass_over_the_data(self, kind, monkeypatch):
        # the series is validated and squared once: step 2's weighting is
        # built from the window summary of step 1
        x = simulate_path(kind, LevySpec(0.1, 3.0, 20.0), PiSpec.from_params(BETA),
                          ObservationSchedule(1.0, 3000), SimulationConfig(seed=11)).values
        calls = []
        series = gmm._estimation_series

        def counted_series(data, kind):
            calls.append(kind)
            return series(data, kind)

        monkeypatch.setattr(gmm, "_estimation_series", counted_series)
        two_step_gmm(demean(x) if kind is ModelKind.SV else x, kind)
        assert calls == [kind]

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            two_step_gmm(np.ones(4), ModelKind.SUPOU)

    def test_a_start_the_formulas_cannot_evaluate_is_a_domain_error(self):
        # the lags times delta overflow, whatever the shape
        x = simulated_supou(seed=3, n_obs=200)
        conditions = default_conditions(ModelKind.SUPOU, delta=1e308)
        with pytest.raises(DomainError, match=r"^delta=1e\+308 is out of range at the start "
                                              r"alpha_pi=4\.0\d*, B=-0\.10*\d*: "):
            two_step_gmm(x, ModelKind.SUPOU, conditions=conditions, start=BETA)

    def test_constant_data_raises_initialization(self):
        with pytest.raises(InitializationError):
            two_step_gmm(np.full(100, 0.05), ModelKind.SUPOU)

    def test_no_scale_at_the_start_is_a_boundary_fit(self):
        # iid normal returns have E y^4 about 3 (E y^2)^2 and no
        # autocorrelation: at the start shape the best sigma2 is on its
        # face, which is reported as a boundary fit, not an error
        y = 0.01 * np.random.default_rng(0).standard_normal(5000)
        res = two_step_gmm(y, ModelKind.SV)
        assert res.step1_stop == "at_box_edge" and not res.converged_step2
        assert res.step1_estimate.sigma2 == sys.float_info.min
        assert res.step1_objective == objective(y, res.step1_estimate, np.eye(10),
                                                res.conditions)

    def test_dispersion_check_takes_huge_means(self):
        # squaring 1e-12 * mean overflowed a Python float above a mean of 1e166
        from supou.gmm import _require_dispersion

        with pytest.raises(InitializationError):
            _require_dispersion(1e200, 1e300)
        _require_dispersion(1e150, 1e300)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflowing_magnitude_is_a_data_error(self, kind):
        x = 1e100 * (1.0 + 0.1 * np.random.default_rng(1).random(300))
        with pytest.raises(DataError, match="too large in magnitude"):
            two_step_gmm(x, kind)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(DomainError):
            two_step_gmm(np.ones(100), ModelKind.SV, conditions=SUPOU_CONDS)

    def test_json_dict_fields(self):
        x = simulated_supou(seed=5, n_obs=2000)
        res = two_step_gmm(x, ModelKind.SUPOU)
        payload = res.to_dict()
        assert list(payload)[:3] == ["model", "lags", "delta"]
        assert payload["model"] == "supou"
        assert payload["n_used"] == 1995
        assert payload["step2_stop"] == "converged" and payload["converged_step2"] is True


# Cold-start fits (no start) of 20 paths of 10^4 observations, seeds 70000 + p,
# SV returns demeaned as `estimate` and `fit` do.  The floors are the converged
# counts that the shape search reaches on these paths: all 20 for supOU and
# the integrated process, 18 for SV.  The alpha_pi bands are criterion 6's.
COLD_START_CASES = [
    (ModelKind.SUPOU, 4.0, 20, 0.15),
    (ModelKind.SUPOU, 1.95, 20, 0.20),
    (ModelKind.INTEGRATED, 4.0, 20, 0.15),
    (ModelKind.INTEGRATED, 1.95, 20, 0.20),
    (ModelKind.SV, 1.95, 18, 0.20),
]


class TestColdStartRecovery:
    @pytest.mark.parametrize(
        "kind,alpha,min_converged,band", COLD_START_CASES,
        ids=["supou-4", "supou-1.95", "integrated-4", "integrated-1.95", "sv-1.95"],
    )
    def test_recovery_without_start(self, kind, alpha, min_converged, band):
        beta = ParamVector(0.015, 0.003, alpha, -0.1)
        spec = LevySpec.from_moments(beta.mu, beta.sigma2)
        pi = PiSpec.from_params(beta)
        sched = ObservationSchedule(1.0, 10_000)
        paths = [simulate_path(kind, spec, pi, sched, SimulationConfig(seed=70_000 + p)).values
                 for p in range(20)]
        results = [two_step_gmm(demean(x) if kind is ModelKind.SV else x, kind) for x in paths]
        converged = sum(res.converged_step2 for res in results)
        at_edge = sum(res.step2_stop == "at_box_edge" for res in results)
        median_alpha = float(np.median([res.step2_estimate.alpha_pi for res in results]))
        print(f"cold start {kind.value} alpha_pi={alpha}: converged {converged}/20 "
              f"(>= {min_converged}), at_box_edge {at_edge}, median alpha_pi {median_alpha:.4f}")
        assert converged >= min_converged
        assert abs(median_alpha / alpha - 1.0) <= band


class TestSvEstimation:
    def test_sv_recovery_smoke(self):
        spec = LevySpec(0.1, 3.0, 20.0)
        pi = PiSpec.from_params(BETA)
        sched = ObservationSchedule(1.0, 10_000)
        y = simulate_path(ModelKind.SV, spec, pi, sched, SimulationConfig(seed=77)).values
        res = two_step_gmm(demean(y), ModelKind.SV, start=BETA)
        est = res.step2_estimate
        assert abs(est.mu / BETA.mu - 1.0) < 0.4
        assert abs(est.sigma2 / BETA.sigma2 - 1.0) < 0.6

    def test_robust_to_jump_law(self):
        # exponential jumps (Gamma shape 1) with the same first two moments
        # of the Levy process: the estimator is semiparametric and should
        # not care
        spec = LevySpec.from_moments(BETA.mu, BETA.sigma2, jump_shape=1.0)
        pi = PiSpec.from_params(BETA)
        sched = ObservationSchedule(1.0, 10_000)
        x = simulate_path(ModelKind.SUPOU, spec, pi, sched, SimulationConfig(seed=31)).values
        res = two_step_gmm(x, ModelKind.SUPOU, start=BETA)
        est = res.step2_estimate
        assert abs(est.mu / BETA.mu - 1.0) < 0.25
        assert abs(est.sigma2 / BETA.sigma2 - 1.0) < 0.35
