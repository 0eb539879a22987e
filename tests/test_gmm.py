"""Moment functions, weighting, the minimizer, the initializer and the two-step procedure."""

import tracemalloc

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
    WeightingMatrixError,
    closed_form_init,
    default_conditions,
    demean,
    estimate_weighting,
    initial_estimate,
    minimize,
    objective,
    quadrature_moments,
    sample_moments,
    simulate_path,
    supou_acf,
    supou_mean,
    supou_var,
    transform,
    two_step_gmm,
    untransform,
)
from supou import gmm
from supou.gmm import PARAMETER_BOX, _WINDOW_BLOCK, _moment_jacobian, _moment_targets
from supou.moments import _int_acov_units, _int_unit_slopes, _int_var_unit

BETA = ParamVector(0.015, 0.003, 4.0, -0.1)
BETA_LONG = ParamVector(0.015, 0.003, 1.95, -0.1)
SUPOU_CONDS = default_conditions(ModelKind.SUPOU)
INT_CONDS = default_conditions(ModelKind.INTEGRATED)
SV_CONDS = default_conditions(ModelKind.SV)


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
    """sample_moments on one window of m+1 observations is the moment function."""

    def test_supou_at_stationary_mean(self):
        window = np.full(6, 0.05)
        f = sample_moments(window, BETA, SUPOU_CONDS)
        assert_allclose(f[0], 0.0, atol=1e-15)
        assert_allclose(f[1], -0.005, rtol=1e-12)

    def test_supou_mean_component(self):
        window = np.full(6, 0.06)
        f = sample_moments(window, BETA, SUPOU_CONDS)
        assert_allclose(f[0], 0.01, rtol=1e-12)

    def test_int_lag_component(self):
        window = np.full(6, 0.05)
        f = sample_moments(window, BETA, INT_CONDS)
        assert_allclose(f[2], 0.0025 - 0.0025 - 0.003 / 0.792, rtol=1e-10)

    def test_int_var_without_sigma(self):
        # covariance terms vanish linearly with sigma2
        tiny = ParamVector(0.015, 1e-14, 4.0, -0.1)
        window = np.full(6, 0.07)
        f = sample_moments(window, tiny, INT_CONDS)
        assert_allclose(f[1], 0.07**2 - 0.05**2, rtol=1e-9)

    def test_sv_mean_component_sign(self):
        window = np.zeros(SV_CONDS.m + 1)
        f = sample_moments(window, BETA, SV_CONDS)
        assert_allclose(f[0], -0.05, rtol=1e-12)

    def test_sv_zero_at_matching_square(self):
        window = np.full(SV_CONDS.m + 1, np.sqrt(0.05))
        f = sample_moments(window, BETA, SV_CONDS)
        assert_allclose(f[0], 0.0, atol=1e-15)

    def test_window_length_enforced(self):
        with pytest.raises(DataError):
            sample_moments(np.zeros(4), BETA, SUPOU_CONDS)

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
            assert_allclose(_moment_targets(beta, conds), expected, rtol=1e-10)


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
        conds = default_conditions(kind, delta)
        step = 1e-3
        worst = 0.0
        for alpha in JACOBIAN_ALPHAS:
            for B in JACOBIAN_BS:
                theta = transform(ParamVector(0.015, 0.003, alpha, float(B)))
                target = _moment_targets(untransform(theta), conds)
                jac = _moment_jacobian(untransform(theta), conds)
                assert np.all(np.isfinite(jac)), (alpha, B)
                for j in range(4):
                    def at(k):
                        return _moment_targets(untransform(theta + k * step * np.eye(4)[j]),
                                               conds)
                    fd = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)
                    worst = max(worst, float(np.max(np.abs(jac[:, j] - fd) / np.abs(target))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_unit_slopes_match_five_point_differences(self, delta):
        # relative to each unit value: the test above divides by the target,
        # about mean^2, so a wrong slope of a small autocovariance passes it;
        # alpha_pi = 30 puts lag 40 up to 54 decades below the variance
        lags = np.array(default_conditions(ModelKind.SV, delta).lags, dtype=float)
        step = 1e-4

        def units(alpha, B):
            return np.concatenate([[_int_var_unit(alpha, B, delta)],
                                   _int_acov_units(alpha, B, delta, lags)])

        worst = 0.0
        for alpha in JACOBIAN_ALPHAS + [30.0]:
            for B in JACOBIAN_BS:
                u, d_alpha, d_B = _int_unit_slopes(alpha, float(B), delta, lags)
                assert_allclose(u, units(alpha, float(B)), rtol=1e-12)
                for slope, at in (
                    (d_alpha, lambda k: units(1.0 + (alpha - 1.0) * np.exp(k * step), float(B))),
                    (d_B, lambda k: units(alpha, float(B) * np.exp(k * step))),
                ):
                    fd = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)
                    worst = max(worst, float(np.max(np.abs(slope - fd) / u)))
        assert worst <= 1e-6


class TestSampleMoments:
    def test_matches_window_average(self):
        x = simulated_supou(seed=7, n_obs=400)
        g = sample_moments(x, BETA, SUPOU_CONDS)
        m = SUPOU_CONDS.m
        products = [
            [w[0], w[0] ** 2] + [w[0] * w[h] for h in SUPOU_CONDS.lags]
            for w in (x[i:i + m + 1] for i in range(len(x) - m))
        ]
        explicit = np.mean(products, axis=0) - _moment_targets(BETA, SUPOU_CONDS)
        assert_allclose(g, explicit, rtol=1e-10, atol=1e-14)

    def test_single_window(self):
        x = np.arange(6.0) / 10.0 + 0.01
        g = sample_moments(x, BETA, SUPOU_CONDS)
        products = [x[0], x[0] ** 2, x[0] * x[1], x[0] * x[2], x[0] * x[4], x[0] * x[5]]
        assert_allclose(g, np.subtract(products, _moment_targets(BETA, SUPOU_CONDS)),
                        rtol=1e-12)

    def test_small_at_truth_on_simulated_path(self):
        g = sample_moments(simulated_supou(), BETA, SUPOU_CONDS)
        assert np.abs(g).max() < 5e-3

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            sample_moments(np.ones(5), BETA, SUPOU_CONDS)


def sv_returns(n_obs, seed=3):
    return demean(simulate_path(ModelKind.SV, LevySpec.from_moments(0.015, 0.003),
                                PiSpec.from_params(BETA), ObservationSchedule(1.0, n_obs),
                                SimulationConfig(seed=seed)).values)


def one_matrix_sums(x, beta, conditions):
    """Column means of the window products, and S = F'F/n of them centred at
    the targets of `beta`, from one (N-m) x d matrix of every window."""
    z = x * x if conditions.kind is ModelKind.SV else x
    n = z.size - conditions.m
    lead = z[:n]
    F = np.stack([lead, lead * lead, *(lead * z[h:h + n] for h in conditions.lags)]).T
    F_centred = F - _moment_targets(beta, conditions)
    return F.mean(axis=0), (F_centred.T @ F_centred) / n


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
        assert_array_equal(sample_moments(x, BETA, conditions),
                           means - _moment_targets(BETA, conditions))
        assert_array_equal(estimate_weighting(x, BETA, conditions),
                           weighting_from(S, conditions.d))

    @pytest.mark.parametrize("remainder", [7, 0])
    def test_blocks_and_a_remainder_agree_to_rounding(self, remainder):
        # two whole blocks, then a third of `remainder` windows if any
        x = sv_returns(2 * _WINDOW_BLOCK + remainder + SV_CONDS.m)
        res = two_step_gmm(x, ModelKind.SV)
        means, S = one_matrix_sums(x, res.step1_estimate, SV_CONDS)
        assert_allclose(gmm._window_means(x * x, SV_CONDS), means, rtol=1e-12)
        g2 = means - _moment_targets(res.step2_estimate, SV_CONDS)
        W = weighting_from(S, SV_CONDS.d)
        assert_allclose(res.step2_objective, float(g2 @ W @ g2), rtol=1e-10)

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
        g = sample_moments(x, BETA, SUPOU_CONDS)
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
        with pytest.raises(WeightingMatrixError):
            objective(x, BETA, -np.eye(6), SUPOU_CONDS)
        asym = np.eye(6)
        asym[0, 1] = 0.5
        with pytest.raises(WeightingMatrixError):
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
        F = np.column_stack(cols) - _moment_targets(BETA, SUPOU_CONDS)
        S = F.T @ F / n
        S += 1e-10 * np.trace(S) / 6 * np.eye(6)
        assert np.abs(S @ W - np.eye(6)).max() < 1e-8

    def test_constant_windows_outer_product(self, monkeypatch):
        # constant data makes every window's moment vector identical, so S is
        # the rank-one outer product and inversion relies on the ridge
        monkeypatch.setattr(gmm, "_RIDGE_SCALE", 1e-6)
        x = np.full(50, 0.05)
        W = estimate_weighting(x, BETA, SUPOU_CONDS)
        f = sample_moments(x[:6], BETA, SUPOU_CONDS)
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
        assert a.step2_objective == objective(x, a.step2_estimate, a.weighting, a.conditions)

    def test_weighting_scale_leaves_argmin(self):
        # scaling W leaves the minimizer unchanged on a fixed fixture
        x = simulated_supou(seed=17, n_obs=3000)
        res = two_step_gmm(x, ModelKind.SUPOU)
        W = res.weighting
        from supou.gmm import _estimation_series, _residuals

        base = gmm._window_means(_estimation_series(x, ModelKind.SUPOU), SUPOU_CONDS)
        theta0 = transform(res.step1_estimate)
        for lam in (1.0, 7.0):
            theta, stop = minimize(*_residuals(base, lam * W, SUPOU_CONDS), theta0, theta0)
            assert stop == "converged"
            if lam == 1.0:
                ref = theta
            else:
                assert_allclose(theta, ref, atol=1e-4)

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            two_step_gmm(np.ones(4), ModelKind.SUPOU)

    def test_constant_data_raises_initialization(self):
        with pytest.raises(InitializationError):
            two_step_gmm(np.full(100, 0.05), ModelKind.SUPOU)

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
        payload = res.to_dict(annualize_factor=250.0)
        assert list(payload)[:3] == ["model", "lags", "delta"]
        assert payload["model"] == "supou"
        assert payload["n_used"] == 1995
        assert payload["step2_stop"] == "converged" and payload["converged_step2"] is True
        annual = payload["step2_estimate_annualized"]
        assert_allclose(annual["mu"], 250.0 * payload["step2_estimate"]["mu"], rtol=1e-12)
        assert annual["alpha_pi"] == payload["step2_estimate"]["alpha_pi"]


# Cold-start fits (no start) of 20 paths of 10^4 observations, seeds 70000 + p,
# SV returns demeaned as `estimate` and `fit` do.  The supOU and integrated
# converged counts are what the earlier estimator (BFGS with perturbed
# restarts) reached on these paths; the SV count is one below what the
# default long-lag set reaches (19/20, against 14/20 with lags 1-5).  The
# alpha_pi bands are criterion 6's.
COLD_START_CASES = [
    (ModelKind.SUPOU, 4.0, 20, 0.15),
    (ModelKind.SUPOU, 1.95, 20, 0.20),
    (ModelKind.INTEGRATED, 4.0, 20, 0.15),
    (ModelKind.INTEGRATED, 1.95, 7, 0.20),
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
