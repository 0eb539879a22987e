"""Moment functions, weighting, the minimizer, the initializer and the two-step procedure."""

import numpy as np
import pytest
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
from supou.gmm import PARAMETER_BOX, _moment_targets

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

    def test_constant_windows_outer_product(self):
        # constant data makes every window's moment vector identical, so S is
        # the rank-one outer product and inversion relies on the ridge
        x = np.full(50, 0.05)
        W = estimate_weighting(x, BETA, SUPOU_CONDS, ridge_scale=1e-6)
        f = sample_moments(x[:6], BETA, SUPOU_CONDS)
        S = np.outer(f, f) + 1e-6 * (f @ f) / 6 * np.eye(6)
        assert_allclose(np.linalg.inv(S), W, rtol=1e-6)

    def test_singular_without_ridge(self):
        x = np.full(50, 0.05)
        with pytest.raises(Exception):
            estimate_weighting(x, BETA, SUPOU_CONDS, ridge_scale=0.0)


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


class TestMinimize:
    def test_exact_quadratic(self):
        target = np.array([0.3, -1.2, 2.0, 0.7])
        theta, stop = minimize(lambda th: th - target, np.array([5.0, 5.0, -5.0, 0.0]),
                               BOX_CENTER)
        assert stop == "converged"
        assert np.abs(theta - target).max() < 1e-8

    def test_rosenbrock_embedded(self):
        def rosen(th):
            return np.array([10.0 * (th[1] - th[0] ** 2), 1.0 - th[0], th[2], th[3]])

        theta, stop = minimize(rosen, np.array([-1.2, 1.0, 0.5, -0.5]), BOX_CENTER)
        assert stop == "converged"
        assert np.abs(theta[:2] - 1.0).max() < 1e-6

    def test_constant_objective(self):
        start = np.array([1.0, 2.0, 3.0, 4.0])
        theta, stop = minimize(lambda th: np.full(3, 3.14), start, BOX_CENTER)
        assert stop == "converged"
        assert_array_equal(theta, start)

    def test_non_finite_start_rejected(self):
        with pytest.raises(DomainError):
            minimize(lambda th: np.full(4, np.inf), np.zeros(4), BOX_CENTER)

    def test_non_finite_region_handled_by_shrinkage(self):
        # residuals blow up away from the origin; the trust region must cope
        def fenced(th):
            if np.abs(th).max() > 2.0:
                return np.full(4, np.inf)
            return th.copy()

        theta, stop = minimize(fenced, np.full(4, 1.9), BOX_CENTER)
        assert stop == "converged"
        assert np.abs(theta).max() < 1e-6

    def test_minimum_outside_box_stops_at_edge(self):
        target = np.array([0.3, PARAMETER_BOX + 4.0, -1.0, 0.0])
        theta, stop = minimize(lambda th: th - target, np.zeros(4), BOX_CENTER)
        assert stop == "at_box_edge"
        assert theta[1] == pytest.approx(PARAMETER_BOX)
        assert np.abs(np.delete(theta - target, 1)).max() < 1e-8

    def test_flat_ridge_toward_face_stops_at_edge(self):
        # the criterion keeps falling toward the lower face of coordinate 0 but
        # flattens, as along the OU-limit ridge in B, so trf stops just short
        # of the face, outside its active-bound tolerance
        def ridge(th):
            return np.array([1.0 + 1e-2 * np.exp(th[0]), th[1], th[2], th[3]])

        theta, stop = minimize(ridge, np.zeros(4), BOX_CENTER)
        assert theta[0] + PARAMETER_BOX < 1e-3
        assert stop == "at_box_edge"

    def test_minimum_just_inside_box_converges(self):
        target = np.array([0.0, 0.01 - PARAMETER_BOX, 0.0, 0.0])
        theta, stop = minimize(lambda th: th - target, np.zeros(4), BOX_CENTER)
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
        from supou.gmm import _estimation_series, _moment_columns, _residuals

        base = _moment_columns(_estimation_series(x, ModelKind.SUPOU), SUPOU_CONDS).mean(axis=0)
        theta0 = transform(res.step1_estimate)
        for lam in (1.0, 7.0):
            theta, stop = minimize(_residuals(base, lam * W, SUPOU_CONDS), theta0, theta0)
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
