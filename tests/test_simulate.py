"""Jump-stream simulation, exact evaluation/integration and SV returns."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from supou import (
    DomainError,
    JumpStream,
    LevySpec,
    ModelKind,
    ObservationSchedule,
    ParamVector,
    ParameterError,
    PiSpec,
    SimulationConfig,
    evaluate_supou,
    integrate_supou,
    intsupou_var,
    levy_moments,
    sample_jump_stream,
    simulate_path,
    simulate_sv_logreturns,
    supou_mean,
)

BETA = ParamVector(0.015, 0.003, 4.0, -0.1)
SPEC = LevySpec(rate=0.1, jump_shape=3.0, jump_rate=20.0)
PI = PiSpec.from_params(BETA)


def single_jump_stream(tau=0.0, size=1.0, rate=-0.5, window=(-1.0, 10.0)):
    return JumpStream(
        times=np.array([tau]),
        sizes=np.array([size]),
        rates=np.array([rate]),
        window_start=window[0],
        window_end=window[1],
    )


def empty_stream(window=(-1.0, 10.0)):
    e = np.empty(0)
    return JumpStream(e, e.copy(), e.copy(), window[0], window[1])


def dense_evaluate(stream, t, block=500):
    """X(t) from every jump born by t, with no cutoff at all."""
    out = np.empty(t.size)
    for i in range(0, t.size, block):
        dt = t[i:i + block, None] - stream.times[None, :]
        terms = np.exp(stream.rates * np.maximum(dt, 0.0)) * stream.sizes
        out[i:i + block] = np.where(dt >= 0.0, terms, 0.0).sum(axis=1)
    return out


def dense_integrate(stream, schedule, block=500):
    """V_n from every jump born before the interval's end, with no cutoff."""
    a_all = schedule.delta * np.arange(schedule.n_obs)
    out = np.empty(schedule.n_obs)
    for i in range(0, a_all.size, block):
        a = a_all[i:i + block, None]
        b = a + schedule.delta
        lo = np.maximum(a, stream.times[None, :])
        rates = stream.rates
        terms = (stream.sizes / rates * np.exp(rates * (lo - stream.times))
                 * np.expm1(rates * np.maximum(b - lo, 0.0)))
        out[i:i + block] = np.where(stream.times < b, terms, 0.0).sum(axis=1)
    return out


class TestLevySpec:
    def test_paper_setup_moments(self):
        assert levy_moments(SPEC) == (0.015, 0.003)

    def test_zero_rate(self):
        assert levy_moments(LevySpec(0.0, 1.0, 1.0)) == (0.0, 0.0)

    def test_exponential_jumps_second_moment(self):
        # E[U] = 1, E[U^2] = 2 for a unit exponential; checked by Monte Carlo
        mu, sigma2 = levy_moments(LevySpec(1.0, 1.0, 1.0))
        draws = np.random.default_rng(5).exponential(1.0, 1_000_000)
        assert_allclose(mu, draws.mean(), rtol=5e-3)
        assert_allclose(sigma2, (draws**2).mean(), rtol=5e-3)

    def test_from_moments_roundtrip(self):
        spec = LevySpec.from_moments(0.015, 0.003)
        assert_allclose(spec.rate, 0.1, rtol=1e-14)
        assert_allclose(spec.jump_rate, 20.0, rtol=1e-14)
        mu, sigma2 = levy_moments(spec)
        assert_allclose([mu, sigma2], [0.015, 0.003], rtol=1e-14)

    @pytest.mark.parametrize("shape", [0.0, -0.5])
    def test_from_moments_rejects_nonpositive_shape(self, shape):
        with pytest.raises(ParameterError):
            LevySpec.from_moments(0.015, 0.003, shape)


class TestJumpStream:
    def test_determinism(self):
        window = (-2000.0, 1000.0)
        a = sample_jump_stream(SPEC, PI, window, seed=7)
        b = sample_jump_stream(SPEC, PI, window, seed=7)
        assert_array_equal(a.times, b.times)
        assert_array_equal(a.sizes, b.sizes)
        assert_array_equal(a.rates, b.rates)
        c = sample_jump_stream(SPEC, PI, window, seed=8)
        assert not np.array_equal(a.times, c.times)

    def test_poisson_count_concentration(self):
        stream = sample_jump_stream(SPEC, PI, (0.0, 1e5), seed=3)
        assert abs(len(stream) - 1e4) <= 4.0 * math.sqrt(1e4)

    def test_mean_reversion_draws(self):
        stream = sample_jump_stream(SPEC, PI, (0.0, 1e6), seed=11)
        assert np.all(stream.rates < 0.0)
        n = len(stream)
        se = abs(BETA.B) * math.sqrt(BETA.alpha_pi) / math.sqrt(n)
        assert abs(stream.rates.mean() - BETA.B * BETA.alpha_pi) <= 4.0 * se

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            JumpStream(np.array([1.0, 0.5]), np.ones(2), -np.ones(2), 0.0, 2.0)
        with pytest.raises(DomainError):
            JumpStream(np.array([1.0]), np.array([-1.0]), np.array([-1.0]), 0.0, 2.0)
        with pytest.raises(DomainError):
            JumpStream(np.array([1.0]), np.array([1.0]), np.array([0.5]), 0.0, 2.0)
        with pytest.raises(DomainError):
            sample_jump_stream(SPEC, PI, (1.0, 1.0), seed=0)


class TestEvaluate:
    def test_single_jump(self):
        stream = single_jump_stream()
        assert_allclose(evaluate_supou(stream, [2.0]), [math.exp(-1.0)], rtol=1e-14)

    def test_empty_stream(self):
        assert_array_equal(evaluate_supou(empty_stream(), [0.0, 1.0, 2.0]), np.zeros(3))

    def test_before_jump_is_zero(self):
        stream = single_jump_stream(tau=5.0)
        assert_array_equal(evaluate_supou(stream, [1.0, 4.9]), np.zeros(2))

    def test_positivity(self):
        stream = sample_jump_stream(SPEC, PI, (-2000.0, 100.0), seed=2)
        values = evaluate_supou(stream, np.arange(1.0, 101.0))
        assert np.all(values > 0.0)

    def test_path_mean_near_theory(self):
        sched = ObservationSchedule(1.0, 10_000)
        path = simulate_path(ModelKind.SUPOU, SPEC, PI, sched, SimulationConfig(seed=11))
        x = path.values
        # crude standard error allowing for autocorrelation
        se = x.std() / math.sqrt(len(x)) * 4.0
        assert abs(x.mean() - supou_mean(BETA)) <= 3.0 * se

    def test_times_outside_window_rejected(self):
        stream = single_jump_stream(window=(0.0, 5.0))
        with pytest.raises(DomainError):
            evaluate_supou(stream, [-1.0])
        with pytest.raises(DomainError):
            evaluate_supou(stream, [6.0])


class TestKernelCutoff:
    """The jump sums against dense all-jumps references."""

    @pytest.mark.parametrize("alpha_pi", [1.1, 1.95, 4.0])
    def test_matches_dense_reference(self, alpha_pi):
        pi = PiSpec.from_params(ParamVector(0.015, 0.003, alpha_pi, -0.1))
        sched = ObservationSchedule(1.0, 10_000)
        stream = sample_jump_stream(SPEC, pi, (-2000.0, sched.horizon), seed=1)
        x = evaluate_supou(stream, sched.times())
        x_ref = dense_evaluate(stream, sched.times())
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
        v = integrate_supou(stream, sched).values
        v_ref = dense_integrate(stream, sched)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-12

    def test_mixed_magnitudes(self):
        # one old jump of size 1e12 among fast-decaying unit jumps: on [0, 100]
        # its exponent lies in [-49.5, -45], far below e^-40 of its own size,
        # yet between unit jumps it is most of the sum.  A cutoff on each
        # jump's own exponent drops it; a cutoff relative to the sum keeps it.
        unit_times = np.arange(5.0, 100.0, 15.0)
        stream = JumpStream(
            times=np.concatenate([[-1000.0], unit_times]),
            sizes=np.concatenate([[1e12], np.ones(unit_times.size)]),
            rates=np.concatenate([[-0.045], np.full(unit_times.size, -1.0)]),
            window_start=-1000.0,
            window_end=100.0,
        )
        t = np.linspace(0.0, 100.0, 2001)
        x = evaluate_supou(stream, t)
        x_ref = dense_evaluate(stream, t)
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
        sched = ObservationSchedule(0.5, 200)
        v = integrate_supou(stream, sched).values
        v_ref = dense_integrate(stream, sched)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-12


class TestIntegrate:
    def test_single_jump_closed_form(self):
        stream = single_jump_stream(window=(-1.0, 2.0))
        sample = integrate_supou(stream, ObservationSchedule(1.0, 1))
        assert_allclose(sample.values, [2.0 * (1.0 - math.exp(-0.5))], rtol=1e-14)

    def test_empty_stream(self):
        sample = integrate_supou(empty_stream(), ObservationSchedule(1.0, 5))
        assert_array_equal(sample.values, np.zeros(5))

    def test_consecutive_intervals_sum(self):
        # integral over [0, 2] must equal the sum of the two unit integrals
        stream = sample_jump_stream(SPEC, PI, (-500.0, 10.0), seed=9)
        unit = integrate_supou(stream, ObservationSchedule(1.0, 2)).values
        double = integrate_supou(stream, ObservationSchedule(2.0, 1)).values
        assert_allclose(unit.sum(), double[0], rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha_pi", [1.1, 1.95, 4.0])
    def test_matches_per_jump_reference(self, alpha_pi, seed):
        pi = PiSpec.from_params(ParamVector(0.015, 0.003, alpha_pi, -0.1))
        drawn = sample_jump_stream(SPEC, pi, (-2000.0, 60.0), seed=seed)
        # one extra jump exactly on the interval edge t = 30
        at = int(np.searchsorted(drawn.times, 30.0))
        stream = JumpStream(
            times=np.insert(drawn.times, at, 30.0),
            sizes=np.insert(drawn.sizes, at, 0.2),
            rates=np.insert(drawn.rates, at, -0.3),
            window_start=drawn.window_start,
            window_end=drawn.window_end,
        )
        values = integrate_supou(stream, ObservationSchedule(1.0, 60)).values
        reference = []
        for a in range(60):
            b = a + 1.0
            terms = []
            for tau, u, rate in zip(stream.times, stream.sizes, stream.rates):
                if tau < b:
                    lo = max(a, tau)
                    terms.append(u / rate * math.exp(rate * (lo - tau))
                                 * math.expm1(rate * (b - lo)))
            reference.append(math.fsum(terms))
        assert_allclose(values, reference, rtol=1e-14, atol=0.0)

    def test_long_path_variance(self):
        sched = ObservationSchedule(1.0, 10_000)
        path = simulate_path(ModelKind.INTEGRATED, SPEC, PI, sched, SimulationConfig(seed=11))
        assert abs(path.values.var() / intsupou_var(BETA, 1.0) - 1.0) < 0.15
        assert np.all(path.values > 0.0)


class TestSvReturns:
    def test_zero_volatility_gives_zero_returns(self):
        sched = ObservationSchedule(1.0, 50)
        config = SimulationConfig(seed=4)
        sample = simulate_sv_logreturns(empty_stream((-10.0, 60.0)), sched, config)
        assert_array_equal(sample.values, np.zeros(50))

    def test_squared_mean_near_theory(self):
        sched = ObservationSchedule(1.0, 10_000)
        path = simulate_path(ModelKind.SV, SPEC, PI, sched, SimulationConfig(seed=21))
        y = path.values
        y2 = y * y
        se2 = y2.std() / math.sqrt(len(y)) * 4.0
        assert abs(y2.mean() - 0.05) <= 3.0 * se2

    def test_returns_uncorrelated(self):
        sched = ObservationSchedule(1.0, 10_000)
        path = simulate_path(ModelKind.SV, SPEC, PI, sched, SimulationConfig(seed=22))
        y = path.values - path.values.mean()
        acov1 = float(y[:-1] @ y[1:]) / len(y)
        se = float(np.std(y[:-1] * y[1:])) / math.sqrt(len(y) - 1)
        assert abs(acov1) <= 3.0 * se

    def test_determinism(self):
        sched = ObservationSchedule(1.0, 200)
        a = simulate_path(ModelKind.SV, SPEC, PI, sched, SimulationConfig(seed=33))
        b = simulate_path(ModelKind.SV, SPEC, PI, sched, SimulationConfig(seed=33))
        assert_array_equal(a.values, b.values)

    def test_exact_given_volatility(self):
        # given the jumps, Y_n = sqrt(V_n) Z_n with V_n the interval integrals
        # and Z_n the seed's Brownian substream, bit for bit
        sched = ObservationSchedule(1.0, 500)
        stream = sample_jump_stream(SPEC, PI, (-2000.0, sched.horizon), seed=44)
        sample = simulate_sv_logreturns(stream, sched, SimulationConfig(seed=44))
        shocks = np.random.default_rng(
            np.random.SeedSequence(44, spawn_key=(1,))).standard_normal(500)
        expected = np.sqrt(integrate_supou(stream, sched).values) * shocks
        assert_array_equal(sample.values, expected)


class TestTruncation:
    def test_lead_2000_vs_4000(self):
        sched = ObservationSchedule(1.0, 1000)
        full = sample_jump_stream(SPEC, PI, (-4000.0, sched.horizon), seed=5)
        truncated = full.truncated(-2000.0)
        x_full = evaluate_supou(full, sched.times())
        x_trunc = evaluate_supou(truncated, sched.times())
        rel = np.max(np.abs(x_full - x_trunc) / np.abs(x_full))
        assert rel < 1e-8


class TestPathSample:
    def test_deterministic_per_seed_and_concurrent_seeding(self):
        sched = ObservationSchedule(1.0, 100)
        paths = [
            simulate_path(ModelKind.SUPOU, SPEC, PI, sched, SimulationConfig(seed=100 + p))
            for p in range(3)
        ]
        again = [
            simulate_path(ModelKind.SUPOU, SPEC, PI, sched, SimulationConfig(seed=100 + p))
            for p in (2, 0, 1)
        ]
        assert_array_equal(paths[2].values, again[0].values)
        assert_array_equal(paths[0].values, again[1].values)
        assert_array_equal(paths[1].values, again[2].values)
