"""Jump-stream simulation, exact evaluation/integration and SV returns."""

import math
import warnings

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


def row_sums(terms, exact):
    # math.fsum rounds each row's sum once, so an exact reference's error is
    # that of its terms alone
    return np.array([math.fsum(row) for row in terms.tolist()]) if exact else terms.sum(axis=1)


def dense_evaluate(stream, t, block=500, exact=False):
    """X(t) from every jump born by t, with no cutoff at all; summed exactly if `exact`."""
    out = np.empty(t.size)
    for i in range(0, t.size, block):
        dt = t[i:i + block, None] - stream.times[None, :]
        terms = np.exp(stream.rates * np.maximum(dt, 0.0)) * stream.sizes
        out[i:i + block] = row_sums(np.where(dt >= 0.0, terms, 0.0), exact)
    return out


def dense_integrate(stream, schedule, intervals=None, block=500, exact=False):
    """V_n from every jump born before the interval's end, with no cutoff.

    For the intervals n in `intervals` (0-based, all by default), summed
    exactly if `exact`.  They end at the edges delta * n as
    `integrate_supou` computes them: a jump born within an ulp of an edge
    makes V_n sensitive to that ulp, so a + delta, which can differ from it
    by one, is not used.
    """
    edges = schedule.delta * np.arange(schedule.n_obs + 1)
    k = np.arange(schedule.n_obs) if intervals is None else np.asarray(intervals)
    out = np.empty(k.size)
    for i in range(0, k.size, block):
        a = edges[k[i:i + block], None]
        b = edges[k[i:i + block] + 1, None]
        lo = np.maximum(a, stream.times[None, :])
        rates = stream.rates
        terms = (stream.sizes / rates * np.exp(rates * (lo - stream.times))
                 * np.expm1(rates * np.maximum(b - lo, 0.0)))
        out[i:i + block] = row_sums(np.where(stream.times < b, terms, 0.0), exact)
    return out


class TestLevySpec:
    def test_zero_rate(self):
        with pytest.raises(ParameterError):
            LevySpec(0.0, 1.0, 1.0)

    def test_from_moments_roundtrip(self):
        spec = LevySpec.from_moments(0.015, 0.003)
        assert_allclose(spec.rate, 0.1, rtol=1e-14)
        assert_allclose(spec.jump_rate, 20.0, rtol=1e-14)

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

    def test_seeded_values_pinned(self):
        # literal draws of seed 7: the 8 jumps born before the window enter
        # at its start, then the first jumps born inside it
        stream = sample_jump_stream(SPEC, PI, (-2000.0, 1000.0), seed=7)
        assert len(stream) == 253
        assert_array_equal(stream.times[:9], [-2000.0] * 8 + [-1988.02658960082])
        assert_array_equal(stream.times[9:11], [-1987.344608232454, -1965.7650497728005])
        assert_array_equal(stream.sizes[:3], [7.089269641159885e-12, 1.0768580545236943e-12,
                                              1.3388676479596478e-07])
        assert_array_equal(stream.sizes[8:11], [0.35535051868612255, 0.06965430470794078,
                                                0.20600712355108064])
        assert_array_equal(stream.rates[:3], [-0.3350639966999796, -0.6132293077704998,
                                              -0.32236126386368535])
        assert_array_equal(stream.rates[8:11], [-0.3867216067162272, -0.21586420675308823,
                                                -0.2417264854368568])

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
        # ties are allowed: the jumps born before the window share its start
        JumpStream(np.zeros(2), np.ones(2), -np.ones(2), 0.0, 2.0)
        with pytest.raises(DomainError):
            JumpStream(np.array([1.0, 0.5]), np.ones(2), -np.ones(2), 0.0, 2.0)
        with pytest.raises(DomainError):
            JumpStream(np.array([1.0]), np.array([-1.0]), np.array([-1.0]), 0.0, 2.0)
        with pytest.raises(DomainError):
            JumpStream(np.array([1.0]), np.array([1.0]), np.array([0.5]), 0.0, 2.0)
        with pytest.raises(DomainError):
            sample_jump_stream(SPEC, PI, (1.0, 1.0), seed=0)
        # every order and sign comparison is False for a nan, and inf passes
        # the sign checks, so these are rejected by name, not by those checks
        for field, value in (("times", np.nan), ("sizes", np.nan), ("rates", np.nan),
                             ("sizes", np.inf), ("rates", -np.inf)):
            triple = {"times": np.ones(1), "sizes": np.ones(1), "rates": -np.ones(1)}
            triple[field] = np.array([value])
            with pytest.raises(DomainError, match=f"jump {field} must be finite"):
                JumpStream(**triple, window_start=0.0, window_end=2.0)
        # `t < bound` is False for a nan bound, so the times' and the
        # evaluators' window checks let it through; the window is checked itself
        for window in ((np.nan, np.nan), (np.nan, 10.0), (10.0, -10.0), (0.0, np.inf),
                       (-np.inf, 2.0)):
            with pytest.raises(DomainError, match="window must be finite with start < end"):
                JumpStream(np.ones(1), np.ones(1), -np.ones(1), *window)
            with pytest.raises(DomainError, match="window must be finite with start < end"):
                empty_stream(window)


class TestEvaluate:
    def test_single_jump(self):
        stream = single_jump_stream()
        x = evaluate_supou(stream, ObservationSchedule(2.0, 1)).values
        assert_allclose(x, [math.exp(-1.0)], rtol=1e-14)

    def test_empty_stream(self):
        assert_array_equal(evaluate_supou(empty_stream(), ObservationSchedule(1.0, 3)).values,
                           np.zeros(3))

    def test_before_jump_is_zero(self):
        stream = single_jump_stream(tau=5.0)
        assert_array_equal(evaluate_supou(stream, ObservationSchedule(1.0, 4)).values, np.zeros(4))

    def test_positivity(self):
        stream = sample_jump_stream(SPEC, PI, (-2000.0, 100.0), seed=2)
        values = evaluate_supou(stream, ObservationSchedule(1.0, 100)).values
        assert np.all(values > 0.0)

    def test_path_mean_near_theory(self):
        sched = ObservationSchedule(1.0, 10_000)
        path = simulate_path(ModelKind.SUPOU, SPEC, PI, sched, SimulationConfig(seed=11))
        x = path.values
        # crude standard error allowing for autocorrelation
        se = x.std() / math.sqrt(len(x)) * 4.0
        assert abs(x.mean() - supou_mean(BETA)) <= 3.0 * se

    def test_times_outside_window_rejected(self):
        stream = single_jump_stream(tau=3.0, window=(2.0, 5.0))
        with pytest.raises(DomainError):
            evaluate_supou(stream, ObservationSchedule(1.0, 1))
        with pytest.raises(DomainError):
            evaluate_supou(stream, ObservationSchedule(6.0, 1))


class TestKernelCutoff:
    """The jump sums against dense all-jumps references."""

    @pytest.mark.parametrize("alpha_pi", [1.1, 1.95, 4.0])
    def test_matches_dense_reference(self, alpha_pi):
        pi = PiSpec.from_params(ParamVector(0.015, 0.003, alpha_pi, -0.1))
        sched = ObservationSchedule(1.0, 10_000)
        stream = sample_jump_stream(SPEC, pi, (-2000.0, sched.horizon), seed=1)
        x = evaluate_supou(stream, sched).values
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
        grid = ObservationSchedule(0.05, 2000)
        x = evaluate_supou(stream, grid).values
        x_ref = dense_evaluate(stream, grid.times())
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
        sched = ObservationSchedule(0.5, 200)
        v = integrate_supou(stream, sched).values
        v_ref = dense_integrate(stream, sched)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-12

    def test_tied_jumps(self):
        # 300 old jumps born at one time with one size and rate under one slow
        # dominant jump: their values at a chunk's start are all equal, so
        # the cutoff keeps or drops the whole group.  At the fifth chunk's
        # start they sum to 2.5e-15 of its floor, so a cutoff that drops the
        # smallest values while their sum stays below 1e-15 of it would split
        # the group there; it is kept whole in the first five chunks and
        # dropped whole after.
        tied = 300
        stream = JumpStream(
            times=np.concatenate([[-10.0], np.zeros(tied)]),
            sizes=np.ones(tied + 1),
            rates=np.concatenate([[-0.001], np.full(tied, -0.01085)]),
            window_start=-10.0,
            window_end=10_000.0,
        )
        sched = ObservationSchedule(1.0, 10_000)
        x = evaluate_supou(stream, sched).values
        x_ref = dense_evaluate(stream, sched.times())
        share = tied * np.exp(-0.00985 * sched.times() + 0.01)
        assert share[0] > 1.0 and share[-1] < 1e-30
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
        v = integrate_supou(stream, sched).values
        v_ref = dense_integrate(stream, sched)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-12

    @pytest.mark.parametrize("alpha_pi", [1.1, 1.95])
    def test_long_path(self, alpha_pi):
        # 10^5 times, about 98 chunks, where the jumps born before each chunk
        # pile up into the thousands and the cutoff drops most of them; the
        # dense sums are taken at about 2,100 times and intervals: every 50th,
        # the last of each chunk and the last
        sched = ObservationSchedule(1.0, 100_000)
        pi = PiSpec.from_params(ParamVector(0.015, 0.003, alpha_pi, -0.1))
        stream = sample_jump_stream(SPEC, pi, (-2000.0, sched.horizon), seed=3)
        k = np.unique(np.concatenate([np.arange(0, sched.n_obs, 50),
                                      np.arange(1023, sched.n_obs, 1024), [sched.n_obs - 1]]))
        x = evaluate_supou(stream, sched).values[k]
        x_ref = dense_evaluate(stream, sched.times()[k])
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
        v = integrate_supou(stream, sched).values[k]
        v_ref = dense_integrate(stream, sched, k)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-12

    @pytest.mark.parametrize("alpha_pi", [1.1, 1.95])
    def test_long_path_exact_sums(self, alpha_pi):
        # the paths of test_long_path against sums rounded once, at about 400
        # times: the first and last of each chunk, every 500th and the last.
        # The kernel's error read at most 1.8e-15 on seeds 1-3 at alpha_pi
        # 1.1 and 1.95; a cutoff at 1e-15 of the floor without the 1 / old
        # reads 6.8e-15 or more at 1.1, which test_long_path's 1e-12 lets pass
        sched = ObservationSchedule(1.0, 100_000)
        pi = PiSpec.from_params(ParamVector(0.015, 0.003, alpha_pi, -0.1))
        stream = sample_jump_stream(SPEC, pi, (-2000.0, sched.horizon), seed=3)
        k = np.unique(np.concatenate([np.arange(0, sched.n_obs, 1024),
                                      np.arange(1023, sched.n_obs, 1024),
                                      np.arange(0, sched.n_obs, 500), [sched.n_obs - 1]]))
        x = evaluate_supou(stream, sched).values[k]
        x_ref = dense_evaluate(stream, sched.times()[k], exact=True)
        assert np.max(np.abs(x - x_ref) / x_ref) <= 4e-15
        v = integrate_supou(stream, sched).values[k]
        v_ref = dense_integrate(stream, sched, k, exact=True)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 4e-15

    def test_tied_tiny_jumps(self):
        # 3,000 old jumps, each 1e-17 of a dominant jump born with them at
        # the same rate: 3e-14 of every sum.  With old = 3,001 each is above
        # 1e-15 / old of the floor and kept, but below 1e-13 / old of it, so
        # a cutoff 100 times too loose drops them all.  They come before the
        # dominant jump, so a product that adds the terms in order sums them
        # first; listed after it, they gave 4.6e-15 under OpenBLAS, the tiny
        # terms being added one by one to the dominant one
        tied = 3000
        stream = JumpStream(
            times=np.full(tied + 1, -10.0),
            sizes=np.concatenate([np.full(tied, 1e-17), [1.0]]),
            rates=np.full(tied + 1, -0.001),
            window_start=-10.0,
            window_end=5000.0,
        )
        sched = ObservationSchedule(1.0, 5000)
        k = np.unique(np.concatenate([np.arange(0, sched.n_obs, 97),
                                      np.arange(1023, sched.n_obs, 1024)]))
        x = evaluate_supou(stream, sched).values[k]
        x_ref = dense_evaluate(stream, sched.times()[k], exact=True)
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-14
        v = integrate_supou(stream, sched).values[k]
        v_ref = dense_integrate(stream, sched, k, exact=True)
        assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-14


class TestGridKernel:
    """The block kernel at the edges of its rows and chunks, against dense references."""

    @pytest.mark.parametrize("B", [-0.1, -1.0])
    @pytest.mark.parametrize("n", [1, 20, 1000, 2500])
    @pytest.mark.parametrize("step", [0.05, 1.0, 7.0])
    def test_matches_dense_reference(self, step, n, B):
        sched = ObservationSchedule(step, n)
        drawn = sample_jump_stream(SPEC, PiSpec(1.95, B), (-2000.0, sched.horizon), seed=n)
        # extra jumps exactly on grid times step * k: an arbitrary one, and the
        # starts of the second and third rows of 32 and of the second chunk of
        # 1024, for both grids (evaluate_supou's times start at k = 1,
        # integrate_supou's left edges at k = 0)
        on_grid = step * np.array([k for k in (3, 32, 33, 64, 65, 1024, 1025) if k <= n],
                                  dtype=float)
        times = np.concatenate([drawn.times, on_grid])
        order = np.argsort(times, kind="stable")
        stream = JumpStream(
            times=times[order],
            sizes=np.concatenate([drawn.sizes, np.full(on_grid.size, 0.2)])[order],
            rates=np.concatenate([drawn.rates, np.full(on_grid.size, 3.0 * B)])[order],
            window_start=drawn.window_start,
            window_end=drawn.window_end,
        )
        x = evaluate_supou(stream, sched).values
        x_ref = dense_evaluate(stream, sched.times())
        assert np.all(x_ref > 0.0)
        assert np.max(np.abs(x - x_ref) / x_ref) <= 1e-12
        v = integrate_supou(stream, sched).values
        v_ref = dense_integrate(stream, sched)
        assert np.all(v_ref > 0.0)
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

    def test_seeded_values_pinned(self):
        sched = ObservationSchedule(1.0, 200)
        path = simulate_path(ModelKind.SV, SPEC, PI, sched, SimulationConfig(seed=33))
        assert_array_equal(path.values[:5], [
            0.023116281540679063, -0.03344823852649957, 0.005004377551483813,
            -0.0040465367236763835, -0.1623768737015056,
        ])

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


class TestStationaryStart:
    """The jumps born before the window, drawn from their exact law."""

    def test_mean_at_start_is_stationary(self):
        # without them X(1) would be about 0.41 of the stationary mean here
        beta = ParamVector(0.015, 0.003, 1.1, -0.1)
        spec = LevySpec.from_moments(beta.mu, beta.sigma2)
        pi = PiSpec.from_params(beta)
        x1 = np.array([
            evaluate_supou(sample_jump_stream(spec, pi, (-2000.0, 1.0), seed),
                           ObservationSchedule(1.0, 1)).values[0]
            for seed in range(400)
        ])
        se = x1.std(ddof=1) / math.sqrt(x1.size)
        assert abs(x1.mean() - supou_mean(beta)) <= 3.0 * se

    def test_alpha_near_one(self):
        # R ~ Gamma(0.01, 1) underflows to 0 in about 5.7e-4 of numpy's draws;
        # every rate must still be negative, and nothing may warn
        beta = ParamVector(0.015, 0.003, 1.01, -0.1)
        spec = LevySpec.from_moments(beta.mu, beta.sigma2)
        expected = spec.rate * math.log(1e15) / (0.1 * 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(5):
                stream = sample_jump_stream(spec, PiSpec.from_params(beta), (0.0, 10.0), seed)
                before = stream.times == 0.0
                assert np.all(stream.rates < 0.0)
                assert abs(before.sum() - expected) <= 4.0 * math.sqrt(expected)
                assert np.all(stream.sizes[before] > 0.0)

    def test_expected_count_bounded(self):
        # too many in the window, too many born before it, infinitely many
        with pytest.raises(DomainError):
            sample_jump_stream(SPEC, PI, (0.0, 1e12), seed=0)
        with pytest.raises(DomainError):
            sample_jump_stream(SPEC, PiSpec(1.0 + 1e-12, -0.1), (0.0, 1.0), seed=0)
        with pytest.raises(DomainError):
            sample_jump_stream(SPEC, PI, (0.0, math.inf), seed=0)


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
