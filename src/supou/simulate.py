"""Exact simulation of supOU paths from the jump-sum representation.

A compound-Poisson driven supOU process is a sum of exponentially decaying
jump contributions

    X(t) = sum over jumps i with tau_i <= t of  U_i * exp(A_i (t - tau_i)),

each jump carrying its own mean-reversion rate A_i < 0 drawn from the
mirrored-Gamma law.  Realizing the jump triples (tau_i, U_i, A_i) on a
window that starts well before the observation horizon makes X, its
interval integrals V_n and the SV log returns all computable from the same
stream without time discretization: X and V_n in closed form per jump, and
the log returns as sqrt(V_n) Z_n with independent standard normal Z_n,
which is their exact law given X.  Jumps before the window are not drawn,
which biases the start of a path low (see `SimulationConfig`).  The jump
sums leave out only terms whose total is at most 1e-15 of the sum at every
time, a bound relative to the sum that holds because every term is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, ParameterError
from .params import ModelKind, ObservationSchedule, PiSpec

__all__ = [
    "LevySpec",
    "JumpStream",
    "SimulationConfig",
    "PathSample",
    "levy_moments",
    "sample_jump_stream",
    "evaluate_supou",
    "integrate_supou",
    "simulate_sv_logreturns",
    "simulate_path",
]

# Jumps dropped from a time chunk carry at most this fraction of the sum at
# every time in the chunk (see _jump_sum).
_REL_CUTOFF = 1e-15

_TIME_CHUNK = 512


@dataclass(frozen=True)
class LevySpec:
    """Compound Poisson specification: arrival rate and Gamma jump law.

    The jump law uses the rate parameterization, so jumps have mean
    jump_shape / jump_rate.  rate = 0 is allowed and produces an empty
    stream (a degenerate, identically-zero process).
    """

    rate: float
    jump_shape: float
    jump_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ParameterError(f"rate must be >= 0, got {self.rate}")
        if not (math.isfinite(self.jump_shape) and self.jump_shape > 0.0):
            raise ParameterError(f"jump_shape must be > 0, got {self.jump_shape}")
        if not (math.isfinite(self.jump_rate) and self.jump_rate > 0.0):
            raise ParameterError(f"jump_rate must be > 0, got {self.jump_rate}")

    @classmethod
    def from_moments(cls, mu: float, sigma2: float, jump_shape: float = 3.0) -> "LevySpec":
        """Spec whose underlying Levy process has the given mean and variance rate.

        With the Gamma jump shape fixed, rate and jump_rate are determined:
        mu = rate * shape / jump_rate and sigma2 = rate * shape (shape+1) / jump_rate^2.
        """
        if mu <= 0.0 or sigma2 <= 0.0:
            raise ParameterError("mu and sigma2 must be > 0 to derive a jump spec")
        if not (math.isfinite(jump_shape) and jump_shape > 0.0):
            raise ParameterError(f"jump_shape must be > 0, got {jump_shape}")
        jump_rate = (jump_shape + 1.0) * mu / sigma2
        rate = mu * jump_rate / jump_shape
        return cls(rate=rate, jump_shape=jump_shape, jump_rate=jump_rate)


def levy_moments(spec: LevySpec) -> Tuple[float, float]:
    """(mu, sigma2) of the underlying Levy process at unit time.

    mu = rate * E[U], sigma2 = rate * E[U^2] for the Gamma jump law.
    """
    mean_jump = spec.jump_shape / spec.jump_rate
    second_moment = spec.jump_shape * (spec.jump_shape + 1.0) / spec.jump_rate**2
    return spec.rate * mean_jump, spec.rate * second_moment


@dataclass(frozen=True)
class SimulationConfig:
    """Simulation controls: burn-in window and master seed.

    Jumps born before -truncation_lead are never drawn, so a path starts
    below stationarity: at time t >= 0 the missing jumps would carry a share
    (1 - B (truncation_lead + t))^(1 - alpha_pi) of the stationary mean.  At
    the default lead and B = -0.1 that share at t = 0 is 59% for
    alpha_pi = 1.1, 7% for 1.5, 0.65% for 1.95 and 1.2e-7 for 4.
    """

    truncation_lead: float = 2000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.truncation_lead) and self.truncation_lead > 0.0):
            raise DomainError(f"truncation_lead must be > 0, got {self.truncation_lead}")


@dataclass(frozen=True)
class JumpStream:
    """Realized jump triples (tau_i, U_i, A_i) on [window_start, window_end]."""

    times: np.ndarray
    sizes: np.ndarray
    rates: np.ndarray
    window_start: float
    window_end: float

    def __post_init__(self) -> None:
        t, u, a = self.times, self.sizes, self.rates
        if not (t.shape == u.shape == a.shape) or t.ndim != 1:
            raise DomainError("times, sizes and rates must be 1-d arrays of equal length")
        if t.size:
            if np.any(np.diff(t) <= 0.0):
                raise DomainError("jump times must be strictly increasing")
            if t[0] < self.window_start or t[-1] > self.window_end:
                raise DomainError("jump times must lie inside the window")
            if np.any(u <= 0.0):
                raise DomainError("jump sizes must be positive")
            if np.any(a >= 0.0):
                raise DomainError("mean-reversion rates must be negative")

    def __len__(self) -> int:
        return int(self.times.size)

    def truncated(self, new_start: float) -> "JumpStream":
        """Drop all jumps before new_start (tightens the burn-in window)."""
        keep = self.times >= new_start
        return JumpStream(
            times=self.times[keep],
            sizes=self.sizes[keep],
            rates=self.rates[keep],
            window_start=new_start,
            window_end=self.window_end,
        )


@dataclass(frozen=True)
class PathSample:
    """Observations on an equidistant grid."""

    schedule: ObservationSchedule
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.schedule.n_obs,):
            raise DomainError(
                f"values shape {self.values.shape} does not match n_obs={self.schedule.n_obs}"
            )


def _jump_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _brownian_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def sample_jump_stream(
    spec: LevySpec,
    pi: PiSpec,
    window: Tuple[float, float],
    seed: int,
) -> JumpStream:
    """Draw a compound-Poisson jump stream on the window.

    Arrivals are homogeneous Poisson with intensity spec.rate (exponential
    inter-arrival gaps), jump sizes come from the Gamma law of `spec`, and
    the mean-reversion rates are B * Gamma(alpha_pi, 1) draws.

    Deterministic given (spec, pi, window, seed).
    """
    start, end = float(window[0]), float(window[1])
    if not start < end:
        raise DomainError(f"window start must precede end, got {window}")

    rng = _jump_rng(seed)
    span = end - start
    if spec.rate == 0.0:
        empty = np.empty(0)
        return JumpStream(empty, empty.copy(), empty.copy(), start, end)

    expected = spec.rate * span
    block = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 64
    arrivals = np.cumsum(rng.exponential(1.0 / spec.rate, size=block))
    while arrivals[-1] < span:
        extra = np.cumsum(rng.exponential(1.0 / spec.rate, size=block))
        arrivals = np.concatenate([arrivals, arrivals[-1] + extra])
    arrivals = arrivals[arrivals <= span]

    n = arrivals.size
    sizes = rng.gamma(spec.jump_shape, 1.0 / spec.jump_rate, size=n)
    rates = pi.B * rng.gamma(pi.alpha_pi, 1.0, size=n)
    return JumpStream(start + arrivals, sizes, rates, start, end)


def _check_times_in_window(t: np.ndarray, jumps: JumpStream) -> None:
    if t.size == 0:
        return
    if np.any(np.diff(t) < 0.0):
        raise DomainError("evaluation times must be nondecreasing")
    if t[0] < jumps.window_start or t[-1] > jumps.window_end:
        raise DomainError(
            f"times [{t[0]}, {t[-1]}] fall outside the jump window "
            f"[{jumps.window_start}, {jumps.window_end}]"
        )


def _jump_sum(jumps: JumpStream, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum of w_i exp(A_i (t - tau_i)) over jumps with tau_i <= t, at each time t.

    The one dense kernel, for positive weights: times are processed in chunks
    [t0, t1].  The jumps born by t0 give a floor L = sum of w_i exp(A_i (t1 -
    tau_i)) on the whole chunk, since every term is positive and decreasing:
    L <= S(t), the full sum, for every t in [t0, t1].  The smallest of those
    jumps, ranked by their value at t0, are dropped while their summed value
    at t0 stays <= _REL_CUTOFF * L, so the dropped mass is at most
    _REL_CUTOFF * S(t) at every t of the chunk.
    """
    out = np.zeros(t.size)
    if len(jumps) == 0 or t.size == 0:
        return out

    tau, rates = jumps.times, jumps.rates
    for i0 in range(0, t.size, _TIME_CHUNK):
        tc = t[i0:i0 + _TIME_CHUNK]
        t0, t1 = tc[0], tc[-1]
        old = int(np.searchsorted(tau, t0, side="right"))
        hi = int(np.searchsorted(tau, t1, side="right"))
        if old:
            # terms at t0; the chunk's values are these times exp(A (t - t0))
            at_t0 = weights[:old] * np.exp(rates[:old] * (t0 - tau[:old]))
            floor = at_t0 @ np.exp(rates[:old] * (t1 - t0))
            ranked = np.sort(at_t0)
            dropped = int(np.searchsorted(np.cumsum(ranked), _REL_CUTOFF * floor,
                                          side="right"))
            if dropped < old:
                # ties with the smallest kept value are kept too
                keep = at_t0 >= ranked[dropped]
                out[i0:i0 + tc.size] = (np.exp(np.outer(tc - t0, rates[:old][keep]))
                                        @ at_t0[keep])
        if hi > old:
            dt = tc[:, None] - tau[None, old:hi]
            exponent = np.where(dt >= 0.0, rates[None, old:hi] * dt, -np.inf)
            out[i0:i0 + tc.size] += np.exp(exponent) @ weights[old:hi]
    return out


def evaluate_supou(jumps: JumpStream, times) -> np.ndarray:
    """Evaluate X(t) = sum of U_i exp(A_i (t - tau_i)) over jumps with tau_i <= t.

    Exact for the realized stream up to a relative 1e-15: the terms skipped
    sum to at most 1e-15 * X(t) at every t (see `_jump_sum`).  Times must be
    nondecreasing and inside the stream window.
    """
    t = np.ascontiguousarray(times, dtype=float)
    _check_times_in_window(t, jumps)
    return _jump_sum(jumps, jumps.sizes, t)


def integrate_supou(jumps: JumpStream, schedule: ObservationSchedule) -> PathSample:
    """Integrals V_n of X over (a, b] = ((n-1)*delta, n*delta], in closed form.

    A jump at tau <= a contributes U expm1(A delta)/A * exp(A (a - tau)), a
    jump sum at the left edges with weights U expm1(A delta)/A; a jump born
    inside (a, b] contributes U expm1(A (b - tau))/A.  Every term is
    positive, so nothing cancels, and no discretization is involved.
    """
    edges = schedule.delta * np.arange(schedule.n_obs + 1)
    if edges[0] < jumps.window_start or edges[-1] > jumps.window_end:
        raise DomainError("integration intervals fall outside the jump window")
    tau, sizes, rates = jumps.times, jumps.sizes, jumps.rates
    values = _jump_sum(jumps, sizes * np.expm1(rates * schedule.delta) / rates, edges[:-1])
    # interval (edges[k], edges[k+1]] of each jump; -1 and n_obs lie outside
    k = np.searchsorted(edges, tau, side="left") - 1
    born = (k >= 0) & (k < schedule.n_obs)
    k, tau, sizes, rates = k[born], tau[born], sizes[born], rates[born]
    values += np.bincount(k, weights=sizes * np.expm1(rates * (edges[k + 1] - tau)) / rates,
                          minlength=schedule.n_obs)
    return PathSample(schedule, values)


def simulate_sv_logreturns(
    jumps: JumpStream,
    schedule: ObservationSchedule,
    config: SimulationConfig,
) -> PathSample:
    """Log returns Y_n = sqrt(V_n) Z_n with the supOU process as volatility.

    Given the volatility path, the integral of sqrt(X) against an independent
    Brownian motion over interval n is exactly N(0, V_n), with V_n from
    `integrate_supou`; the Z_n come from a substream of config.seed that is
    independent of the jump draws.
    """
    shocks = _brownian_rng(config.seed).standard_normal(schedule.n_obs)
    return PathSample(schedule, np.sqrt(integrate_supou(jumps, schedule).values) * shocks)


def simulate_path(
    kind: ModelKind,
    spec: LevySpec,
    pi: PiSpec,
    schedule: ObservationSchedule,
    config: SimulationConfig,
) -> PathSample:
    """Sample a jump stream on [-truncation_lead, horizon] and observe `kind` on it.

    Exact for that stream, which leaves out the jumps before
    -truncation_lead: the path's mean falls short of the stationary mean by
    the share given in `SimulationConfig`, largest at t = 0 and for
    alpha_pi near 1.
    """
    window = (-config.truncation_lead, schedule.horizon)
    jumps = sample_jump_stream(spec, pi, window, config.seed)
    if kind is ModelKind.SUPOU:
        return PathSample(schedule, evaluate_supou(jumps, schedule.times()))
    if kind is ModelKind.INTEGRATED:
        return integrate_supou(jumps, schedule)
    if kind is ModelKind.SV:
        return simulate_sv_logreturns(jumps, schedule, config)
    raise DomainError(f"unknown model kind {kind!r}")
