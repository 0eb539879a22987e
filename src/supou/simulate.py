"""Exact simulation of supOU paths from the jump-sum representation.

A compound-Poisson driven supOU process is a sum of exponentially decaying
jump contributions

    X(t) = sum over jumps i with tau_i <= t of  U_i * exp(A_i (t - tau_i)),

each jump carrying its own mean-reversion rate A_i < 0 drawn from the
mirrored-Gamma law.  Realizing the jump triples (tau_i, U_i, A_i) makes X,
its interval integrals V_n and the SV log returns all computable from the
same stream without time discretization: X and V_n in closed form per jump,
and the log returns as sqrt(V_n) Z_n with independent standard normal Z_n,
which is their exact law given X.  The jumps born before the stream's window
are drawn from their exact law too and enter at the window's start, so a
path is stationary from its first observation.  The only approximation is
a relative 1e-15: the jumps born before the window whose value at its start
is at most 1e-15 of their size are not drawn (in expectation 1e-15 of the
stationary mean), and the jump sums leave out only terms whose total is at
most 1e-15 of the sum at every time, a bound relative to the sum that holds
because every term is positive.

The jump sums are taken on the equidistant observation grid, 32 x 32 times
at a time: exp(A (t - tau)) factors into an exponential at the start of t's
row of 32 times and one of t's offset in that row, so a block of 1,024 sums
is one small matrix product and costs 64 exponentials per jump it keeps.
Which jumps a block keeps is decided by one comparison per jump: of the m
jumps born by its first time t0, one is dropped when its value at t0 is at
most 1e-15 L / m, L their sum at the block's last time.  L is at most the
sum at every time of the block, so the dropped mass is at most 1e-15 of it.
This cutoff costs two exponentials, in every block, for each jump born since
the window's start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from .errors import DomainError, ParameterError
from .params import ModelKind, ObservationSchedule, PiSpec

__all__ = [
    "LevySpec",
    "JumpStream",
    "SimulationConfig",
    "PathSample",
    "sample_jump_stream",
    "evaluate_supou",
    "integrate_supou",
    "simulate_sv_logreturns",
    "simulate_path",
]

# Jumps dropped from a time chunk carry at most this fraction of the sum at
# every time in the chunk (see _jump_sum); jumps born before a stream's window
# are drawn only while their value at its start exceeds this fraction of
# their size (see sample_jump_stream).
_REL_CUTOFF = 1e-15

# A stream's expected jump count may not exceed this: its triples alone
# take 24 bytes per jump, 2.4 GB at the bound.
_MAX_EXPECTED_JUMPS = 1e8

# a chunk of the grid is viewed as _ROWS x _COLS times (see _jump_sum)
_ROWS, _COLS = 32, 32


@dataclass(frozen=True)
class LevySpec:
    """Compound Poisson specification: arrival rate and Gamma jump law.

    The jump law uses the rate parameterization, so jumps have mean
    jump_shape / jump_rate.  All three must be > 0; `from_moments` gives
    the spec whose underlying Levy process has a given mean and variance.
    """

    rate: float
    jump_shape: float
    jump_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ParameterError(f"rate must be > 0, got {self.rate}")
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


@dataclass(frozen=True)
class SimulationConfig:
    """Simulation controls: the master seed.

    `simulate_path` draws the in-window jumps on [-truncation_lead, horizon]
    and the jumps born before -truncation_lead from their exact law, so the
    lead is a fixed part of each seeded stream, not an approximation.
    """

    truncation_lead: ClassVar[float] = 2000.0
    seed: int = 0


@dataclass(frozen=True)
class JumpStream:
    """Realized jump triples (tau_i, U_i, A_i) on [window_start, window_end].

    The window is finite with window_start < window_end.  Times are
    nondecreasing: the jumps born before the window enter at window_start
    with their value there as size.
    """

    times: np.ndarray
    sizes: np.ndarray
    rates: np.ndarray
    window_start: float
    window_end: float

    def __post_init__(self) -> None:
        t, u, a = self.times, self.sizes, self.rates
        if not (t.shape == u.shape == a.shape) or t.ndim != 1:
            raise DomainError("times, sizes and rates must be 1-d arrays of equal length")
        # every comparison with a nan is False
        if not -math.inf < self.window_start < self.window_end < math.inf:
            raise DomainError(f"window must be finite with start < end, got "
                              f"({self.window_start}, {self.window_end})")
        for name, x in (("times", t), ("sizes", u), ("rates", a)):
            if not np.all(np.isfinite(x)):
                raise DomainError(f"jump {name} must be finite")
        if t.size:
            if np.any(np.diff(t) < 0.0):
                raise DomainError("jump times must be nondecreasing")
            if t[0] < self.window_start or t[-1] > self.window_end:
                raise DomainError("jump times must lie inside the window")
            if np.any(u <= 0.0):
                raise DomainError("jump sizes must be positive")
            if np.any(a >= 0.0):
                raise DomainError("mean-reversion rates must be negative")

    def __len__(self) -> int:
        return int(self.times.size)


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


def _rng(seed: int, key: int) -> np.random.Generator:
    # independent substreams of one seed, by spawn key: 0 the in-window
    # jumps, 1 the SV shocks, 2 a recovery study's start jitter
    # (`cli._study_one_path`), 3 the jumps born before the window
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def sample_jump_stream(
    spec: LevySpec,
    pi: PiSpec,
    window: Tuple[float, float],
    seed: int,
) -> JumpStream:
    """Draw a stationary compound-Poisson jump stream on the window.

    Inside the window, arrivals are homogeneous Poisson with intensity
    spec.rate (exponential inter-arrival gaps), jump sizes come from the
    Gamma law of `spec`, and the mean-reversion rates are
    B * Gamma(alpha_pi, 1) draws.  The jumps born before the window, with
    u = exp(A (start - tau)) in (0, 1), form a Poisson random measure of
    intensity rate pi(dA) F(dU) du / (|A| u) (Barndorff-Nielsen 2001).  Those
    with u > eps = _REL_CUTOFF number Poisson(rate log(1/eps) / (|B|
    (alpha_pi - 1))); each has U from the jump law, A = B R with
    R ~ Gamma(alpha_pi - 1, 1) and log u uniform on (log eps, 0), and enters
    at the window's start as a jump of size U u.  They come from a substream
    of the seed that is independent of the in-window draws.

    Deterministic given (spec, pi, window, seed).  Raises DomainError when
    the expected jump count exceeds _MAX_EXPECTED_JUMPS.
    """
    start, end = float(window[0]), float(window[1])
    if not start < end:
        raise DomainError(f"window start must precede end, got {window}")
    span = end - start
    expected = spec.rate * span
    # each divisor is nonzero; a quotient that overflows is inf
    expected_before = spec.rate * math.log(1.0 / _REL_CUTOFF) / -pi.B / (pi.alpha_pi - 1.0)
    if not expected + expected_before <= _MAX_EXPECTED_JUMPS:
        raise DomainError(
            f"expected {expected:.3g} jumps on the window {window} and "
            f"{expected_before:.3g} born before it, more than {_MAX_EXPECTED_JUMPS:.0e}; "
            f"the jump rate, horizon or 1/(|B| (alpha_pi - 1)) is too large"
        )

    rng = _rng(seed, 0)
    block = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 64
    arrivals = np.cumsum(rng.exponential(1.0 / spec.rate, size=block))
    while arrivals[-1] < span:
        extra = np.cumsum(rng.exponential(1.0 / spec.rate, size=block))
        arrivals = np.concatenate([arrivals, arrivals[-1] + extra])
    arrivals = arrivals[arrivals <= span]

    n = arrivals.size
    sizes = rng.gamma(spec.jump_shape, 1.0 / spec.jump_rate, size=n)
    rates = pi.B * rng.gamma(pi.alpha_pi, 1.0, size=n)

    rng = _rng(seed, 3)
    m = rng.poisson(expected_before)
    sizes_before = (rng.gamma(spec.jump_shape, 1.0 / spec.jump_rate, size=m)
                    * np.exp(rng.uniform(math.log(_REL_CUTOFF), 0.0, size=m)))
    # numpy's Gamma draws underflow to exactly 0 for shapes near 0
    r = np.maximum(rng.gamma(pi.alpha_pi - 1.0, 1.0, size=m), np.finfo(float).tiny)
    return JumpStream(
        np.concatenate([np.full(m, start), start + arrivals]),
        np.concatenate([sizes_before, sizes]),
        np.concatenate([pi.B * r, rates]),
        start,
        end,
    )


def _jump_sum(jumps: JumpStream, weights: np.ndarray, first: int, n: int,
              step: float) -> np.ndarray:
    """Sum S(t) of w_i exp(A_i (t - tau_i)) over jumps with tau_i <= t, on a grid.

    The one kernel, for positive weights, at the n times t_k = step * (first
    + k).  The times are cut into chunks of _ROWS x _COLS, one row per
    _COLS consecutive times.  At the time b steps into the row that starts
    at s, a term factors as w exp(A (s - tau)) * exp(A b step): a left
    factor per row and a right factor per column.  Every jump the chunk
    keeps has the one left factor w exp(A (s - tau)) on the rows that start
    at or after its birth, and 0 on the rows before.  So a chunk's block of
    sums is one small GEMM, left^T @ right over the kept jumps, and each
    kept jump costs _ROWS + _COLS exponentials per chunk instead of one per
    time.  The chunk keeps every jump born inside it, and the part of its
    birth row at or after its birth is added by a one-hot GEMM.

    The cutoff: the jumps born by the chunk's first time t0 give a floor L
    = sum of w_i exp(A_i (t1 - tau_i)) on the whole chunk, t1 its last time,
    since every term is positive and decreasing: L <= S(t) for every t in
    [t0, t1].  Of those `old` jumps, one is dropped when its value at t0 is
    at most _REL_CUTOFF * L / old.  At most `old` are dropped, so the
    dropped mass is at most _REL_CUTOFF * L <= _REL_CUTOFF * S(t) at every t
    of the chunk; when L > 0 at least one jump is kept, since L <= old times
    the largest value.  The cutoff costs two exponentials, in every chunk,
    for each jump born since the window's start.
    """
    size = _ROWS * _COLS
    # the grid padded to whole rows; the values past its n-th time are cut off
    grid = step * np.arange(first, first + -(-n // _COLS) * _COLS)
    out = np.zeros(grid.size)
    tau, rates = jumps.times, jumps.rates
    lag = step * np.arange(_COLS)
    for i0 in range(0, n, size):
        times = grid[i0:i0 + size].reshape(-1, _COLS)
        starts = times[:, 0]
        t0, t1 = starts[0], grid[min(i0 + size, n) - 1]
        old, hi = np.searchsorted(tau, (t0, t1), side="right").tolist()
        at_t0 = weights[:old] * np.exp(rates[:old] * (t0 - tau[:old]))
        floor = at_t0 @ np.exp(rates[:old] * (t1 - t0))
        # every jump born inside the chunk, and the old ones above the cutoff
        # (with no old jump the comparison is empty, hence max)
        keep = np.arange(hi) >= old
        keep[:old] = at_t0 > _REL_CUTOFF / max(old, 1) * floor
        a, w, born = rates[:hi][keep], weights[:hi][keep], tau[:hi][keep]
        dt = starts - born[:, None]
        left = w[:, None] * np.exp(a[:, None] * dt, where=dt >= 0.0, out=np.zeros(dt.shape))
        block = left.T @ np.exp(np.outer(a, lag))
        a, w, born = rates[old:hi], weights[old:hi], tau[old:hi]
        # the last row that starts before the jump is its birth row
        row = np.searchsorted(starts, born, side="left") - 1
        dt = times[row] - born[:, None]
        birth = w[:, None] * np.exp(a[:, None] * dt, where=dt >= 0.0, out=np.zeros(dt.shape))
        block += (row == np.arange(starts.size)[:, None]) @ birth
        out[i0:i0 + block.size] = block.ravel()
    return out[:n]


def evaluate_supou(jumps: JumpStream, schedule: ObservationSchedule) -> PathSample:
    """X(t) = sum of U_i exp(A_i (t - tau_i)) over jumps with tau_i <= t.

    Evaluated at the schedule's times delta, 2 delta, ..., n_obs delta,
    which must lie inside the stream window.  Exact for the realized stream
    up to a relative 1e-15 plus rounding: the terms skipped sum to at most
    1e-15 * X(t) at every t (see `_jump_sum`).
    """
    if schedule.delta < jumps.window_start or schedule.horizon > jumps.window_end:
        raise DomainError(
            f"times [{schedule.delta}, {schedule.horizon}] fall outside the jump window "
            f"[{jumps.window_start}, {jumps.window_end}]"
        )
    return PathSample(schedule, _jump_sum(jumps, jumps.sizes, 1, schedule.n_obs,
                                          schedule.delta))


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
    values = _jump_sum(jumps, sizes * np.expm1(rates * schedule.delta) / rates, 0,
                       schedule.n_obs, schedule.delta)
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
    shocks = _rng(config.seed, 1).standard_normal(schedule.n_obs)
    return PathSample(schedule, np.sqrt(integrate_supou(jumps, schedule).values) * shocks)


def simulate_path(
    kind: ModelKind,
    spec: LevySpec,
    pi: PiSpec,
    schedule: ObservationSchedule,
    config: SimulationConfig,
) -> PathSample:
    """Sample a stationary jump stream and observe `kind` on it.

    The stream's window is [-truncation_lead, horizon]; the jumps born
    before it are drawn from their exact law (see `sample_jump_stream`).
    """
    window = (-config.truncation_lead, schedule.horizon)
    jumps = sample_jump_stream(spec, pi, window, config.seed)
    if kind is ModelKind.SUPOU:
        return evaluate_supou(jumps, schedule)
    if kind is ModelKind.INTEGRATED:
        return integrate_supou(jumps, schedule)
    if kind is ModelKind.SV:
        return simulate_sv_logreturns(jumps, schedule, config)
    raise DomainError(f"unknown model kind {kind!r}")
