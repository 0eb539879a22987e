"""Two-step iterated GMM estimation for all three model kinds.

The moment function stacks the mean condition, the variance (for squared SV
returns: fourth moment) condition and one autocovariance condition per lag
in the lag set; its expectation under the stationary law vanishes exactly at
the true parameter.  Estimation minimizes the quadratic form g' W g of the
sample moments, first with the identity weighting, then with the inverse of
the estimated moment covariance from step one.  With W = L L' the criterion
is the sum of squares of L' g.

At a fixed acf shape (alpha_pi, B) every target is linear in m, m^2 and
sigma2, where m = E z: t = m e_0 + m^2 c + sigma2 w(alpha_pi, B).  So each
step searches the shape alone, theta = (log(alpha_pi - 1), log(-B)), by one
bounded nonlinear least-squares fit (scipy's trust-region reflective method)
inside a fixed box around the start shape, and `_profile` gives the best
m > 0 and sigma2 > 0 at each shape in closed form (variable projection).
`_model_columns` evaluates e_0, c, w and the shape slopes of w, in closed
form from the unit moments and slopes of `moments`.  Each `two_step_gmm` call
keeps its own memo of it, so both steps and the two reported objectives
evaluate each shape once; only `estimate_weighting`, which takes the
conditions, evaluates the step-1 shape again.

An estimate passes over the data once.  `_window_moments` forms the N-m
window products one block of _WINDOW_BLOCK windows at a time in one reused
buffer and merges each block into a running sum and scatter as it goes, so an
estimate holds the series, one block of products and a d x d state, never
the full (N-m) x d matrix.  The result is the windows' count, mean b and
covariance C about b.  Step 1 needs only b; step 2's moment covariance at the
step-1 targets t is C + (b-t)(b-t)'.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.optimize import brentq, least_squares

from .descriptive import sample_acf, sample_mean, sample_var
from .errors import (
    DataError,
    DomainError,
    InitializationError,
    ParameterError,
    SingularWeightingError,
    WeightingMatrixError,
)
# supou_var, supou_acov, intsupou_var, _int_var_unit, _int_acov_units: unused, kept for
# the benchmark's tracer
from .moments import (
    _int_acov_units,
    _int_unit_slopes,
    _int_var_unit,
    _supou_unit_slopes,
    intsupou_mean,
    intsupou_var,
    supou_acov,
    supou_mean,
    supou_var,
)
from .params import ModelKind, ParamVector

__all__ = [
    "MomentConditionSet",
    "GmmResult",
    "default_conditions",
    "objective",
    "estimate_weighting",
    "transform",
    "untransform",
    "minimize",
    "closed_form_init",
    "initial_estimate",
    "two_step_gmm",
]


@dataclass(frozen=True)
class MomentConditionSet:
    """Model kind, lag set and grid spacing defining the moment function.

    The moment dimension is d = 2 + len(lags); the window length is
    m + 1 with m = max(lags).  At least two lags are required, so that the
    d >= 4 moments can identify the four parameters.
    """

    kind: ModelKind
    lags: Tuple[int, ...]
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not all(float(h).is_integer() for h in self.lags):
            raise DomainError(f"lags must be integers, got {self.lags}")
        lags = tuple(int(h) for h in self.lags)
        object.__setattr__(self, "lags", lags)
        if any(h < 1 for h in lags) or any(b <= a for a, b in zip(lags, lags[1:])):
            raise DomainError(f"lags must be strictly increasing positive, got {self.lags}")
        if len(lags) < 2:
            raise DomainError(f"need at least two lags for four parameters, got {self.lags}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError(f"delta must be > 0, got {self.delta}")

    @property
    def m(self) -> int:
        return self.lags[-1]

    @property
    def d(self) -> int:
        return 2 + len(self.lags)


def default_conditions(kind: ModelKind, delta: float = 1.0) -> MomentConditionSet:
    """Default lag sets: {1,2,4,5} for supOU, {1,...,5} for integrated data.

    Squared SV returns take {1,...,5,10,20,40}: lags 1-5, then doubling out
    to 40 = 4/|B| at B = -0.1.  Only over that range does the power-law acf
    (1 - B h)^(1 - alpha_pi) separate from an exponential one, so shorter
    sets leave alpha_pi of the noisy squared returns barely identified.
    """
    lags = (1, 2, 4, 5) if kind is ModelKind.SUPOU else (1, 2, 3, 4, 5)
    if kind is ModelKind.SV:
        lags += (10, 20, 40)
    return MomentConditionSet(kind=kind, lags=lags, delta=delta)


# half-width (log scale, around the start shape) of the compact space of
# acf shapes (log(alpha_pi - 1), log(-B)) that both steps search, which the
# consistency theory assumes anyway
PARAMETER_BOX = 6.0

# a fit that ends within this many log units of a face of the box stopped on
# the box: trf only reports a bound as active within a relative xtol of it
_EDGE_SLACK = 1e-3

# ridge added to the moment covariance, relative to its mean diagonal
_RIDGE_SCALE = 1e-10

# windows per block of the moment sums: the one product buffer, 1.3 MB at
# d = 10; it holds every window of a study at 10^4 observations, so a study
# sums one matrix of all its windows, merges no second block and its outputs
# do not depend on the block size
_WINDOW_BLOCK = 1 << 14


@dataclass(frozen=True)
class GmmResult:
    """Estimates and diagnostics of both GMM steps.

    step1_stop and step2_stop say why each fit stopped: "converged",
    "max_evaluations" or "at_box_edge" (see `minimize`; a fit whose mu or
    sigma2 ends on its face is "at_box_edge" too, see `two_step_gmm`).
    """

    conditions: MomentConditionSet
    step1_estimate: ParamVector
    step2_estimate: ParamVector
    step1_objective: float
    step2_objective: float
    n_used: int
    step1_stop: str
    step2_stop: str

    @property
    def converged_step1(self) -> bool:
        return self.step1_stop == "converged"

    @property
    def converged_step2(self) -> bool:
        return self.step2_stop == "converged"

    def to_dict(self) -> Dict:
        """JSON-ready summary with a fixed field order."""
        return {
            "model": self.conditions.kind.value,
            "lags": list(self.conditions.lags),
            "delta": self.conditions.delta,
            "step1_estimate": asdict(self.step1_estimate),
            "step2_estimate": asdict(self.step2_estimate),
            "step1_objective": self.step1_objective,
            "step2_objective": self.step2_objective,
            "converged_step1": self.converged_step1,
            "converged_step2": self.converged_step2,
            "n_used": self.n_used,
            "step1_stop": self.step1_stop,
            "step2_stop": self.step2_stop,
        }


# ---------------------------------------------------------------------------
# moment functions
# ---------------------------------------------------------------------------

def _estimation_series(data, kind: ModelKind) -> np.ndarray:
    x = np.ascontiguousarray(data, dtype=float)
    if x.ndim != 1:
        raise DataError("observations must form a 1-d series")
    if not np.all(np.isfinite(x)):
        raise DataError("observations contain non-finite values")
    if x.size:
        # the weighting matrix sums n products of four values of z, which is
        # x^2 for SV; above this magnitude the sums overflow
        limit = (np.finfo(float).max / x.size) ** (0.125 if kind is ModelKind.SV else 0.25)
        largest = float(max(x.max(), -x.min()))  # no |x| copy of the series
        if largest > limit:
            raise DataError(f"observations too large in magnitude: |value| reaches "
                            f"{largest:.3g}, and the moments of {x.size} observations "
                            f"overflow above {limit:.3g}")
    return x * x if kind is ModelKind.SV else x


def _model_columns(alpha: float, B: float,
                   conditions: MomentConditionSet) -> Tuple[float, np.ndarray]:
    """k = E z at mu = 1, and the d x 5 columns (e_0, c, w, dw/dlog(alpha_pi - 1),
    dw/dlog(-B)) of the model values of (E z, E z^2, E z_1 z_{1+h} ...) for the
    estimation series z.

    The targets are m e_0 + m^2 c + sigma2 w with m = k mu: the mean, then
    m^2 plus sigma2 times a unit moment of (alpha_pi, B) alone for each
    second moment (the SV fourth moment is three times both), which
    `moments` gives with its slopes.
    """
    kind, delta = conditions.kind, conditions.delta
    lags = np.asarray(conditions.lags, dtype=float)
    unit = ParamVector(1.0, 1.0, alpha, B)
    # the mean, then var and autocovariances of X, or of V for both other kinds
    if kind is ModelKind.SUPOU:
        k, slopes = supou_mean(unit), _supou_unit_slopes(alpha, B, lags * delta)
    else:
        k, slopes = intsupou_mean(unit, delta), _int_unit_slopes(alpha, B, delta, lags)
    columns = np.zeros((conditions.d, 5))
    columns[0, 0], columns[1:, 1], columns[1:, 2:] = 1.0, 1.0, np.transpose(slopes)
    if kind is ModelKind.SV:
        # squared SV returns have E(Y^4) = 3 E(V^2)
        columns[1] *= 3.0
    return k, columns


def _moment_targets(beta: ParamVector, model: Callable) -> np.ndarray:
    """The model values of (E z, E z^2, E z_1 z_{1+h} ...) at beta, from
    model(alpha_pi, B), which is `_model_columns` at the conditions."""
    k, columns = model(beta.alpha_pi, beta.B)
    m = k * beta.mu
    return columns[:, :3] @ np.array([m, m * m, beta.sigma2])


class _WindowMoments(NamedTuple):
    """Count n, mean and covariance (divisor n) of the window products."""

    n: int
    mean: np.ndarray
    cov: np.ndarray


def _window_moments(z: np.ndarray, conditions: MomentConditionSet) -> _WindowMoments:
    """Summary of the data products (z_t, z_t^2, z_t z_{t+h} ...) of the N-m
    windows t, formed and merged one block of _WINDOW_BLOCK windows at a time.

    The mean is the block sums over n.  Each block adds its scatter about its
    own mean m_k and, after the first, j k / (j + k) (m_k - M)(m_k - M)' for
    the mean M of the j windows before it: the exact merge of Chan, Golub &
    LeVeque (1979).
    """
    n = z.size - conditions.m
    if n < 1:
        raise DataError(f"need more than m = {conditions.m} observations, got {z.size}")
    # one window per column, filled in place row by row, so each row is
    # contiguous and row sums sum pairwise
    buffer = np.empty((conditions.d, min(n, _WINDOW_BLOCK)))
    total = np.zeros(conditions.d)
    scatter = np.zeros((conditions.d, conditions.d))
    for start in range(0, n, _WINDOW_BLOCK):
        k = min(_WINDOW_BLOCK, n - start)
        rows = buffer[:, :k]
        rows[0] = z[start:start + k]
        for row, h in zip(rows[1:], (0,) + conditions.lags):
            np.multiply(rows[0], z[start + h:start + h + k], out=row)
        block_sum = rows.sum(axis=1)
        block_mean = block_sum / k
        if start:
            between = block_mean - total / start
            scatter += (start * k / (start + k)) * np.outer(between, between)
        total += block_sum
        rows -= block_mean[:, None]
        # rows @ rows.T is a symmetric rank-k update, so it is exactly
        # symmetric, and so is every term of the covariance
        scatter += rows @ rows.T
    return _WindowMoments(n, total / n, scatter / n)


def _require_pd(W, d: int) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.shape != (d, d):
        raise WeightingMatrixError(f"weighting must be {d}x{d}, got {W.shape}")
    if not np.allclose(W, W.T, rtol=1e-9, atol=0.0):
        raise WeightingMatrixError("weighting matrix must be symmetric")
    try:
        np.linalg.cholesky(0.5 * (W + W.T))
    except np.linalg.LinAlgError as exc:
        raise WeightingMatrixError("weighting matrix must be positive definite") from exc
    return W


def objective(data, beta: ParamVector, W, conditions: MomentConditionSet) -> float:
    """GMM criterion g' W g for positive definite W.

    g is the sample moments: the moment function averaged over all N-m
    sliding windows, which on a window of exactly m+1 observations is the
    moment function itself.
    """
    W = _require_pd(W, conditions.d)
    z = _estimation_series(data, conditions.kind)
    g = _window_moments(z, conditions).mean - _moment_targets(
        beta, partial(_model_columns, conditions=conditions))
    return float(g @ W @ g)


def estimate_weighting(data, beta1: ParamVector, conditions: MomentConditionSet) -> np.ndarray:
    """Inverse of the (ridge-regularized) moment covariance at the step-1 estimate.

    S = (1/n) sum_t f(window_t, beta1) f(window_t, beta1)' over the n
    windows.  With f = F_t - t for the window products F_t and the targets
    t of beta1, S = C + (b - t)(b - t)', where b and C are the mean and
    covariance of the F_t: the summary of `_window_moments`.  `data` is the
    observations, or that summary, which `two_step_gmm` passes so that a fit
    passes over the data once.  A ridge of _RIDGE_SCALE times the mean
    diagonal keeps S invertible in the near-singular cases that show up for
    large lag sets; if S stays non-invertible anyway,
    SingularWeightingError is raised.
    """
    summary = (data if isinstance(data, _WindowMoments)
               else _window_moments(_estimation_series(data, conditions.kind), conditions))
    if summary.n < conditions.d:
        raise DataError(f"need at least d = {conditions.d} windows, got {summary.n}")
    deviation = summary.mean - _moment_targets(
        beta1, partial(_model_columns, conditions=conditions))
    # C and the outer product are exactly symmetric, so S is too
    S = summary.cov + np.outer(deviation, deviation)
    S = S + (_RIDGE_SCALE * np.trace(S) / conditions.d) * np.eye(conditions.d)
    try:
        chol = scipy.linalg.cho_factor(S)
        W = scipy.linalg.cho_solve(chol, np.eye(conditions.d))
    except scipy.linalg.LinAlgError as exc:
        raise SingularWeightingError(
            "moment covariance is singular beyond ridge regularization"
        ) from exc
    if not np.all(np.isfinite(W)):
        raise SingularWeightingError("moment covariance inversion produced non-finite values")
    return 0.5 * (W + W.T)


# ---------------------------------------------------------------------------
# unconstrained reparameterization
# ---------------------------------------------------------------------------

def transform(beta: ParamVector) -> np.ndarray:
    """Map to unconstrained coordinates (log mu, log sigma2, log(alpha-1), log(-B))."""
    if beta.mu <= 0.0:
        raise DomainError("transform requires mu > 0")
    return np.array([
        math.log(beta.mu),
        math.log(beta.sigma2),
        math.log(beta.alpha_pi - 1.0),
        math.log(-beta.B),
    ])


def untransform(theta) -> ParamVector:
    """Inverse of `transform`; every finite theta yields a valid ParamVector."""
    t = np.asarray(theta, dtype=float)
    if t.shape != (4,):
        raise DomainError(f"theta must have shape (4,), got {t.shape}")
    return ParamVector(
        mu=math.exp(t[0]),
        sigma2=math.exp(t[1]),
        alpha_pi=1.0 + math.exp(t[2]),
        B=-math.exp(t[3]),
    )


# ---------------------------------------------------------------------------
# bounded least squares
# ---------------------------------------------------------------------------

def minimize(residuals: Callable, jac: Callable, theta0,
             center: np.ndarray) -> Tuple[np.ndarray, str]:
    """Minimize the sum of squared residuals inside center +/- PARAMETER_BOX.

    One call of scipy's trust-region reflective least squares with default
    tolerances; `jac` is the Jacobian of the residuals as a function of
    theta (finite differences are not accepted).  Returns
    the final theta and why the fit stopped: "at_box_edge" when any
    coordinate ends within _EDGE_SLACK of the box, else "max_evaluations"
    when the evaluation budget ran out, else "converged".  Residuals that
    are not finite at a trial point shrink the trust region; at the start
    they raise DomainError.
    """
    if not callable(jac):
        raise TypeError(f"jac must be a function of theta, got {jac!r}")
    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(np.isfinite(residuals(theta0))):
        raise DomainError("residuals must be finite at the starting point")
    fit = least_squares(residuals, theta0, jac=jac, method="trf",
                        bounds=(center - PARAMETER_BOX, center + PARAMETER_BOX))
    if np.any(np.abs(fit.x - center) >= PARAMETER_BOX - _EDGE_SLACK):
        return fit.x, "at_box_edge"
    return fit.x, ("max_evaluations" if fit.status == 0 else "converged")


# ---------------------------------------------------------------------------
# closed-form initializer
# ---------------------------------------------------------------------------

def closed_form_init(sample_mean_value: float, sample_var_value: float,
                     rho_h1: float, rho_h2: float,
                     h1: float, h2: float) -> ParamVector:
    """Invert (mean, variance, rho(h1), rho(h2)) of a supOU process exactly.

    With c = log rho(h1) / log rho(h2), B is the unique negative root of
    (1 - B h2)^c + B h1 - 1, found by Brent's method on a bracket that is
    doubled until it holds a sign change; then
    alpha_pi = 1 - log rho(h1) / log(1 - B h1) and mu, sigma2 follow from
    the mean and variance equations.  Exact model moments are recovered to
    the root finder's relative tolerance.
    """
    if not (0.0 < h1 < h2):
        raise InitializationError(f"need 0 < h1 < h2, got {h1}, {h2}")
    if not (0.0 < rho_h2 < rho_h1 < 1.0):
        raise InitializationError(
            f"need 0 < rho(h2) < rho(h1) < 1, got {rho_h1}, {rho_h2}"
        )
    if sample_mean_value <= 0.0 or sample_var_value <= 0.0:
        raise InitializationError("mean and variance must be positive")

    c = math.log(rho_h1) / math.log(rho_h2)
    if c <= h1 / h2:
        raise InitializationError(
            "autocorrelation pair is not consistent with any (alpha_pi, B)"
        )

    def excess(b: float) -> float:
        return (1.0 - b * h2) ** c + b * h1 - 1.0

    hi = -1e-12
    if excess(hi) <= 0.0:
        raise InitializationError("no sign change near zero; degenerate inputs")
    lo = -1.0
    while excess(lo) > 0.0:
        lo *= 2.0
        if lo < -1e12:
            raise InitializationError("root bracketing failed")
    B = brentq(excess, lo, hi, xtol=1e-300)

    alpha_pi = 1.0 - math.log(rho_h1) / math.log1p(-B * h1)
    if alpha_pi <= 1.0:
        raise InitializationError(f"recovered alpha_pi = {alpha_pi} is not > 1")
    mu = -sample_mean_value * B * (alpha_pi - 1.0)
    sigma2 = -2.0 * sample_var_value * B * (alpha_pi - 1.0)
    return ParamVector(mu=mu, sigma2=sigma2, alpha_pi=alpha_pi, B=B)


def _rescale_for_kind(alpha_pi: float, B: float, mean: float, var: float,
                      conditions: MomentConditionSet) -> ParamVector:
    # mu, sigma2 matching the kind's own mean/variance equations at (alpha, B):
    # E z = k mu, and var z = sigma2 w_1 + (c_1 - 1) (E z)^2, which for SV
    # returns is 3 var(V) + 2 E(V)^2; that excess falls back to var z
    k, columns = _model_columns(alpha_pi, B, conditions)
    excess = var - (columns[1, 1] - 1.0) * mean * mean
    return ParamVector(mean / k, (excess if excess > 0.0 else var) / columns[1, 2], alpha_pi, B)


def _require_dispersion(mean: float, var: float) -> None:
    # a numerically constant series has variance at rounding level only
    if not (mean > 0.0 and math.sqrt(var) > 1e-12 * max(abs(mean), 1e-300)):
        raise InitializationError("degenerate series: nonpositive mean or no dispersion")


def _cold_shape(conditions: MomentConditionSet) -> Tuple[float, float]:
    """The default start shape (alpha_pi, B) = (4, -0.1/delta).

    Raises DomainError naming delta when the moment formulas cannot be
    evaluated there.
    """
    alpha, B = 4.0, -0.1 / conditions.delta
    try:
        with np.errstate(over="raise", invalid="raise"):
            k, columns = _model_columns(alpha, B, conditions)
        if not (math.isfinite(k) and np.all(np.isfinite(columns))):
            raise DomainError("non-finite moments")
    except (ArithmeticError, DomainError) as exc:
        raise DomainError(f"delta={conditions.delta} is out of range: the moment formulas "
                          f"cannot be evaluated at the start B = -0.1/delta") from exc
    return alpha, B


def initial_estimate(data, conditions: MomentConditionSet) -> ParamVector:
    """Data-driven starting point from empirical moments.

    Applies the closed-form inversion to the empirical acf shape at lags 1
    and 2 (of squared returns for the SV kind), then rescales mu and sigma2
    through the kind's own mean/variance equations.  Falls back to a
    fixed-shape inversion at (alpha_pi=4, B=-0.1/delta) when the empirical
    acf is unusable; raises InitializationError when even that fails
    (degenerate data).
    """
    z = _estimation_series(data, conditions.kind)
    if z.size < 3:
        raise InitializationError("need at least 3 observations to initialize")
    mean, var = sample_mean(z), sample_var(z)
    _require_dispersion(mean, var)
    try:
        h = conditions.delta
        base = closed_form_init(mean, var, sample_acf(z, 1), sample_acf(z, 2), h, 2.0 * h)
        return _rescale_for_kind(base.alpha_pi, base.B, mean, var, conditions)
    except (InitializationError, ParameterError, DataError):
        return _rescale_for_kind(*_cold_shape(conditions), mean, var, conditions)


# ---------------------------------------------------------------------------
# two-step procedure
# ---------------------------------------------------------------------------

def _stationary_means(gram: list) -> list:
    """The m > 0 where |p - m q - m^2 s|^2 is stationary, from the Gram
    matrix (nested lists) of columns whose first three are p, q and s.

    Half its slope in m is the cubic 2 ss m^3 + 3 qs m^2 + (qq - 2 ps) m - pq.
    Its real roots come from Cardano's formula (one root) or the
    trigonometric one (three), each polished by a Newton step.
    """
    (_, pq, ps, *_), (_, qq, qs, *_), (_, _, ss, *_) = gram[:3]
    # m^3 + 3 shift m^2 + c m + d = 0, and t^3 + P t + Q = 0 with t = m + shift
    shift, c, d = 0.5 * qs / ss, (0.5 * qq - ps) / ss, -0.5 * pq / ss
    P, Q = c - 3.0 * shift * shift, (2.0 * shift * shift - c) * shift + d
    disc = 0.25 * Q * Q + P * P * P / 27.0
    if disc >= 0.0:
        u = math.cbrt(-0.5 * Q - math.copysign(math.sqrt(disc), Q))
        roots = [u - P / (3.0 * u) if u else 0.0]
    else:
        r = 2.0 * math.sqrt(-P / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * Q / (P * r)))) / 3.0
        roots = [r * math.cos(phi - 2.0 * math.pi * j / 3.0) for j in range(3)]
    roots = [x - (((x + 3.0 * shift) * x + c) * x + d) / ((3.0 * x + 6.0 * shift) * x + c)
             for x in (t - shift for t in roots)]
    return [x for x in roots if x > 0.0]


def _mean_fit(gram: list, m: float) -> float:
    """|p - m q - m^2 s|^2 from the Gram matrix of `_stationary_means`."""
    (pp, pq, ps, *_), (_, qq, qs, *_), (_, _, ss, *_) = gram[:3]
    return pp + m * (-2.0 * pq + m * (qq - 2.0 * ps + m * (2.0 * qs + m * ss)))


def _profile(base: np.ndarray, W: np.ndarray,
             model: Callable) -> Tuple[Callable, Callable, Callable]:
    """The criterion g' W g as a function of the shape theta alone.

    With W = L L', p = L'b, q = L'e_0, s = L'c and v = L'w (model(alpha_pi,
    B) is `_model_columns` at the conditions), the best m > 0 and sigma2 > 0
    at a shape are closed-form (variable projection, Golub & Pereyra 1973).
    At a given m the best sigma2 is v'(p - m q - m^2 s) / v'v, or the face
    sigma2 = 0 where that is not positive; the best m is a stationary point of the criterion with v
    projected out, or of the criterion without v, or the face m = 0
    (`_stationary_means`), whichever fits best.  Each face stands at the
    least positive normal float.  The residuals are L' g there, and the
    Jacobian is Kaufman's (1975): minus sigma2 times the shape slopes of v
    with v and the slope in m of the residuals projected out, so J'r is the
    exact gradient.  On the face sigma2 = 0 the targets do not depend on the
    shape, and the Jacobian is nil.

    Returns (evaluate, residuals, jac): evaluate(theta) gives the
    ParamVector of the profiled mu = m / k and sigma2, the residuals, the
    Jacobian and whether the fit is on a face, and keeps them, so each
    shape is evaluated once.  A shape where the moment formulas fail has
    infinite residuals.
    """
    Lt = np.linalg.cholesky(W).T
    least = sys.float_info.min
    evaluated: Dict[bytes, tuple] = {}  # (estimate or None, residuals, Jacobian, on a face)

    def evaluate(theta: np.ndarray) -> Tuple[Optional[ParamVector], np.ndarray,
                                             np.ndarray, bool]:
        key = theta.tobytes()
        if key not in evaluated:
            try:
                alpha, B = 1.0 + math.exp(theta[0]), -math.exp(theta[1])
                k, columns = model(alpha, B)
                # p, q, s, v and the two slopes of v; in Xv, v is projected out
                X = Lt @ np.concatenate((base[:, None], columns), axis=1)
                G = X.T @ X
                Xv = X - X[:, 3:4] * (G[3] * (1.0 / G[3, 3]))
                G, Gv = G.tolist(), (Xv.T @ Xv).tolist()
                vp, vq, vs, vv = G[3][:4]
                # each m fits with the best sigma2 >= 0 at it: v'(p - m q - m^2 s) / v'v
                m = min(_stationary_means(Gv) + _stationary_means(G) + [least],
                        key=lambda m: _mean_fit(Gv if vp - m * (vq + m * vs) > 0.0 else G, m))
                sigma2 = max((vp - m * (vq + m * vs)) / vv, least)
                # y = q + 2 m s, the slope of the residuals in m, and the slopes of
                # v on it, with v projected out
                yy = Gv[1][1] + 4.0 * m * (Gv[1][2] + m * Gv[2][2])
                c = [(Gv[1][j] + 2.0 * m * Gv[2][j]) / yy if m > least else 0.0 for j in (4, 5)]
                J = sigma2 * (np.outer(Xv[:, 1] + 2.0 * m * Xv[:, 2], c) - Xv[:, 4:])
                evaluated[key] = (ParamVector(m / k, sigma2, alpha, B),
                                  X[:, :4] @ (1.0, -m, -m * m, -sigma2), J, least in (m, sigma2))
            except (ParameterError, DomainError, OverflowError, ZeroDivisionError):
                evaluated[key] = (None, np.full(base.size, np.inf), None, False)
        return evaluated[key]

    return evaluate, lambda theta: evaluate(theta)[1], lambda theta: evaluate(theta)[2]


def two_step_gmm(
    data,
    kind: ModelKind,
    conditions: Optional[MomentConditionSet] = None,
    start: Optional[ParamVector] = None,
) -> GmmResult:
    """Two-step iterated GMM: identity weighting, then inverse moment covariance.

    Both steps search the acf shape (alpha_pi, B) alone; mu and sigma2 are
    the best ones at each shape (`_profile`).  Step 1 begins at the shape
    of `start` when one is given (e.g. a recovery study seeding near the
    truth; its mu and sigma2 are not used), else at alpha_pi = 4,
    B = -0.1/delta.  Step 2 begins at the step-1 shape.  Both steps search
    the same log-scale box of half-width PARAMETER_BOX around the start
    shape.  A step whose best mu or sigma2 ends on its face (the least
    positive float) stopped at "at_box_edge", as one whose shape ends on a
    face of the box.  The procedure is deterministic; once step 1 has
    started a result is returned, and why each step stopped is reported,
    never silently.

    For the SV kind the data are raw log returns; demeaning them first is
    the caller's responsibility.
    """
    if conditions is None:
        conditions = default_conditions(kind)
    elif conditions.kind is not kind:
        raise DomainError(f"conditions are for kind {conditions.kind}, not {kind}")

    summary = _window_moments(_estimation_series(data, kind), conditions)
    base = summary.mean
    if start is None:
        _require_dispersion(base[0], summary.cov[0, 0])
    alpha, B = _cold_shape(conditions) if start is None else (start.alpha_pi, start.B)
    center = np.log([alpha - 1.0, -B])
    # this call's evaluations of each shape: step 2 starts at the step-1
    # shape, and the objectives are at both estimates.  Kept no longer, so
    # another fit evaluates its shapes afresh.
    model = cache(partial(_model_columns, conditions=conditions))

    def fit(W: np.ndarray, theta0: np.ndarray) -> Tuple[np.ndarray, ParamVector, str]:
        evaluate, residuals, jac = _profile(base, W, model)
        theta, stop = minimize(residuals, jac, theta0, center)
        beta, _, _, on_face = evaluate(theta)
        return theta, beta, ("at_box_edge" if on_face else stop)

    theta1, beta1, stop1 = fit(np.eye(conditions.d), center)
    weighting = estimate_weighting(summary, beta1, conditions)
    _, beta2, stop2 = fit(weighting, theta1)

    # the values of `objective` (identity weighting in step 1), without
    # rebuilding the data products
    g1 = base - _moment_targets(beta1, model)
    g2 = base - _moment_targets(beta2, model)
    return GmmResult(
        conditions=conditions,
        step1_estimate=beta1,
        step2_estimate=beta2,
        step1_objective=float(g1 @ g1),
        step2_objective=float(g2 @ weighting @ g2),
        n_used=summary.n,
        step1_stop=stop1,
        step2_stop=stop2,
    )
