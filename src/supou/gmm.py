"""Two-step iterated GMM estimation for all three model kinds.

The moment function stacks the mean condition, the variance (for squared SV
returns: fourth moment) condition and one autocovariance condition per lag
in the lag set; its expectation under the stationary law vanishes exactly at
the true parameter.  Estimation minimizes the quadratic form g' W g of the
sample moments, first with the identity weighting, then with the inverse of
the estimated moment covariance from step one.  With W = L L' the criterion
is the sum of squares of L' g, so each step is one bounded nonlinear
least-squares fit (scipy's trust-region reflective method) in log
coordinates, inside a fixed log-scale box around the step-1 start.  The
residuals' Jacobian -L' dtargets/dtheta is in closed form, like the moment
targets themselves.

The sample moments and the moment covariance are sums over the N-m windows,
taken one block of _WINDOW_BLOCK windows at a time: an estimate holds the
series and one block of window products, never the full (N-m) x d matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional, Tuple

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
from .moments import (
    _int_acov_units,
    _int_unit_slopes,
    _int_var_unit,
    intsupou_mean,
    intsupou_var,
    supou_acov,
    supou_mean,
    supou_var,
)
from .params import ModelKind, ParamVector, annualize

__all__ = [
    "MomentConditionSet",
    "GmmResult",
    "default_conditions",
    "sample_moments",
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


# half-width (log scale, around the step-1 start) of the compact parameter
# space that both steps search, which the consistency theory assumes anyway
PARAMETER_BOX = 6.0

# a fit that ends within this many log units of a face of the box stopped on
# the box: trf only reports a bound as active within a relative xtol of it
_EDGE_SLACK = 1e-3

# ridge added to the moment covariance, relative to its mean diagonal
_RIDGE_SCALE = 1e-10

# windows per block of the moment sums, 1.3 MB of products at d = 10; it
# holds every window of a study at 10^4 observations, so a study sums one
# matrix of all its windows and its outputs do not depend on the block size
_WINDOW_BLOCK = 1 << 14


@dataclass(frozen=True)
class GmmResult:
    """Estimates and diagnostics of both GMM steps.

    step1_stop and step2_stop say why each fit stopped: "converged",
    "max_evaluations" or "at_box_edge" (see `minimize`).
    """

    conditions: MomentConditionSet
    step1_estimate: ParamVector
    step2_estimate: ParamVector
    step1_objective: float
    step2_objective: float
    weighting: np.ndarray
    n_used: int
    step1_stop: str
    step2_stop: str

    @property
    def converged_step1(self) -> bool:
        return self.step1_stop == "converged"

    @property
    def converged_step2(self) -> bool:
        return self.step2_stop == "converged"

    def to_dict(self, annualize_factor: Optional[float] = None) -> Dict:
        """JSON-ready summary with a fixed field order."""
        out: Dict = {
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
        if annualize_factor is not None:
            out["annualize_factor"] = annualize_factor
            out["step2_estimate_annualized"] = asdict(
                annualize(self.step2_estimate, annualize_factor)
            )
        return out


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


def _moment_targets(beta: ParamVector, conditions: MomentConditionSet) -> np.ndarray:
    """Model values of (E z, E z^2, E z_1 z_{1+h} ...) for the estimation series z."""
    kind, delta = conditions.kind, conditions.delta
    lags = np.asarray(conditions.lags, dtype=float)
    # mean, variance and autocovariances of X, or of V for both other kinds
    if kind is ModelKind.SUPOU:
        mean = supou_mean(beta)
        var = supou_var(beta)
        acov = supou_acov(beta, lags * delta)
    else:
        mean = intsupou_mean(beta, delta)
        var = intsupou_var(beta, delta)
        acov = beta.sigma2 * _int_acov_units(beta.alpha_pi, beta.B, delta, lags)
    # squared SV returns have E(Y^4) = 3 E(V^2)
    second = 3.0 * (var + mean * mean) if kind is ModelKind.SV else mean * mean + var
    return np.concatenate(([mean, second], mean * mean + acov))


def _moment_jacobian(beta: ParamVector, conditions: MomentConditionSet) -> np.ndarray:
    """d x 4 Jacobian of `_moment_targets` in theta = `transform(beta)`.

    The mean is proportional to mu / (-B (alpha_pi - 1)); every other target
    is mean^2 plus sigma2 times a unit moment of (alpha_pi, B) alone (the SV
    fourth moment is three times that), whose slopes `moments` has in closed
    form.
    """
    kind, delta = conditions.kind, conditions.delta
    lags = np.asarray(conditions.lags, dtype=float)
    a, B = beta.alpha_pi, beta.B
    # not through supou_mean: the benchmark's tracer counts its calls as
    # criterion evaluations
    mean = -beta.mu / (B * (a - 1.0))
    if kind is ModelKind.SUPOU:
        # var(X) times the unit moments (1, acf(h) ...)
        scale = supou_var(beta)
        Bh = B * delta * lags
        log_w = np.log1p(-Bh)
        acf = np.exp((1.0 - a) * log_w)
        units = np.concatenate([[1.0], acf])
        d_alpha = np.concatenate([[0.0], -(a - 1.0) * log_w * acf]) - units
        d_B = np.concatenate([[0.0], (a - 1.0) * Bh / (1.0 - Bh) * acf]) - units
    else:
        mean *= delta
        scale = beta.sigma2
        units, d_alpha, d_B = _int_unit_slopes(a, B, delta, lags)
    jac = np.empty((conditions.d, 4))
    jac[0] = mean * np.array([1.0, 0.0, -1.0, -1.0])
    jac[1:] = 2.0 * mean * jac[0]
    jac[1:, 1] += scale * units
    jac[1:, 2] += scale * d_alpha
    jac[1:, 3] += scale * d_B
    if kind is ModelKind.SV:
        jac[1] *= 3.0
    return jac


def _window_blocks(z: np.ndarray, conditions: MomentConditionSet):
    """Data products (z_t, z_t^2, z_t z_{t+h} ...) of the N-m windows t.

    One row per window, yielded a block of _WINDOW_BLOCK rows at a time.
    """
    n = z.size - conditions.m
    if n < 1:
        raise DataError(f"need more than m = {conditions.m} observations, got {z.size}")
    for start in range(0, n, _WINDOW_BLOCK):
        k = min(_WINDOW_BLOCK, n - start)
        # filled in place row by row and transposed, so each column is
        # contiguous and column sums sum pairwise
        rows = np.empty((conditions.d, k))
        rows[0] = z[start:start + k]
        for row, h in zip(rows[1:], (0,) + conditions.lags):
            np.multiply(rows[0], z[start + h:start + h + k], out=row)
        yield rows.T


def _window_means(z: np.ndarray, conditions: MomentConditionSet) -> np.ndarray:
    """Column means of the window products: block sums over N-m."""
    total = np.zeros(conditions.d)
    for block in _window_blocks(z, conditions):
        total += block.sum(axis=0)
    return total / (z.size - conditions.m)


def sample_moments(data, beta: ParamVector, conditions: MomentConditionSet) -> np.ndarray:
    """Average of the moment function over all N-m sliding windows.

    On a window of exactly m+1 observations this is the moment function
    itself.
    """
    z = _estimation_series(data, conditions.kind)
    return _window_means(z, conditions) - _moment_targets(beta, conditions)


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
    """GMM criterion g' W g for sample moments g and positive definite W."""
    W = _require_pd(W, conditions.d)
    g = sample_moments(data, beta, conditions)
    return float(g @ W @ g)


def estimate_weighting(data, beta1: ParamVector, conditions: MomentConditionSet) -> np.ndarray:
    """Inverse of the (ridge-regularized) moment covariance at the step-1 estimate.

    S = (1/n) sum_t f(window_t, beta1) f(window_t, beta1)', summed a block of
    windows at a time (see `_window_blocks`).  A ridge of
    _RIDGE_SCALE times the mean diagonal keeps S invertible in the
    near-singular cases that show up for large lag sets; if S stays
    non-invertible anyway, SingularWeightingError is raised.
    """
    z = _estimation_series(data, conditions.kind)
    n = z.size - conditions.m
    if n < conditions.d:
        raise DataError(f"need at least d = {conditions.d} windows, got {n}")
    targets = _moment_targets(beta1, conditions)
    S = np.zeros((conditions.d, conditions.d))
    for F in _window_blocks(z, conditions):
        F -= targets
        S += F.T @ F
    S /= n
    # each F.T @ F is a symmetric rank-k update, so S is exactly symmetric
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
                      kind: ModelKind, delta: float) -> ParamVector:
    # mu, sigma2 matching the kind's own mean/variance equations at (alpha, B)
    if kind is ModelKind.SUPOU:
        return ParamVector(
            mu=-mean * B * (alpha_pi - 1.0),
            sigma2=-2.0 * var * B * (alpha_pi - 1.0),
            alpha_pi=alpha_pi,
            B=B,
        )
    mu = -mean * B * (alpha_pi - 1.0) / delta
    unit_var = _int_var_unit(alpha_pi, B, delta)
    if kind is ModelKind.SV:
        var_v = (var - 2.0 * mean * mean) / 3.0
        if var_v <= 0.0:
            var_v = var / 3.0
        sigma2 = var_v / unit_var
    else:
        sigma2 = var / unit_var
    return ParamVector(mu=mu, sigma2=sigma2, alpha_pi=alpha_pi, B=B)


def _require_dispersion(mean: float, var: float) -> None:
    # a numerically constant series has variance at rounding level only
    if not (mean > 0.0 and math.sqrt(var) > 1e-12 * max(abs(mean), 1e-300)):
        raise InitializationError("degenerate series: nonpositive mean or no dispersion")


def _moment_matched_start(z: np.ndarray, conditions: MomentConditionSet) -> ParamVector:
    """Crude default start: fixed acf shape, mean/variance matched to the data.

    z is the estimation series of `_estimation_series`.  Raises DomainError
    naming delta when the moment formulas cannot be evaluated at the start,
    B = -0.1 / delta.
    """
    mean, var = sample_mean(z), sample_var(z)
    _require_dispersion(mean, var)
    delta = conditions.delta
    message = (f"delta={delta} is out of range: the moment formulas cannot be "
               f"evaluated at the start B = -0.1/delta")
    try:
        with np.errstate(over="raise", invalid="raise"):
            start = _rescale_for_kind(4.0, -0.1 / delta, mean, var, conditions.kind, delta)
            finite = np.all(np.isfinite(_moment_targets(start, conditions)))
    except (ArithmeticError, DomainError) as exc:
        raise DomainError(message) from exc
    if not finite:
        raise DomainError(message)
    return start


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
    delta = conditions.delta
    try:
        rho1, rho2 = sample_acf(z, 1), sample_acf(z, 2)
        base = closed_form_init(mean, var, rho1, rho2, delta, 2.0 * delta)
        return _rescale_for_kind(base.alpha_pi, base.B, mean, var,
                                 conditions.kind, delta)
    except (InitializationError, ParameterError, DataError):
        return _moment_matched_start(z, conditions)


# ---------------------------------------------------------------------------
# two-step procedure
# ---------------------------------------------------------------------------

def _residuals(base: np.ndarray, W: np.ndarray,
               conditions: MomentConditionSet) -> Tuple[Callable, Callable]:
    # L' g with W = L L', so that the sum of squares is the criterion g' W g,
    # and its Jacobian -L' dtargets/dtheta
    L = np.linalg.cholesky(W)

    def fn(theta: np.ndarray) -> np.ndarray:
        try:
            g = base - _moment_targets(untransform(theta), conditions)
        except (ParameterError, DomainError, OverflowError, ZeroDivisionError):
            return np.full(base.size, np.inf)
        return L.T @ g

    def jac(theta: np.ndarray) -> np.ndarray:
        return -L.T @ _moment_jacobian(untransform(theta), conditions)

    return fn, jac


def two_step_gmm(
    data,
    kind: ModelKind,
    conditions: Optional[MomentConditionSet] = None,
    start: Optional[ParamVector] = None,
) -> GmmResult:
    """Two-step iterated GMM: identity weighting, then inverse moment covariance.

    Step 1 begins at `start` when one is given (e.g. a recovery study
    seeding near the truth), else at a crude point that matches only the
    sample mean and variance at a fixed acf shape.  Step 2 begins at the
    step-1 estimate.  Both steps search the same log-scale box of half-width
    PARAMETER_BOX around the step-1 start.  The procedure is deterministic;
    a result is always returned, and why each step stopped is reported,
    never silently.

    For the SV kind the data are raw log returns; demeaning them first is
    the caller's responsibility.
    """
    if conditions is None:
        conditions = default_conditions(kind)
    elif conditions.kind is not kind:
        raise DomainError(f"conditions are for kind {conditions.kind}, not {kind}")

    z = _estimation_series(data, kind)
    base = _window_means(z, conditions)
    n_used = z.size - conditions.m
    if start is None:
        start = _moment_matched_start(z, conditions)
    center = transform(start)

    theta1, stop1 = minimize(*_residuals(base, np.eye(conditions.d), conditions), center, center)
    beta1 = untransform(theta1)

    weighting = estimate_weighting(data, beta1, conditions)
    theta2, stop2 = minimize(*_residuals(base, weighting, conditions), theta1, center)
    beta2 = untransform(theta2)

    # the values of `objective` (identity weighting in step 1), without
    # rebuilding the data products
    g1 = base - _moment_targets(beta1, conditions)
    g2 = base - _moment_targets(beta2, conditions)
    return GmmResult(
        conditions=conditions,
        step1_estimate=beta1,
        step2_estimate=beta2,
        step1_objective=float(g1 @ g1),
        step2_objective=float(g2 @ weighting @ g2),
        weighting=weighting,
        n_used=n_used,
        step1_stop=stop1,
        step2_stop=stop2,
    )
