"""First and second order moment structure of the three model kinds.

Closed forms under the mirrored-Gamma mean-reversion law, plus an adaptive
quadrature oracle that evaluates the underlying mixture integrals directly.
The two routes are independent: the closed forms never call the oracle and
vice versa, so each can validate the other.

All closed forms:

    supOU:       E(X)   = -mu / (B (a-1))
                 var(X) = -sigma2 / (2 B (a-1))
                 cov(X_0, X_h) = var(X) * (1 - B h)^(1-a)
    integrated:  E(V)   = delta * E(X)
                 var(V) = -sigma2 * ((1-B d)^(3-a) - 1 - d B (a-3))
                          / (B^3 (a-1)(a-2)(a-3))
                 cov(V_1, V_{1+h}) = -sigma2 * (F(h+1) - 2 F(h) + F(h-1))
                          / (2 B^3 (a-1)(a-2)(a-3)),  F(h) = (1 - B d h)^(3-a)
    squared SV log returns:
                 E(Y^2) = E(V),  var(Y^2) = 3 var(V) + 2 E(V)^2,
                 cov(Y^2_1, Y^2_{1+h}) = cov(V_1, V_{1+h})

with a = alpha_pi and d = delta.  The integrated formulas are 0/0 at
a in {2, 3} and cancel near there; within NEAR_SINGULAR of those points
they are evaluated in partial fractions instead (see `_partial_fractions`),
which contain the analytic limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import exprel, gammaln

from .errors import DomainError, ParameterError, QuadratureError
from .params import ModelKind, ParamVector

__all__ = [
    "supou_mean",
    "supou_var",
    "supou_acf",
    "supou_acov",
    "intsupou_mean",
    "intsupou_var",
    "intsupou_acov",
    "sv_sqret_mean",
    "sv_sqret_var",
    "sv_sqret_acov",
    "MomentSet",
    "gamma_mix_integral",
    "quadrature_moments",
]

# |alpha_pi - k| below this evaluates the integrated formulas in partial
# fractions: at 1e-6 from k the closed forms lose 5 digits to cancellation
NEAR_SINGULAR = 0.1

# relative tolerance of the quadrature oracle
_QUAD_REL_TOL = 1e-11

ArrayLike = Union[float, np.ndarray]


def _check_lag(h: ArrayLike, minimum: float) -> ArrayLike:
    arr = np.asarray(h, dtype=float)
    if np.any(arr < minimum) or not np.all(np.isfinite(arr)):
        raise DomainError(f"lag must be >= {minimum} and finite, got {h}")
    return arr if arr.ndim else float(arr)


def _check_delta(delta: float) -> float:
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError(f"delta must be > 0, got {delta}")
    return float(delta)


# ---------------------------------------------------------------------------
# supOU process
# ---------------------------------------------------------------------------

def supou_mean(beta: ParamVector) -> float:
    """Stationary mean of the supOU process."""
    return -beta.mu / (beta.B * (beta.alpha_pi - 1.0))


def supou_var(beta: ParamVector) -> float:
    """Stationary variance of the supOU process."""
    return -beta.sigma2 / (2.0 * beta.B * (beta.alpha_pi - 1.0))


def supou_acf(beta: ParamVector, h: ArrayLike) -> ArrayLike:
    """Autocorrelation (1 - B h)^(1 - alpha_pi) at real lag h >= 0."""
    h = _check_lag(h, 0.0)
    return (1.0 - beta.B * h) ** (1.0 - beta.alpha_pi)


def supou_acov(beta: ParamVector, h: ArrayLike) -> ArrayLike:
    """Autocovariance of the supOU process at real lag h >= 0."""
    return supou_var(beta) * supou_acf(beta, h)


# ---------------------------------------------------------------------------
# integrated supOU process
# ---------------------------------------------------------------------------

def intsupou_mean(beta: ParamVector, delta: float) -> float:
    """Mean of one integral of the supOU process over an interval of length delta."""
    delta = _check_delta(delta)
    beta.require_positive_mean()
    return delta * supou_mean(beta)


def _near_singular(alpha: float) -> bool:
    return min(abs(alpha - 2.0), abs(alpha - 3.0)) < NEAR_SINGULAR


def _partial_fractions(alpha: float, L, w):
    # (w^(3-a) - 1 - (3-a)(w-1)) / ((a-2)(a-3)) at w = e^L, the closed-form
    # numerator over the factors that vanish with it, as
    # L (w E((2-a) L) - E((3-a) L)) with E(y) = (e^y - 1)/y: no 0/0 at a in {2, 3}
    return L * (w * exprel((2.0 - alpha) * L) - exprel((3.0 - alpha) * L))


def _int_var_unit(alpha: float, B: float, delta: float) -> float:
    # var(V_1) for sigma2 = 1
    if B**3 == 0.0:  # underflow; the formulas are meaningless this close to 0
        raise ParameterError(f"B={B} too close to zero for the integrated formulas")
    L = math.log1p(-B * delta)
    if _near_singular(alpha):
        return -float(_partial_fractions(alpha, L, 1.0 - B * delta)) / (B**3 * (alpha - 1.0))
    # expm1 keeps the numerator stable as alpha approaches the singular points
    num = math.expm1((3.0 - alpha) * L) - delta * B * (alpha - 3.0)
    den = B**3 * (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0)
    if den == 0.0:  # underflow for extreme (alpha, B); the formula is meaningless there
        raise ParameterError(f"parameters too extreme for the variance formula: "
                             f"alpha_pi={alpha}, B={B}")
    return -num / den


def intsupou_var(beta: ParamVector, delta: float) -> float:
    """Variance of the integrated supOU process over intervals of length delta."""
    delta = _check_delta(delta)
    beta.require_positive_mean()
    return beta.sigma2 * _int_var_unit(beta.alpha_pi, beta.B, delta)


def _int_acov_units(alpha: float, B: float, delta: float, hs: np.ndarray) -> np.ndarray:
    # cov(V_1, V_{1+h}) for sigma2 = 1 at each lag in hs
    if B**3 == 0.0:
        raise ParameterError(f"B={B} too close to zero for the integrated formulas")
    n = hs.size
    x = -B * delta * np.concatenate([hs - 1.0, hs, hs + 1.0])
    if _near_singular(alpha):
        # the partial fractions' linear term in h has no second difference
        f = _partial_fractions(alpha, np.log1p(x), 1.0 + x)
        scale = -1.0 / (2.0 * B**3 * (alpha - 1.0))
    else:
        f = np.expm1((3.0 - alpha) * np.log1p(x))
        den = 2.0 * B**3 * (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0)
        if den == 0.0:
            raise ParameterError(f"parameters too extreme for the covariance formula: "
                                 f"alpha_pi={alpha}, B={B}")
        scale = -1.0 / den
    return scale * (f[2 * n:] - 2.0 * f[n:2 * n] + f[:n])


def _exprel_slope(y: np.ndarray) -> np.ndarray:
    # d/dy (e^y - 1)/y; its Taylor series where the closed form cancels
    small = np.abs(y) < 1e-2
    z = np.where(small, 1.0, y)
    closed = (z * np.exp(z) - np.expm1(z)) / (z * z)
    series = 1 / 2 + y * (1 / 3 + y * (1 / 8 + y * (1 / 30 + y * (1 / 144 + y / 840))))
    return np.where(small, series, closed)


def _int_unit_slopes(alpha: float, B: float, delta: float,
                     hs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """var(V_1), then cov(V_1, V_{1+h}) at each h in hs, for sigma2 = 1, and
    their slopes in log(alpha - 1) and in log(-B).

    Each value is -R / (B^3 (a-1)) with R the variance point, or the halved
    second difference over h-1, h, h+1, of `_partial_fractions`; its slopes
    in a and B have no 0/0 at a in {2, 3} either, so they need no limits.
    """
    n = hs.size
    x = -B * delta * np.concatenate([[1.0], hs - 1.0, hs, hs + 1.0])
    L, w = np.log1p(x), 1.0 + x
    y2, y3 = (2.0 - alpha) * L, (3.0 - alpha) * L

    def combine(p: np.ndarray) -> np.ndarray:
        return np.concatenate([p[:1], 0.5 * (p[1:n + 1] + p[2 * n + 1:]) - p[n + 1:2 * n + 1]])

    R = combine(_partial_fractions(alpha, L, w))
    dR_da = combine(L * L * (_exprel_slope(y3) - w * _exprel_slope(y2)))
    B_dR_dB = combine(x * L * exprel(y2))
    k = B**3 * (alpha - 1.0)
    return -R / k, (R - (alpha - 1.0) * dR_da) / k, (3.0 * R - B_dR_dB) / k


def intsupou_acov(beta: ParamVector, delta: float, h: float) -> float:
    """Autocovariance of the integrated supOU process at lag h >= 1."""
    delta = _check_delta(delta)
    h = _check_lag(h, 1.0)
    beta.require_positive_mean()
    units = _int_acov_units(beta.alpha_pi, beta.B, delta, np.array([float(h)]))
    return beta.sigma2 * float(units[0])


# ---------------------------------------------------------------------------
# squared log returns of the SV model
# ---------------------------------------------------------------------------

def sv_sqret_mean(beta: ParamVector, delta: float) -> float:
    """Mean of the squared log returns: equals the integrated-process mean."""
    return intsupou_mean(beta, delta)


def sv_sqret_var(beta: ParamVector, delta: float) -> float:
    """Variance of the squared log returns: 3 var(V) + 2 E(V)^2."""
    m = intsupou_mean(beta, delta)
    return 3.0 * intsupou_var(beta, delta) + 2.0 * m * m


def sv_sqret_acov(beta: ParamVector, delta: float, h: float) -> float:
    """Autocovariance of squared log returns: identical to the integrated process."""
    return intsupou_acov(beta, delta, h)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSet:
    """Mean, variance and autocovariances at a set of lags."""

    mean: float
    var: float
    acov: Dict[float, float]


def gamma_mix_integral(kernel: Callable[[float], float], alpha_pi: float, B: float) -> float:
    """Integrate kernel(A) against the mirrored-Gamma law of A = B*R.

    Evaluates integral_0^inf kernel(B r) r^(alpha-1) e^(-r) / Gamma(alpha) dr
    by adaptive quadrature, split at r = 1 so the possible algebraic endpoint
    behaviour at 0 is handled apart, and at r = alpha next to the Gamma
    mode, whose narrow peak a quadrature of the whole infinite tail can miss
    entirely for large alpha.

    Raises QuadratureError when the reported error exceeds 100 times the
    relative tolerance _QUAD_REL_TOL.
    """
    log_norm = gammaln(alpha_pi)

    def integrand(r: float) -> float:
        return kernel(B * r) * math.exp((alpha_pi - 1.0) * math.log(r) - r - log_norm)

    edges = (0.0, 1.0, max(alpha_pi, 1.0), np.inf)
    value = err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        v, e = quad(integrand, lo, hi, epsabs=0.0, epsrel=_QUAD_REL_TOL, limit=400)
        value += v
        err += e
    if not math.isfinite(value) or err > 100.0 * _QUAD_REL_TOL * max(abs(value), 1e-300):
        raise QuadratureError(
            f"quadrature reached absolute error {err:.3e} for value {value:.6e}"
        )
    return value


def _h3(u: float) -> float:
    # (e^u - 1 - u) / u^3, stable for small |u|
    if abs(u) >= 0.01:
        return (math.expm1(u) - u) / u**3
    return (
        1.0 / (2.0 * u)
        + 1.0 / 6.0
        + u / 24.0
        + u**2 / 120.0
        + u**3 / 720.0
        + u**4 / 5040.0
        + u**5 / 40320.0
        + u**6 / 362880.0
    )


def quadrature_moments(
    beta: ParamVector,
    kind: ModelKind,
    delta: float = 1.0,
    lags: Sequence[float] = (),
) -> MomentSet:
    """Evaluate the mixture-integral moment forms numerically.

    This is the test oracle for the closed forms above: it integrates the
    general integral representations against the Gamma density instead of
    using the (1 - B h)-power expressions.
    """
    a, B = beta.alpha_pi, beta.B

    def mix(kernel: Callable[[float], float]) -> float:
        return gamma_mix_integral(kernel, a, B)

    if kind is ModelKind.SUPOU:
        mean = -beta.mu * mix(lambda x: 1.0 / x)
        var = -beta.sigma2 * mix(lambda x: 1.0 / (2.0 * x))
        acov = {
            float(h): -beta.sigma2 * mix(lambda x, h=float(h): math.exp(x * h) / (2.0 * x))
            for h in lags
        }
        return MomentSet(mean=mean, var=var, acov=acov)

    delta = _check_delta(delta)
    beta.require_positive_mean()
    mean = -delta * beta.mu * mix(lambda x: 1.0 / x)
    var = -beta.sigma2 * mix(lambda x: delta**3 * _h3(x * delta))

    def acov_kernel(x: float, h: float) -> float:
        # (F(h+1) - 2 F(h) + F(h-1)) / (2 A^3) with F(h) = e^(A d h).
        # The sinh form avoids cancellation for small |A d|; the plain
        # exponential differences (all exponents <= 0) avoid overflow for
        # large |A d|, where the three terms are well separated anyway.
        u = x * delta
        if u > -1.0:
            s = math.sinh(u / 2.0)
            return 2.0 * math.exp(u * h) * s * s / x**3
        return (
            math.exp(u * (h + 1.0)) - 2.0 * math.exp(u * h) + math.exp(u * (h - 1.0))
        ) / (2.0 * x**3)

    acov = {
        float(h): -beta.sigma2 * mix(lambda x, h=float(h): acov_kernel(x, h))
        for h in lags
    }

    if kind is ModelKind.INTEGRATED:
        return MomentSet(mean=mean, var=var, acov=acov)
    if kind is ModelKind.SV:
        return MomentSet(mean=mean, var=3.0 * var + 2.0 * mean * mean, acov=acov)
    raise DomainError(f"unknown model kind {kind!r}")
