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
                 var(V) = sigma2 R(1) / ((-B)^3 (a-1))
                 cov(V_1, V_{1+h}) = sigma2 (R(1 + s h) + L(1 + s (h-1)))
                                     / (2 (-B)^3 (a-1))
    squared SV log returns:
                 E(Y^2) = E(V),  var(Y^2) = 3 var(V) + 2 E(V)^2,
                 cov(Y^2_1, Y^2_{1+h}) = cov(V_1, V_{1+h})

with a = alpha_pi, d = delta and s = -B d.  The integrated moments are the
acf integrated against the tent on (-s, s), in units q = -B tau.  Split at
its peak, each side is a positive integral at a base y > 0; with c = 3 - a,
l = log1p(s / y) and E(z) = (e^z - 1) / z,

    R(y) = int_0^s (s - q) (y + q)^(1-a) dq = y^c l ((1 + s/y) E((c-1) l) - E(c l))
    L(y) = int_0^s q (y + q)^(1-a) dq       = y^c l (E(c l) - E((c-1) l))

E is entire, so there is no 0/0 at a in {2, 3}, and a sum of two positive
sides cancels nothing between lags.

For the GMM Jacobian, `_supou_unit_slopes` and `_int_unit_slopes` give the
variance and autocovariances at sigma2 = 1 (the units) together with their
slopes in log(a-1) and log(-B).  The integrated units exist only there:
`_int_var_unit` and `_int_acov_units` are slices of `_int_unit_slopes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np
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


def _supou_unit_slopes(alpha: float, B: float,
                       h: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """var(X), then cov(X_0, X_h) at each real lag in h, for sigma2 = 1, and
    their slopes in log(alpha - 1) and in log(-B)."""
    Bh = B * h
    acf = (1.0 - Bh) ** (1.0 - alpha)
    units = -1.0 / (2.0 * B * (alpha - 1.0)) * np.concatenate(([1.0], acf))
    # the "- units" terms: var(X) is proportional to 1 / ((alpha - 1) (-B))
    d_alpha = units * np.concatenate(([0.0], (1.0 - alpha) * np.log1p(-Bh))) - units
    d_B = units * np.concatenate(([0.0], (alpha - 1.0) * Bh / (1.0 - Bh))) - units
    return units, d_alpha, d_B


# ---------------------------------------------------------------------------
# integrated supOU process
# ---------------------------------------------------------------------------

def intsupou_mean(beta: ParamVector, delta: float) -> float:
    """Mean of one integral of the supOU process over an interval of length delta."""
    delta = _check_delta(delta)
    beta.require_positive_mean()
    return delta * supou_mean(beta)


def _int_var_unit(alpha: float, B: float, delta: float) -> float:
    # var(V_1) for sigma2 = 1
    return float(_int_unit_slopes(alpha, B, delta, np.empty(0))[0][0])


def intsupou_var(beta: ParamVector, delta: float) -> float:
    """Variance of the integrated supOU process over intervals of length delta."""
    delta = _check_delta(delta)
    beta.require_positive_mean()
    return beta.sigma2 * _int_var_unit(beta.alpha_pi, beta.B, delta)


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

    The units are tent sides R(y) and L(y) over 2 (-B)^3 (a-1) at the bases
    y = 1 + s k: the variance is twice R at k = 0, and lag h sums R at k = h
    and L at k = h - 1.  A side's slope in c = 3 - a swaps each E(k l) for
    l E'(k l) and adds log(y) times the side.  Each unit u has
    du/dlog(-B) = a (u(a+1) - u(a)) by the tent's scaling in B, and u(a+1)
    is the tent sum at c - 1, whose y^(c-1) is y^c / y.
    """
    if B**3 == 0.0:  # underflow; the formulas are meaningless this close to 0
        raise ParameterError(f"B={B} too close to zero for the integrated formulas")
    n = hs.size
    s = -B * delta
    y = 1.0 + s * np.concatenate(([0.0], hs, hs - 1.0))
    x = s / y
    l = np.log1p(x)
    p = y ** (3.0 - alpha) * l / (2.0 * (-B) ** 3 * (alpha - 1.0))
    z = (3.0 - alpha - np.arange(3.0)[:, None]) * l  # rows c l, (c-1) l, (c-2) l
    e = exprel(z)
    # one (lo, hi) pair per row, in place of (E(c l), E((c-1) l)): the units
    # u, du/dc, and u(a+1) a / (a-1)
    lo, hi = np.stack([e[:2], np.log(y) * e[:2] + l * _exprel_slope(z[:2]), e[1:] / y],
                      axis=1)
    left = p * (lo - hi)
    right = p * x * hi - left  # R = p ((1 + x) hi - lo)
    right[:, 0] *= 2.0
    right[:, 1:n + 1] += left[:, n + 1:]
    units, by_c, next_alpha = right[:, :n + 1]
    return units, (1.0 - alpha) * by_c - units, (alpha - 1.0) * next_alpha - alpha * units


def _int_acov_units(alpha: float, B: float, delta: float, hs: np.ndarray) -> np.ndarray:
    # cov(V_1, V_{1+h}) for sigma2 = 1 at each lag in hs
    return _int_unit_slopes(alpha, B, delta, hs)[0][1:]


def intsupou_acov(beta: ParamVector, delta: float, h: ArrayLike) -> ArrayLike:
    """Autocovariance of the integrated supOU process at real lag(s) h >= 1."""
    delta = _check_delta(delta)
    h = _check_lag(h, 1.0)
    beta.require_positive_mean()
    units = _int_acov_units(beta.alpha_pi, beta.B, delta, np.ravel(h))
    return beta.sigma2 * (units.reshape(np.shape(h)) if np.ndim(h) else float(units[0]))


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


def sv_sqret_acov(beta: ParamVector, delta: float, h: ArrayLike) -> ArrayLike:
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
    # only this oracle integrates, so importing the package leaves scipy.integrate out
    from scipy.integrate import quad

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
