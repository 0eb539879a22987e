"""Parameter vectors and shared model types.

The semiparametric parameter of every model in this package is the
four-vector (mu, sigma2, alpha_pi, B): mean and variance of the underlying
Levy process per unit time, the Gamma shape of the mean-reversion mixture,
and its (negative) scale, so that the mean-reversion rate of each jump is
distributed as B*R with R ~ Gamma(alpha_pi, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "ModelKind",
    "ParamVector",
    "ObservationSchedule",
    "PiSpec",
    "annualize",
]


class ModelKind(str, Enum):
    """Which process the observations come from."""

    SUPOU = "supou"
    INTEGRATED = "integrated"
    SV = "sv"


@dataclass(frozen=True)
class ParamVector:
    """Model parameters (mu, sigma2, alpha_pi, B).

    Invariants: sigma2 > 0, alpha_pi > 1 and B < 0 so that the process
    exists and has finite second moments.  For the integrated and SV
    models the underlying Levy process must additionally be a subordinator
    with strictly positive mean; that is checked where those models'
    formulas are evaluated, not here.
    """

    mu: float
    sigma2: float
    alpha_pi: float
    B: float

    def __post_init__(self) -> None:
        vals = (self.mu, self.sigma2, self.alpha_pi, self.B)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError(f"parameters must be finite, got {vals}")
        if self.sigma2 <= 0.0:
            raise ParameterError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.alpha_pi <= 1.0:
            raise ParameterError(f"alpha_pi must be > 1, got {self.alpha_pi}")
        if self.B >= 0.0:
            raise ParameterError(f"B must be < 0, got {self.B}")

    def require_positive_mean(self) -> None:
        """Raise unless mu > 0 (subordinator requirement of the integrated/SV models)."""
        if self.mu <= 0.0:
            raise ParameterError(
                f"integrated and SV models need mu > 0, got {self.mu}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.mu, self.sigma2, self.alpha_pi, self.B], dtype=float)


@dataclass(frozen=True)
class ObservationSchedule:
    """Equidistant observation grid: spacing delta, n_obs observations."""

    delta: float
    n_obs: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError(f"delta must be > 0, got {self.delta}")
        if self.n_obs < 1:
            raise DomainError(f"n_obs must be >= 1, got {self.n_obs}")

    @property
    def horizon(self) -> float:
        return self.n_obs * self.delta

    def times(self) -> np.ndarray:
        """Observation times delta, 2*delta, ..., n_obs*delta."""
        return self.delta * np.arange(1, self.n_obs + 1)


@dataclass(frozen=True)
class PiSpec:
    """Mean-reversion law: the mirrored-Gamma specification B*Gamma(alpha_pi, 1).

    Only this family is supported; it is the one under which the closed-form
    moment structure and the estimator are derived.
    """

    alpha_pi: float
    B: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_pi) and self.alpha_pi > 1.0):
            raise ParameterError(f"alpha_pi must be > 1, got {self.alpha_pi}")
        if not (math.isfinite(self.B) and self.B < 0.0):
            raise ParameterError(f"B must be < 0, got {self.B}")

    @classmethod
    def from_params(cls, beta: ParamVector) -> "PiSpec":
        return cls(alpha_pi=beta.alpha_pi, B=beta.B)


def annualize(beta: ParamVector, factor: float) -> ParamVector:
    """Rescale parameters to a time unit `factor` times longer.

    mu, sigma2 and B scale proportionally with the unit time interval;
    alpha_pi is scale-free.  factor=250 turns daily parameters into
    annualized ones.
    """
    if not (math.isfinite(factor) and factor > 0.0):
        raise DomainError(f"factor must be > 0, got {factor}")
    return ParamVector(
        mu=factor * beta.mu,
        sigma2=factor * beta.sigma2,
        alpha_pi=beta.alpha_pi,
        B=factor * beta.B,
    )
