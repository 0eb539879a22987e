"""Exception types shared across the package.

The command line exits 2 on a ValueError among them (bad input) and 3 on
InitializationError or SingularWeightingError (data that the estimator cannot
fit).  QuadratureError comes only from the oracle `quadrature_moments`.
"""

__all__ = [
    "DomainError",
    "ParameterError",
    "DataError",
    "SingularWeightingError",
    "InitializationError",
    "QuadratureError",
]


class DomainError(ValueError):
    """An argument lies outside its mathematical domain (e.g. a negative lag, or a
    weighting matrix that is not symmetric positive definite)."""


class ParameterError(DomainError):
    """A model parameter vector violates its invariants."""


class DataError(ValueError):
    """Input data is missing, malformed, or too short for the requested operation."""


class SingularWeightingError(RuntimeError):
    """The moment covariance is singular beyond what ridge regularization can fix."""


class InitializationError(RuntimeError):
    """The estimator cannot start on the supplied data: the closed-form
    initializer does not apply to its moments, or the cold start finds no
    dispersion."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""
