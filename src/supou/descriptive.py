"""Empirical moments and distribution diagnostics.

Autocovariances here use the standard time-series divisor n at every lag.
The GMM sample moments in `gmm` follow a different convention (sliding
windows averaged with 1/(N-m)); the two are intentionally distinct.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtri

from .errors import DataError, DomainError

__all__ = [
    "sample_mean",
    "sample_var",
    "sample_acov",
    "sample_acf",
    "demean",
    "normal_qq_points",
    "histogram",
]


def _as_series(x) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("expected a nonempty 1-d series")
    return arr


def sample_mean(x) -> float:
    return float(_as_series(x).mean())


def sample_var(x) -> float:
    """Sample variance with divisor n."""
    return sample_acov(x, 0)


def sample_acov(x, h: Union[int, Sequence[int]]) -> Union[float, np.ndarray]:
    """Lag-h sample autocovariance with divisor n; h=0 equals sample_var.

    For a sequence of lags, an array of their autocovariances, all from one
    centered copy of the series and each bitwise equal to its own call.
    """
    arr = _as_series(x)
    one_lag = np.ndim(h) == 0
    lags = [h] if one_lag else list(h)
    for lag in lags:
        if lag < 0:
            raise DomainError(f"lag must be >= 0, got {lag}")
        if arr.size < lag + 1:
            raise DataError(f"series of length {arr.size} has no lag-{lag} pairs")
    centered = arr - arr.mean()
    # a multiply-and-sum, not a dot: numpy hands a dot to the threaded BLAS,
    # where one call at n = 1e5 took 8 ms on two cores against 0.15 ms here
    acov = [float((centered[:arr.size - lag] * centered[lag:]).sum()) / arr.size
            for lag in lags]
    return acov[0] if one_lag else np.array(acov)


def sample_acf(x, h: int) -> float:
    v = sample_acov(x, 0)
    if v <= 0.0:
        raise DataError("autocorrelation undefined for a constant series")
    return sample_acov(x, h) / v


def demean(x) -> np.ndarray:
    """Subtract the sample mean; idempotent up to round-off."""
    arr = _as_series(x)
    return arr - arr.mean()


def normal_qq_points(x) -> np.ndarray:
    """(theoretical, sample) quantile pairs for a normal QQ plot.

    Sample order statistics are paired with standard-normal quantiles at
    the plotting positions (i - 0.5) / n; output is sorted by the
    theoretical coordinate.
    """
    arr = _as_series(x)
    if arr.size < 2:
        raise DataError("QQ points need at least 2 observations")
    positions = (np.arange(1, arr.size + 1) - 0.5) / arr.size
    theoretical = ndtri(positions)
    return np.column_stack([theoretical, np.sort(arr)])


def histogram(x, bins: int) -> List[Tuple[float, float, int]]:
    """Equal-width histogram over [min, max]; rightmost bin closed.

    A degenerate range (all values equal) is widened by one unit of machine
    epsilon at that magnitude so every observation lands in the first bin.
    """
    arr = _as_series(x)
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        # widen by one epsilon-at-magnitude per bin so every bin has width
        hi = lo + bins * float(np.spacing(max(abs(lo), 1.0)))
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
    ]
