"""Empirical moments, demeaning and diagnostic data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from supou import (
    DataError,
    DomainError,
    demean,
    histogram,
    normal_qq_points,
    sample_acf,
    sample_acov,
    sample_mean,
    sample_var,
)

series = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=2, max_size=60
).map(np.array)


def normal_quantile_by_bisection(p, tol=1e-12):
    """Independent inverse-normal oracle: bisection on 0.5*erfc(-x/sqrt(2))."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBasicMoments:
    def test_hand_values(self):
        x = np.array([1.0, 2.0, 3.0])
        assert sample_mean(x) == 2.0
        assert_allclose(sample_var(x), 2.0 / 3.0, rtol=1e-15)

    def test_acov_hand_value(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert_allclose(sample_acov(x, 1), -0.75, rtol=1e-15)

    def test_acov_zero_lag_is_var(self):
        x = np.random.default_rng(0).normal(size=100)
        assert sample_acov(x, 0) == sample_var(x)

    def test_long_series_matches_exact_sum(self):
        # squared returns are skewed and positive, like the fit's estimation series
        x = np.random.default_rng(3).standard_normal(100_000) ** 2
        mean = math.fsum(x) / x.size
        centered = [v - mean for v in x.tolist()]
        for h in (0, 1, 5, 40):
            exact = math.fsum(a * b for a, b in zip(centered, centered[h:])) / x.size
            assert_allclose(sample_acov(x, h), exact, rtol=1e-12)

    def test_constant_series(self):
        x = np.full(10, 3.3)
        assert sample_var(x) == 0.0
        for h in range(4):
            assert sample_acov(x, h) == 0.0
        with pytest.raises(DataError):
            sample_acf(x, 1)

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            sample_mean([])
        with pytest.raises(DataError):
            sample_var([])

    def test_too_short_for_lag(self):
        with pytest.raises(DataError):
            sample_acov([1.0, 2.0], 2)
        with pytest.raises(DataError):
            sample_acov([1.0, 2.0], [1, 2])
        with pytest.raises(DomainError):
            sample_acov([1.0, 2.0], [0, -1])

    def test_lag_sequence_equals_the_per_lag_loop_bitwise(self):
        x = np.random.default_rng(4).standard_normal(100_001) ** 2
        lags = list(range(1, 21))
        acov = sample_acov(x, lags)
        assert isinstance(acov, np.ndarray) and acov.dtype == float
        assert acov.tobytes() == np.array([sample_acov(x, h) for h in lags]).tobytes()
        assert sample_acov(x, np.arange(3)).tobytes() == sample_acov(x, [0, 1, 2]).tobytes()
        assert sample_acov(x, []).shape == (0,)

    @given(series, st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, x, c):
        for h in (0, 1):
            assert_allclose(
                sample_acov(x + c, h), sample_acov(x, h), rtol=1e-7, atol=1e-7
            )


class TestDemean:
    def test_hand_value(self):
        assert_allclose(demean([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0], rtol=1e-15)

    def test_output_has_zero_mean(self):
        x = np.random.default_rng(1).normal(5.0, 2.0, 1000)
        assert abs(demean(x).mean()) < 1e-12

    @given(series)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, x):
        once = demean(x)
        assert_allclose(demean(once), once, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            demean([])


class TestNormalQqPoints:
    def test_two_point_quantiles(self):
        points = normal_qq_points([-1.0, 1.0])
        expected = normal_quantile_by_bisection(0.75)
        assert_allclose(points[:, 0], [-expected, expected], atol=1e-9)
        assert_allclose(points[:, 1], [-1.0, 1.0])

    def test_matches_bisection_oracle(self):
        n = 17
        positions = (np.arange(1, n + 1) - 0.5) / n
        points = normal_qq_points(np.arange(n, dtype=float))
        oracle = [normal_quantile_by_bisection(p) for p in positions]
        assert_allclose(points[:, 0], oracle, atol=1e-9)

    def test_self_consistency_on_normal_quantiles(self):
        # feeding the theoretical quantiles back in lands on the identity line
        n = 101
        positions = (np.arange(1, n + 1) - 0.5) / n
        quantiles = np.array([normal_quantile_by_bisection(p) for p in positions])
        points = normal_qq_points(quantiles)
        assert_allclose(points[:, 0], points[:, 1], atol=1e-9)

    def test_sorted_output(self):
        x = np.random.default_rng(3).normal(size=40)
        points = normal_qq_points(x)
        assert np.all(np.diff(points[:, 0]) > 0.0)
        assert np.all(np.diff(points[:, 1]) >= 0.0)

    def test_needs_two_observations(self):
        with pytest.raises(DataError):
            normal_qq_points([1.0])


class TestHistogram:
    def test_hand_binning(self):
        bins = histogram([0.0, 1.0, 2.0, 3.0], 2)
        assert [count for _, _, count in bins] == [2, 2]
        assert bins[0][0] == 0.0 and bins[-1][1] == 3.0

    def test_rightmost_bin_closed(self):
        # 1.0 sits on the closing edge and still counts
        bins = histogram([0.0, 0.5, 1.0], 2)
        assert [count for _, _, count in bins] == [1, 2]

    def test_degenerate_range(self):
        bins = histogram(np.full(7, 2.5), 3)
        assert len(bins) == 3
        assert [count for _, _, count in bins] == [7, 0, 0]

    @given(series, st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_counts_sum_to_n(self, x, bins):
        counts = [count for _, _, count in histogram(x, bins)]
        assert sum(counts) == len(x)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            histogram([1.0, 2.0], 0)
        with pytest.raises(DataError):
            histogram([], 3)
