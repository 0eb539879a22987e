"""Correctness checks for the benchmark's operations.

Each check recomputes a quantity apart from the program, or tests a property
the method must have, and returns a list of failure messages (empty when the
check passes).  None of them runs inside a timed region.
"""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainccinv, gammaincinv

from supou.gmm import (
    MomentConditionSet,
    estimate_weighting,
    objective,
    transform,
    untransform,
)
from supou.params import ParamVector

PARAM_NAMES = ("mu", "sigma2", "alpha_pi", "B")

# Pooled-mean bound, in between-path standard errors.  With the 4 paths of a
# study round the standardised error is t-distributed with 3 degrees of
# freedom, and P(|t_3| > 4) is about 0.03.
MEAN_Z_BOUND = 4.0
# Step size of the local-minimum probe along each `transform` coordinate.
PROBE_STEP = 1e-3
# The recomputed step-2 criterion repeats the program's arithmetic, so it
# must agree to rounding.
OBJECTIVE_RTOL = 1e-12
# Empirical acf columns: same estimator, possibly another summation order.
EMPIRICAL_RTOL = 1e-10
# Model acf columns against this module's quadrature.
MODEL_RTOL = 1e-8


def domain_errors(label: str, est: Dict[str, float]) -> List[str]:
    values = [est.get(name) for name in PARAM_NAMES]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return [f"{label}: non-finite or missing estimate {est}"]
    try:
        ParamVector(*values)
    except ValueError as exc:
        return [f"{label}: outside the ParamVector domain: {exc}"]
    return []


def check_study_outputs(records: Sequence[Dict], summary: Dict,
                        csv_rows: Sequence[Dict[str, str]],
                        true_params: Dict[str, float]) -> List[str]:
    """Study records, estimates.csv and summary.json must agree; estimates in domain."""
    errors: List[str] = []
    if summary.get("n_paths") != len(records) or len(csv_rows) != len(records):
        errors.append(f"{len(records)} records, {len(csv_rows)} csv rows, "
                      f"summary n_paths={summary.get('n_paths')}")
    if summary.get("true_params") != true_params:
        errors.append(f"summary true_params {summary.get('true_params')} != {true_params}")
    converged = [rec for rec in records if rec["converged_step2"]]
    expected = {
        "converged_step1": sum(int(rec["converged_step1"]) for rec in records),
        "converged_step2": len(converged),
        "non_converged_paths": [rec["path"] for rec in records if not rec["converged_step2"]],
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            errors.append(f"summary {key}={summary.get(key)!r}, records give {value!r}")
    if converged:
        for name in PARAM_NAMES:
            median = float(np.median([rec["step2_estimate"][name] for rec in converged]))
            if summary.get("medians_step2", {}).get(name) != median:
                errors.append(f"summary median of {name} != records' median {median!r}")
    for rec, row in zip(records, csv_rows):
        for step in ("step1", "step2"):
            errors += domain_errors(f"path {rec['path']} {step}", rec[f"{step}_estimate"])
            for name in PARAM_NAMES:
                if float(row[f"{step}_{name}"]) != rec[f"{step}_estimate"][name]:
                    errors.append(f"path {rec['path']}: estimates.csv {step}_{name} "
                                  f"differs from results.jsonl")
        if int(row["converged_step2"]) != int(rec["converged_step2"]):
            errors.append(f"path {rec['path']}: converged_step2 differs between outputs")
    return errors


def pooled_mean_z(path_means: Sequence[float], target: float) -> float:
    """(pooled mean - target) / between-path standard error of the pooled mean."""
    means = np.asarray(path_means, dtype=float)
    if means.size < 2:
        raise ValueError("a between-path standard error needs at least 2 paths")
    se = float(means.std(ddof=1)) / math.sqrt(means.size)
    return (float(means.mean()) - target) / se


def check_pooled_mean(label: str, path_means: Sequence[float], target: float,
                      z_bound: float = MEAN_Z_BOUND) -> List[str]:
    z = pooled_mean_z(path_means, target)
    if not abs(z) <= z_bound:
        return [f"{label}: pooled mean {np.mean(path_means)!r} is {z:.2f} standard "
                f"errors from {target!r} (bound {z_bound})"]
    return []


def stationary_mean(beta: ParamVector, delta: float) -> float:
    """E V_n = E Y_n^2 = delta mu / (|B| (alpha_pi - 1))."""
    return delta * beta.mu / (abs(beta.B) * (beta.alpha_pi - 1.0))


def check_step2_criterion(data: np.ndarray, result: Dict,
                          conditions: MomentConditionSet) -> List[str]:
    """Recompute the step-2 criterion and probe it for a lower neighbour.

    The weighting is `estimate_weighting` at the reported step-1 estimate and
    the criterion the public `objective`; it must equal the reported
    step2_objective, and no move of PROBE_STEP along a `transform` coordinate
    may lower it.
    """
    beta1 = ParamVector(*(result["step1_estimate"][n] for n in PARAM_NAMES))
    beta2 = ParamVector(*(result["step2_estimate"][n] for n in PARAM_NAMES))
    W = estimate_weighting(data, beta1, conditions)
    value = objective(data, beta2, W, conditions)
    reported = result["step2_objective"]
    errors = []
    if not abs(value - reported) <= OBJECTIVE_RTOL * abs(reported):
        errors.append(f"step-2 criterion recomputes to {value!r}, reported {reported!r}")
    theta = transform(beta2)
    for j in range(4):
        for sign in (-1.0, 1.0):
            moved = theta.copy()
            moved[j] += sign * PROBE_STEP
            lower = objective(data, untransform(moved), W, conditions)
            if lower < value:
                errors.append(f"criterion falls from {value!r} to {lower!r} on a "
                              f"{sign * PROBE_STEP:+g} move of transform coordinate {j}")
    return errors


# ---------------------------------------------------------------------------
# model autocovariances of squared SV returns by quadrature
# ---------------------------------------------------------------------------

def _phi2(u: float) -> float:
    # (e^u - 1 - u) / u^2, with its Taylor series where the difference cancels
    if abs(u) >= 1e-2:
        return (math.expm1(u) - u) / (u * u)
    return 0.5 + u * (1 / 6 + u * (1 / 24 + u * (1 / 120 + u * (1 / 720 + u / 5040))))


def _shrc(y: float) -> float:
    # sinh(y) / y
    return math.sinh(y) / y if y != 0.0 else 1.0


def _gamma_expectation(f, shape: float) -> float:
    """E f(R) for R ~ Gamma(shape, 1), integrated over the quantile scale.

    Writing E f(R) = int_0^1 f(F^-1(p)) dp removes the density's endpoint
    singularity and follows its mass wherever the shape puts it; each half
    of [0, 1] uses the quantile function that is accurate there.
    """
    lo, _ = quad(lambda p: f(float(gammaincinv(shape, p))), 0.0, 0.5,
                 epsabs=0.0, epsrel=1e-13, limit=500)
    hi, _ = quad(lambda q: f(float(gammainccinv(shape, q))), 0.0, 0.5,
                 epsabs=0.0, epsrel=1e-13, limit=500)
    return lo + hi


def sv_sqret_model(beta: ParamVector, delta: float, lags: Sequence[int]):
    """(variance, autocovariances) of squared SV returns from the mixture integrals.

    With A = B R, R ~ Gamma(a, 1), and x = B r, u = x delta:
        E V      = delta mu E[1 / (-A)] = delta mu / (-B (a - 1))
        var V    = sigma2 E[(e^u - 1 - u) / (-x^3)]
        cov(h)   = sigma2 E[e^(u h) (e^u + e^-u - 2) / (-2 x^3)]
    Every kernel is g(r) / r with g bounded, so E[g(R) / R] is taken as
    E[g(R')] / (a - 1) with R' ~ Gamma(a - 1, 1).
    """
    a, B, s2 = beta.alpha_pi, beta.B, beta.sigma2
    shape, scale = a - 1.0, 1.0 / (a - 1.0)
    mean_v = delta * beta.mu / (-B) * scale
    var_v = s2 * delta**2 / (-B) * scale * _gamma_expectation(
        lambda r: _phi2(B * r * delta), shape)
    acov = []
    for h in lags:
        def g(r, h=float(h)):
            u = B * r * delta
            return math.exp(u * h) * _shrc(0.5 * u) ** 2
        acov.append(s2 * delta**2 / (-2.0 * B) * scale * _gamma_expectation(g, shape))
    return 3.0 * var_v + 2.0 * mean_v * mean_v, np.array(acov)


def empirical_acov(series: np.ndarray, lags: Sequence[int]) -> np.ndarray:
    """Autocovariances with divisor n of a series at the given lags."""
    centered = series - series.mean()
    n = centered.size
    return np.array([np.dot(centered[:n - h], centered[h:]) for h in lags]) / n


def read_acf_csv(path: str) -> Dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


def _column_errors(label: str, got: np.ndarray, want: np.ndarray, rtol: float) -> List[str]:
    if got.shape != want.shape:
        return [f"{label}: {got.size} values, expected {want.size}"]
    bad = np.flatnonzero(~(np.abs(got - want) <= rtol * np.abs(want)))
    if bad.size:
        i = int(bad[0])
        return [f"{label}: lag {i + 1} reads {got[i]!r}, expected {want[i]!r} "
                f"({bad.size} lags off by more than {rtol:g} relative)"]
    return []


def check_fit_acf(table: Dict[str, np.ndarray], sq_returns: np.ndarray,
                  beta: ParamVector, delta: float, label: str) -> List[str]:
    """acf_step*.csv: empirical columns against numpy, model columns against quadrature."""
    lags = [int(h) for h in table["lag"]]
    if lags != list(range(1, len(lags) + 1)):
        return [f"{label}: lags {lags} are not 1..{len(lags)}"]
    emp = empirical_acov(sq_returns, lags)
    emp_var = float(empirical_acov(sq_returns, [0])[0])
    model_var, model = sv_sqret_model(beta, delta, lags)
    return (
        _column_errors(f"{label} empirical_acov", table["empirical_acov"], emp, EMPIRICAL_RTOL)
        + _column_errors(f"{label} empirical_acf", table["empirical_acf"], emp / emp_var,
                         EMPIRICAL_RTOL)
        + _column_errors(f"{label} model_acov", table["model_acov"], model, MODEL_RTOL)
        + _column_errors(f"{label} model_acf", table["model_acf"], model / model_var,
                         MODEL_RTOL)
    )
