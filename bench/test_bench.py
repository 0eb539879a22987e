"""Tests of the benchmark's checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Each check must pass on the program's real output and reject a wrong answer.
"""

import csv
import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracing  # noqa: E402
import supou.cli  # noqa: E402
import supou.gmm  # noqa: E402
from supou.gmm import default_conditions, transform, untransform  # noqa: E402
from supou.params import ModelKind, ObservationSchedule, ParamVector, PiSpec  # noqa: E402
from supou.simulate import LevySpec, sample_jump_stream  # noqa: E402

STUDY = ["--mu", "0.015", "--sigma2", "0.003", "--alpha-pi", "4", "--B", "-0.1",
         "--workers", "1", "--n-paths", "1"]


def run_study(out_dir, seed=3, n_obs=3000, model="integrated"):
    """One study path through the CLI; returns (record, summary, csv rows, path values)."""
    kept = []
    original = supou.cli.simulate_path

    def keep(*args, **kwargs):
        kept.append(original(*args, **kwargs))
        return kept[-1]

    supou.cli.simulate_path = keep
    try:
        assert supou.cli.main(["study", "--model", model, "--n-obs", str(n_obs),
                               "--seed", str(seed), "--out-dir", str(out_dir)] + STUDY) == 0
    finally:
        supou.cli.simulate_path = original
    with open(out_dir / "results.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    with open(out_dir / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return records, summary, rows, kept[0].values


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    return run_study(tmp_path_factory.mktemp("study"))


TRUE = {"mu": 0.015, "sigma2": 0.003, "alpha_pi": 4.0, "B": -0.1}


def test_study_outputs_agree(study):
    records, summary, rows, _ = study
    assert checks.check_study_outputs(records, summary, rows, TRUE) == []


def test_study_outputs_reject_a_wrong_summary(study):
    records, summary, rows, _ = study
    wrong = dict(summary, converged_step2=1 - summary["converged_step2"])
    assert checks.check_study_outputs(records, wrong, rows, TRUE)
    bad_csv = [dict(rows[0], step2_B=repr(float(rows[0]["step2_B"]) * 1.001))]
    assert checks.check_study_outputs(records, summary, bad_csv, TRUE)


def test_study_outputs_reject_an_estimate_outside_the_domain(study):
    records, summary, rows, _ = study
    record = json.loads(json.dumps(records[0]))
    record["step1_estimate"]["alpha_pi"] = 0.5
    assert checks.check_study_outputs([record], summary, rows, TRUE)


def test_step2_criterion_holds_on_the_reported_estimate(study):
    records, _, _, values = study
    assert records[0]["converged_step2"]
    assert checks.check_step2_criterion(values, records[0],
                                        default_conditions(ModelKind.INTEGRATED)) == []


@pytest.mark.parametrize("coordinate", range(4))
@pytest.mark.parametrize("shift", (-1e-2, 1e-2))
def test_step2_criterion_rejects_a_shifted_estimate(study, coordinate, shift):
    records, _, _, values = study
    record = json.loads(json.dumps(records[0]))
    est = record["step2_estimate"]
    theta = transform(ParamVector(*(est[n] for n in checks.PARAM_NAMES)))
    theta[coordinate] += shift
    moved = untransform(theta)
    record["step2_estimate"] = dict(zip(checks.PARAM_NAMES, moved.as_array().tolist()))
    errors = checks.check_step2_criterion(values, record, default_conditions(ModelKind.INTEGRATED))
    assert any("recomputes" in e for e in errors)
    assert any("falls" in e for e in errors)


def test_pooled_mean_accepts_the_truth_and_rejects_ten_percent_off():
    target = 0.158
    means = target * (1.0 + np.array([-0.01, 0.006, 0.012, -0.004]))
    assert checks.check_pooled_mean("m", means, target) == []
    assert checks.check_pooled_mean("m", means * 1.1, target)
    assert checks.check_pooled_mean("m", means * 0.9, target)


def test_pooled_mean_z_is_in_standard_errors():
    means = [1.0, 2.0, 3.0, 4.0]
    se = np.std(means, ddof=1) / 2.0
    assert checks.pooled_mean_z(means, 2.5 - 3 * se) == pytest.approx(3.0)


def test_stationary_mean():
    beta = ParamVector(0.015, 0.003, 1.95, -0.1)
    assert checks.stationary_mean(beta, 1.0) == pytest.approx(0.015 / (0.1 * 0.95))


@pytest.fixture(scope="module")
def fit(tmp_path_factory):
    """A fit of a short heteroskedastic price series through the CLI."""
    out = tmp_path_factory.mktemp("fit")
    rng = np.random.default_rng(5)
    n = 4000
    vol = 0.01 * np.exp(0.5 * np.convolve(rng.standard_normal(n + 49), np.ones(50) / 7, "valid"))
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(vol * rng.standard_normal(n))]))
    with open(out / "prices.csv", "w") as fh:
        fh.write("value\n" + "".join(f"{p!r}\n" for p in prices.tolist()))
    rc = supou.cli.main(["fit", "--prices", "--input", str(out / "prices.csv"),
                         "--out-dir", str(out)])
    assert rc in (0, 3)
    with open(out / "fit.json") as fh:
        result = json.load(fh)
    y = np.diff(np.log(prices))
    y -= y.mean()
    return out, result, y


def _beta(result, step):
    return ParamVector(*(result[f"{step}_estimate"][n] for n in checks.PARAM_NAMES))


@pytest.mark.parametrize("step", ("step1", "step2"))
def test_fit_acf_columns_match(fit, step):
    out, result, y = fit
    table = checks.read_acf_csv(str(out / f"acf_{step}.csv"))
    assert checks.check_fit_acf(table, y * y, _beta(result, step), 1.0, step) == []


@pytest.mark.parametrize("column", ("empirical_acov", "empirical_acf", "model_acov", "model_acf"))
def test_fit_acf_rejects_a_column_shifted_by_one_lag(fit, column):
    out, result, y = fit
    table = checks.read_acf_csv(str(out / "acf_step2.csv"))
    table[column] = np.concatenate([table[column][1:], table[column][-1:]])
    errors = checks.check_fit_acf(table, y * y, _beta(result, "step2"), 1.0, "step2")
    assert any(column in e for e in errors)


@pytest.mark.parametrize("alpha, B", [(1.13, -1.2), (6.8, -0.0086), (208.0, -2.5e-4)])
def test_quadrature_matches_the_closed_forms(alpha, B):
    from supou.moments import sv_sqret_acov, sv_sqret_var
    beta = ParamVector(6.1e-6, 1.4e-9, alpha, B)
    var, acov = checks.sv_sqret_model(beta, 1.0, [1, 5, 20])
    assert var == pytest.approx(sv_sqret_var(beta, 1.0), rel=1e-9)
    for h, value in zip((1, 5, 20), acov):
        assert value == pytest.approx(sv_sqret_acov(beta, 1.0, h), rel=1e-9)


def _small_stream():
    beta = ParamVector(0.015, 0.003, 1.5, -0.5)
    return sample_jump_stream(LevySpec.from_moments(beta.mu, beta.sigma2),
                              PiSpec.from_params(beta), (-3000.0, 300.0), 4)


def test_evaluate_terms_counts_nonzero_terms():
    jumps = _small_stream()
    t = np.linspace(0.0, 300.0, 997)
    dt = t[:, None] - jumps.times[None, :]
    with np.errstate(over="ignore"):
        nonzero = (dt >= 0) & (np.exp(np.where(dt >= 0, jumps.rates * dt, -np.inf)) > 0)
    # the count compares times rather than exponents, which can round the
    # other way for a term whose exponent lies within an ulp of the cut
    assert abs(tracing.evaluate_terms(jumps, t) - int(nonzero.sum())) <= 2


def test_integrate_terms_counts_nonzero_terms():
    jumps = _small_stream()
    schedule = ObservationSchedule(1.0, 300)
    edges = np.arange(301.0)
    a, b = edges[:-1, None], edges[1:, None]
    tau, rate = jumps.times[None, :], jumps.rates[None, :]
    started = tau < b
    lower = np.exp(np.where(started, rate * (np.maximum(a, tau) - tau), -np.inf))
    expected = int((started & (lower > 0)).sum())
    assert abs(tracing.integrate_terms(jumps, schedule) - expected) <= 2


def test_tracer_skips_a_removed_name(tmp_path, monkeypatch):
    # a study passes its own start, so the program runs without this name
    monkeypatch.delattr(supou.gmm, "initial_estimate")
    tracer = tracing.Tracer()
    argv = ["study", "--model", "integrated", "--n-obs", "500", "--seed", "1",
            "--out-dir", str(tmp_path)] + STUDY
    assert tracer.run_op(0, lambda: supou.cli.main(argv)) == 0
    tracer.reduce_captures()
    metrics = tracing.layer_metrics(tracer, 1)
    assert tracer.patches.missing == {"supou.gmm.initial_estimate"}
    assert "gmm.initial_estimate.s" not in metrics
    assert metrics["gmm.two_step_gmm.s"] > 0
    assert not hasattr(supou.gmm.minimize, "__wrapped__")  # originals restored


def test_layer_metrics_split_steps_and_count_evaluations(tmp_path):
    tracer = tracing.Tracer()
    argv = ["study", "--model", "integrated", "--n-obs", "2000", "--seed", "2",
            "--out-dir", str(tmp_path)] + STUDY
    assert tracer.run_op(0, lambda: supou.cli.main(argv)) == 0
    tracer.reduce_captures()
    m = tracing.layer_metrics(tracer, 1)
    assert m["gmm.step1.s"] + m["gmm.step2.s"] == pytest.approx(m["gmm.two_step_gmm.s"])
    assert m["gmm.step1.evals"] > 0 and m["gmm.step2.evals"] > 0
    assert m["simulate.integrate_supou.terms"] > 0 and m["simulate.jumps"] > 0
    assert m["cli.self.s"] > 0
    assert m["gmm.step2.starts"] == math.floor(m["gmm.step2.starts"]) >= 1


def test_step2_starts_count_every_minimize_call_after_the_split():
    # a step 2 whose six candidates all fail to converge runs minimize six times
    tracer = tracing.Tracer()
    minimize = tracer._wrap(lambda: None, "gmm.minimize")
    weighting = tracer._wrap(lambda: None, "gmm.estimate_weighting")

    def two_step_gmm():
        minimize()
        weighting()
        for _ in range(6):
            minimize()

    tracer._wrap(two_step_gmm, "gmm.two_step_gmm")()
    assert tracing.layer_metrics(tracer, 1)["gmm.step2.starts"] == 6
