"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; each test also enforces its runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from supou import (
    LevySpec,
    ModelKind,
    ObservationSchedule,
    ParamVector,
    PiSpec,
    SimulationConfig,
    closed_form_init,
    demean,
    intsupou_acov,
    intsupou_mean,
    intsupou_var,
    quadrature_moments,
    sample_acov,
    sample_var,
    simulate_path,
    supou_acf,
    supou_acov,
    supou_mean,
    supou_var,
    sv_sqret_acov,
    sv_sqret_mean,
    sv_sqret_var,
    transform,
    two_step_gmm,
    untransform,
)
from supou.cli import main as cli_main

BETA_SHORT = ParamVector(0.015, 0.003, 4.0, -0.1)
BETA_LONG = ParamVector(0.015, 0.003, 1.95, -0.1)
BETA_EMPIRICAL = ParamVector(6.1e-6, 1.4e-9, 6.8, -0.0086)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared recovery studies (criteria 6 and 7)
# ---------------------------------------------------------------------------

def _recovery_study(beta_true, n_paths, n_obs, seed):
    spec = LevySpec.from_moments(beta_true.mu, beta_true.sigma2)
    pi = PiSpec.from_params(beta_true)
    schedule = ObservationSchedule(1.0, n_obs)
    estimates, n_converged = [], 0
    for p in range(n_paths):
        path_seed = seed + p
        path = simulate_path(ModelKind.SUPOU, spec, pi, schedule,
                             SimulationConfig(seed=path_seed))
        start_rng = np.random.default_rng(np.random.SeedSequence(path_seed, spawn_key=(2,)))
        theta0 = transform(beta_true) + start_rng.uniform(-0.5, 0.5, 4)
        result = two_step_gmm(path.values, ModelKind.SUPOU,
                              start=untransform(theta0))
        if result.converged_step2:
            n_converged += 1
            estimates.append(result.step2_estimate.as_array())
    estimates = np.array(estimates)
    medians = np.median(estimates, axis=0)
    mad = np.median(np.abs(estimates - beta_true.as_array()), axis=0)
    return medians, mad, n_converged


@pytest.fixture(scope="module")
def recovery_studies():
    t0 = time.time()
    studies = {
        ("short", 10_000): _recovery_study(BETA_SHORT, 100, 10_000, 50_000),
        ("short", 1_000): _recovery_study(BETA_SHORT, 100, 1_000, 50_000),
        ("long", 10_000): _recovery_study(BETA_LONG, 100, 10_000, 60_000),
        ("long", 1_000): _recovery_study(BETA_LONG, 100, 1_000, 60_000),
    }
    studies["elapsed"] = time.time() - t0
    return studies


class TestCriterion1:
    def test_moment_oracle_equivalence(self):
        t0 = time.time()
        alphas = np.array([1.1, 1.45, 1.8, 1.95, 2.2, 2.6, 3.4, 4.7, 6.2, 8.0])
        Bs = np.linspace(-2.0, -0.01, 10)
        lags = list(range(1, 11))
        worst = 0.0
        n_vectors = 0
        for alpha, B in itertools.product(alphas, Bs):
            beta = ParamVector(0.015, 0.003, float(alpha), float(B))
            n_vectors += 1
            for delta in (0.5, 1.0):
                supou = quadrature_moments(beta, ModelKind.SUPOU,
                                           lags=[h * delta for h in lags])
                errs = [abs(supou.mean / supou_mean(beta) - 1.0),
                        abs(supou.var / supou_var(beta) - 1.0)]
                errs += [abs(v / supou_acov(beta, h) - 1.0) for h, v in supou.acov.items()]
                integ = quadrature_moments(beta, ModelKind.INTEGRATED, delta, lags=lags)
                errs += [abs(integ.mean / intsupou_mean(beta, delta) - 1.0),
                         abs(integ.var / intsupou_var(beta, delta) - 1.0)]
                errs += [abs(v / intsupou_acov(beta, delta, h) - 1.0)
                         for h, v in integ.acov.items()]
                # SV counterparts are compositions of the integrated values
                sv_mean = integ.mean
                sv_var = 3.0 * integ.var + 2.0 * integ.mean**2
                errs += [abs(sv_mean / sv_sqret_mean(beta, delta) - 1.0),
                         abs(sv_var / sv_sqret_var(beta, delta) - 1.0)]
                errs += [abs(v / sv_sqret_acov(beta, delta, h) - 1.0)
                         for h, v in integ.acov.items()]
                worst = max(worst, max(errs))
        elapsed = time.time() - t0
        report(
            "criterion 1 (moment-oracle equivalence)",
            worst <= 1e-8 and n_vectors >= 100 and elapsed <= 60.0,
            f"{n_vectors} parameter vectors x 2 deltas, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s (budget 60s)",
        )


class TestCriterion2:
    def test_limit_handling(self):
        worst = 0.0
        for alpha in (2.0, 3.0):
            for B, delta in ((-0.1, 1.0), (-0.5, 0.5), (-2.0, 1.0), (-0.01, 1.0)):
                at = ParamVector(0.015, 0.003, alpha, B)
                for eps in (1e-5, -1e-5):
                    near = ParamVector(0.015, 0.003, alpha + eps, B)
                    worst = max(worst, abs(
                        intsupou_var(at, delta) / intsupou_var(near, delta) - 1.0))
                    for h in (1, 2, 5):
                        worst = max(worst, abs(
                            intsupou_acov(at, delta, h)
                            / intsupou_acov(near, delta, h) - 1.0))
        report(
            "criterion 2 (limits at alpha_pi in {2,3})",
            worst <= 1e-3,
            f"worst rel deviation vs alpha +/- 1e-5 evaluation: {worst:.2e}",
        )


class TestCriterion3:
    def test_simulator_fidelity(self):
        t0 = time.time()
        spec = LevySpec(0.1, 3.0, 20.0)
        pi = PiSpec.from_params(BETA_SHORT)
        schedule = ObservationSchedule(1.0, 10_000)
        means, variances, acfs = [], [], []
        for p in range(50):
            path = simulate_path(ModelKind.SUPOU, spec, pi, schedule,
                                 SimulationConfig(seed=1000 + p))
            x = path.values
            means.append(x.mean())
            variances.append(x.var())
            centered = x - x.mean()
            acfs.append([
                float(centered[:-h] @ centered[h:]) / len(x) / x.var()
                for h in range(1, 6)
            ])
        means, variances, acfs = map(np.array, (means, variances, acfs))
        elapsed = time.time() - t0

        mean_err = abs(means.mean() / 0.05 - 1.0)
        var_err = abs(variances.mean() / 0.005 - 1.0)
        rho = (1.0 + 0.1 * np.arange(1, 6)) ** -3.0
        z = np.abs(acfs.mean(axis=0) - rho) / acfs.std(axis=0, ddof=1)
        report(
            "criterion 3 (simulator fidelity, 50x10^4)",
            mean_err <= 0.01 and var_err <= 0.05 and np.all(z <= 3.0)
            and elapsed <= 300.0,
            f"mean rel err {mean_err:.4f} (<=0.01), var rel err {var_err:.4f} (<=0.05), "
            f"acf |z| max {z.max():.2f} (<=3), {elapsed:.0f}s (budget 300s)",
        )


class TestCriterion4:
    def test_sv_structural_identities(self):
        spec = LevySpec(0.1, 3.0, 20.0)
        pi = PiSpec.from_params(BETA_SHORT)
        schedule = ObservationSchedule(1.0, 100_000)
        path = simulate_path(ModelKind.SV, spec, pi, schedule, SimulationConfig(seed=2))
        y = path.values
        n = y.size
        y2 = y * y

        se_mean = y.std() / math.sqrt(n)
        z_mean = abs(y.mean()) / se_mean

        se_sq = y2.std() / math.sqrt(n)
        z_sq = abs(y2.mean() - sv_sqret_mean(BETA_SHORT, 1.0)) / se_sq

        # lag-1 autocovariance of squared returns with a batch-means SE
        target = sv_sqret_acov(BETA_SHORT, 1.0, 1)
        assert abs(target / 0.00378788 - 1.0) < 1e-5
        estimate = sample_acov(y2, 1)
        blocks = np.array([
            sample_acov(y2[i * 1000:(i + 1) * 1000], 1) for i in range(100)
        ])
        se_acov = blocks.std(ddof=1) / math.sqrt(blocks.size)
        z_acov = abs(estimate - target) / se_acov

        report(
            "criterion 4 (SV identities on one 10^5 path)",
            z_mean <= 3.0 and z_sq <= 3.0 and z_acov <= 3.0,
            f"|z| mean(Y) {z_mean:.2f}, mean(Y^2) {z_sq:.2f}, "
            f"acov(Y^2,1) {z_acov:.2f} (all <=3)",
        )


class TestCriterion5:
    def test_initializer_exactness(self):
        t0 = time.time()
        worst = 0.0
        for beta in (BETA_SHORT, BETA_LONG):
            recovered = closed_form_init(
                supou_mean(beta),
                supou_var(beta),
                float(supou_acf(beta, 1.0)),
                float(supou_acf(beta, 2.0)),
                1.0,
                2.0,
            )
            worst = max(worst, float(np.abs(recovered.as_array() - beta.as_array()).max()))
        elapsed = time.time() - t0
        report(
            "criterion 5 (initializer exactness)",
            worst <= 1e-10 and elapsed <= 1.0,
            f"worst abs coordinate error {worst:.2e} (<=1e-10), {elapsed:.3f}s (budget 1s)",
        )


class TestCriterion6:
    def test_parameter_recovery(self, recovery_studies):
        med_s, _, conv_s = recovery_studies[("short", 10_000)]
        med_l, _, conv_l = recovery_studies[("long", 10_000)]
        rel_s = np.abs(med_s / BETA_SHORT.as_array() - 1.0)
        rel_l = np.abs(med_l / BETA_LONG.as_array() - 1.0)
        bands_short = np.array([0.10, 0.10, 0.15, 0.10])
        bands_long = np.array([0.10, 0.10, 0.20, 0.10])
        ok = (
            np.all(rel_s <= bands_short)
            and np.all(rel_l <= bands_long)
            and conv_s >= 98
            and conv_l >= 98
            and recovery_studies["elapsed"] <= 1800.0
        )
        report(
            "criterion 6 (recovery, 100x10^4 paths)",
            ok,
            "short medians rel err "
            f"{np.round(rel_s, 4).tolist()} (bands {bands_short.tolist()}), "
            f"long {np.round(rel_l, 4).tolist()} (bands {bands_long.tolist()}), "
            f"converged {conv_s}/100 and {conv_l}/100 (>=98), "
            f"all four studies took {recovery_studies['elapsed']:.0f}s (budget 1800s)",
        )


class TestCriterion7:
    def test_sample_size_degradation(self, recovery_studies):
        ratios = {}
        ok = True
        for case in ("short", "long"):
            _, mad_large, _ = recovery_studies[(case, 10_000)]
            _, mad_small, _ = recovery_studies[(case, 1_000)]
            ratios[case] = (mad_small / mad_large).round(2).tolist()
            ok = ok and bool(np.all(mad_small > mad_large))
        report(
            "criterion 7 (degradation at N=10^3)",
            ok,
            f"median abs error ratios 10^3/10^4 per coordinate: {ratios} (all > 1)",
        )


class TestCriterion8:
    def test_weighting_matters(self):
        spec = LevySpec.from_moments(BETA_EMPIRICAL.mu, BETA_EMPIRICAL.sigma2)
        pi = PiSpec.from_params(BETA_EMPIRICAL)
        schedule = ObservationSchedule(1.0, 750)
        lags = np.arange(1, 6)

        def model_acf(beta):
            var = sv_sqret_var(beta, 1.0)
            return np.array([sv_sqret_acov(beta, 1.0, h) for h in lags]) / var

        wins = 0
        for rep in range(20):
            seed = 9000 + rep
            path = simulate_path(ModelKind.SV, spec, pi, schedule,
                                 SimulationConfig(seed=seed))
            data = demean(path.values)
            result = two_step_gmm(data, ModelKind.SV)
            squared = data * data
            emp_acf = np.array([sample_acov(squared, h) for h in lags]) / sample_var(squared)
            ssd1 = float(((emp_acf - model_acf(result.step1_estimate)) ** 2).sum())
            ssd2 = float(((emp_acf - model_acf(result.step2_estimate)) ** 2).sum())
            wins += ssd2 < ssd1
        report(
            "criterion 8 (weighting matters end-to-end)",
            wins >= 16,
            f"step-2 acf beats step-1 acf in {wins}/20 replications (need >=16)",
        )


class TestCriterion9:
    def test_worker_determinism(self, tmp_path):
        outputs = {}
        for workers in (1, 3):
            out = tmp_path / f"workers{workers}"
            code = cli_main([
                "study", "--model", "supou", "--n-obs", "1000", "--n-paths", "6",
                "--seed", "5", "--workers", str(workers), "--out-dir", str(out),
            ])
            assert code == 0
            outputs[workers] = {
                name: (out / name).read_bytes()
                for name in ("results.jsonl", "estimates.csv", "summary.json",
                             "hist_mu.csv", "hist_sigma2.csv", "hist_alpha_pi.csv",
                             "hist_B.csv", "qq_mu.csv", "qq_B.csv")
            }
        identical = outputs[1] == outputs[3]
        report(
            "criterion 9 (worker-count determinism)",
            identical,
            "aggregate study outputs byte-identical across 1 and 3 workers",
        )
