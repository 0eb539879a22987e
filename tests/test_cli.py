"""Command-line surface: file outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from supou import (
    LevySpec,
    ModelKind,
    ObservationSchedule,
    ParamVector,
    PiSpec,
    SimulationConfig,
    integrate_supou,
    sample_jump_stream,
    simulate_path,
)
from supou.gmm import PARAMETER_BOX
from supou.cli import main, read_series


def run(argv):
    return main([str(a) for a in argv])


def read(path):
    return path.read_bytes()


class TestSimulate:
    def test_defaults_reproduce_reference_setup(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--n-obs", 50, "--seed", 1, "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        levy = manifest["derived_levy_moments"]
        assert_allclose([levy["mu"], levy["sigma2"]], [0.015, 0.003], rtol=1e-12)
        cfg = manifest["config"]
        assert cfg["truncation_lead"] == 2000.0
        assert cfg["delta"] == 1.0
        assert (out / "path_0000.csv").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--model", "sv", "--n-obs", 64, "--seed", 9,
                        "--out-dir", out]) == 0
        assert read(a / "path_0000.csv") == read(b / "path_0000.csv")

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--n-obs", 25, "--seed", 6, "--out-dir", out]) == 0
        path = out / "path_0000.csv"
        assert read(path).split(b"\r\n")[0] == b"t,value"
        times, values = read_series(str(path))
        schedule = ObservationSchedule(1.0, 25)
        sample = simulate_path(ModelKind.SUPOU, LevySpec.from_moments(0.015, 0.003),
                               PiSpec(4.0, -0.1), schedule, SimulationConfig(seed=6))
        assert_array_equal([float(t) for t in times], schedule.times())
        assert_array_equal(values, sample.values)

    def test_zero_observations_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--n-obs", 0, "--out-dir", tmp_path])
        assert exc.value.code == 2

    def test_jump_shape_keeps_levy_moments(self, tmp_path):
        base, shaped = tmp_path / "base", tmp_path / "shaped"
        assert run(["simulate", "--n-obs", 50, "--seed", 1, "--out-dir", base]) == 0
        assert run(["simulate", "--n-obs", 50, "--seed", 1, "--jump-shape", 2,
                    "--out-dir", shaped]) == 0
        levy = json.loads((shaped / "manifest.json").read_text())["derived_levy_moments"]
        assert_allclose([levy["mu"], levy["sigma2"]], [0.015, 0.003], rtol=1e-12)
        assert read(base / "path_0000.csv") != read(shaped / "path_0000.csv")

    def test_nonpositive_jump_shape_exit_2(self, tmp_path):
        assert run(["simulate", "--n-obs", 10, "--jump-shape", 0,
                    "--out-dir", tmp_path / "x"]) == 2


class TestEstimate:
    def test_end_to_end_recovery(self, tmp_path):
        sim = tmp_path / "sim"
        est = tmp_path / "est"
        assert run(["simulate", "--n-obs", 10000, "--seed", 42, "--out-dir", sim]) == 0
        code = run(["estimate", "--model", "supou", "--input", sim / "path_0000.csv",
                    "--annualize-factor", 250, "--out-dir", est])
        assert code == 0
        result = json.loads((est / "estimate.json").read_text())
        assert result["converged_step2"] is True
        step2 = result["step2_estimate"]
        assert abs(step2["mu"] / 0.015 - 1.0) < 0.3
        assert abs(step2["sigma2"] / 0.003 - 1.0) < 0.3
        annual = result["step2_estimate_annualized"]
        assert_allclose(annual["B"], 250.0 * step2["B"], rtol=1e-12)

    def test_constant_input_exit_3(self, tmp_path):
        data = tmp_path / "const.csv"
        data.write_text("value\n" + "\n".join(["0.05"] * 100) + "\n")
        assert run(["estimate", "--input", data, "--out-dir", tmp_path / "o"]) == 3

    def test_missing_input_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run(["estimate", "--input", missing, "--out-dir", tmp_path / "o"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1\nnot-a-number\n0.2\n")
        assert run(["estimate", "--input", bad, "--out-dir", tmp_path / "o"]) == 2

    def test_lag_flags(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-obs", 2500, "--seed", 8, "--out-dir", sim]) == 0
        src = sim / "path_0000.csv"
        out = tmp_path / "est"
        code = run(["estimate", "--input", src, "--out-dir", out, "--lags", "1,2,3"])
        assert code in (0, 3)
        result = json.loads((out / "estimate.json").read_text())
        assert result["lags"] == [1, 2, 3]
        assert result["n_used"] == 2500 - 3

    def test_date_value_rows_accepted(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-obs", 2000, "--seed", 3, "--out-dir", sim]) == 0
        raw = (sim / "path_0000.csv").read_text().strip().splitlines()
        dated = tmp_path / "dated.csv"
        dated.write_text("date,value\n" + "\n".join(
            f"2020-01-{i % 28 + 1:02d},{line.split(',')[1]}" for i, line in enumerate(raw[1:])
        ) + "\n")
        code = run(["estimate", "--input", dated, "--out-dir", tmp_path / "o"])
        assert code in (0, 3)  # short series may legitimately fail to converge
        assert (tmp_path / "o" / "estimate.json").exists()


class TestStudy:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "study"
        code = run(["study", "--model", "supou", "--n-obs", 1500, "--n-paths", 4,
                    "--seed", 11, "--out-dir", out])
        assert code == 0
        for name in ("results.jsonl", "estimates.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 4
        assert summary["converged_step2"] <= 4
        lines = (out / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        assert [json.loads(l)["path"] for l in lines] == [0, 1, 2, 3]
        if summary["converged_step2"] >= 2:
            assert (out / "hist_mu.csv").exists()
            assert (out / "qq_B.csv").exists()

    def test_worker_count_invariance(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((a, 1), (b, 2)):
            assert run(["study", "--model", "supou", "--n-obs", 800, "--n-paths", 4,
                        "--seed", 5, "--workers", workers, "--out-dir", out]) == 0
        for name in ("results.jsonl", "estimates.csv", "summary.json"):
            assert read(a / name) == read(b / name)

    def test_sv_long_memory_study(self, tmp_path):
        out = tmp_path / "sv_study"
        code = run(["study", "--model", "sv", "--alpha-pi", 1.95, "--n-obs", 1200,
                    "--n-paths", 2, "--seed", 21, "--out-dir", out])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"] == "sv"
        assert summary["true_params"]["alpha_pi"] == 1.95


class TestFit:
    def test_price_transform_and_degenerate_exit(self, tmp_path, capsys):
        y = simulate_path(ModelKind.SV, LevySpec(0.1, 3.0, 20.0), PiSpec(4.0, -0.1),
                          ObservationSchedule(1.0, 2000), SimulationConfig(seed=6)).values
        price_values = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(y)]))
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(f"{p:.17g}" for p in price_values) + "\n")
        out = tmp_path / "fit"
        assert run(["fit", "--prices", "--input", prices, "--out-dir", out]) == 0
        rows = (out / "series_used.csv").read_bytes().decode().strip().split("\r\n")[1:]
        values = [float(r.split(",")[1]) for r in rows]
        returns = np.diff(np.log(price_values))
        assert_array_equal(values, returns - returns.mean())

        # constant log returns cannot be fit, and a failed fit writes nothing
        prices.write_text("\n".join(str(math.exp(k)) for k in range(60)) + "\n")
        out = tmp_path / "degenerate"
        assert run(["fit", "--prices", "--input", prices, "--out-dir", out]) == 3
        assert "degenerate series" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_ending_on_box_face_exits_3(self, tmp_path):
        # first 2,000 prices of a 10^5-day series at the paper's empirical SV
        # estimate (jump seed 2, shocks from default_rng([7, 2])); step 2 ends
        # within 3e-6 of the lower face of log(-B), which trf does not flag
        beta = ParamVector(6.1e-6, 1.4e-9, 6.8, -0.0086)
        schedule = ObservationSchedule(1.0, 100_000)
        jumps = sample_jump_stream(LevySpec.from_moments(beta.mu, beta.sigma2),
                                   PiSpec.from_params(beta), (-2000.0, schedule.horizon), 2)
        v = integrate_supou(jumps, schedule).values[:1999]
        z = np.random.default_rng([7, 2]).standard_normal(schedule.n_obs)[:1999]
        price_values = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(np.sqrt(v) * z)]))
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(repr(p) for p in price_values.tolist()) + "\n")
        out = tmp_path / "fit"
        assert run(["fit", "--prices", "--input", prices, "--out-dir", out]) == 3
        fit = json.loads((out / "fit.json").read_text())
        assert fit["step2_stop"] == "at_box_edge"
        assert not fit["converged_step2"]
        # the crude start has B = -0.1, so the lower face is log(0.1) - PARAMETER_BOX
        log_b = math.log(-fit["step2_estimate"]["B"])
        assert 0.0 <= log_b - (math.log(0.1) - PARAMETER_BOX) < 1e-3

    def test_nonpositive_price_exit_2(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text("1.0\n-2.0\n3.0\n")
        assert run(["fit", "--prices", "--input", prices,
                    "--out-dir", tmp_path / "o"]) == 2

    def test_missing_file_named(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert run(["fit", "--returns", "--input", missing,
                    "--out-dir", tmp_path / "o"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_surrogate_fit_outputs(self, tmp_path):
        sim = tmp_path / "sv"
        assert run(["simulate", "--model", "sv", "--mu", 6.1e-6, "--sigma2", 1.4e-9,
                    "--alpha-pi", 6.8, "--B", -0.0086, "--n-obs", 750, "--seed", 4,
                    "--out-dir", sim]) == 0
        out = tmp_path / "fit"
        code = run(["fit", "--returns", "--input", sim / "path_0000.csv",
                    "--acf-lags", 12, "--out-dir", out])
        assert code in (0, 3)
        fit = json.loads((out / "fit.json").read_text())
        assert fit["acf_decay_exponent_step2"] == 1.0 - fit["step2_estimate"]["alpha_pi"]
        for step in ("step1", "step2"):
            rows = (out / f"acf_{step}.csv").read_bytes().decode().strip().split("\r\n")
            assert rows[0] == "lag,empirical_acov,model_acov,empirical_acf,model_acf"
            assert len(rows) == 13
            for row in rows[1:]:
                cells = row.split(",")
                assert all(math.isfinite(float(c)) for c in cells[1:])

    def test_requires_mode_flag(self, tmp_path):
        data = tmp_path / "r.csv"
        data.write_text("0.1\n0.2\n")
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--input", data, "--out-dir", tmp_path / "o"])
        assert exc.value.code == 2


class TestShortInput:
    @pytest.mark.parametrize("mode", [["estimate"], ["fit", "--returns"]])
    def test_exit_2_names_the_length(self, tmp_path, capsys, mode):
        data = tmp_path / "short.csv"
        data.write_text("0.1\n0.3\n0.2\n0.4\n")
        assert run([*mode, "--input", data, "--out-dir", tmp_path / "o"]) == 2
        assert "got 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestUnidentifiedLags:
    @pytest.mark.parametrize("lags, shown", [("5", "(5,)"), (",", "()")])
    def test_exit_2_names_the_lags(self, tmp_path, capsys, lags, shown):
        # one lag gives three moments for four parameters
        data = tmp_path / "series.csv"
        sample = simulate_path(ModelKind.SUPOU, LevySpec.from_moments(0.015, 0.003),
                               PiSpec(1.95, -0.1), ObservationSchedule(1.0, 500),
                               SimulationConfig(seed=3))
        data.write_text("\n".join(map(repr, sample.values.tolist())) + "\n")
        assert run(["estimate", "--input", data, "--lags", lags,
                    "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"need at least two lags for four parameters, got {shown}" in err
        assert not (tmp_path / "o").exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("mode", [["estimate"], ["fit", "--returns"], ["fit", "--prices"]])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_exit_2_names_the_line(self, tmp_path, capsys, mode, token):
        data = tmp_path / "series.csv"
        data.write_text(f"1.0\n{token}\n3.0\n")
        assert run([*mode, "--input", data, "--out-dir", tmp_path / "o"]) == 2
        assert f"{data}:2: not a finite number: '{token}'" in capsys.readouterr().err
